// Package replication turns one cfsf-server process into a read fleet:
// a leader serves its durable state over two admin endpoints and a
// follower consumes them to hold a bit-identical model.
//
// Wire protocol (both GET, both under the admin-auth gate):
//
//	/admin/snapshot          the newest snapshot file, verbatim: the
//	                         checksummed model file local recovery loads,
//	                         the watermark it covers inside it
//	/admin/wal?after=<seq>   chunked stream of raw CRC-framed WAL record
//	                         frames with sequence > seq, following the
//	                         live tail; X-Cfsf-Last-Seq carries the log
//	                         end at connect. 410 Gone is the re-bootstrap
//	                         signal: the log no longer holds that
//	                         position (retention pruned it, or the
//	                         follower's cursor is beyond this leader's
//	                         log), so the follower must restart from a
//	                         newer snapshot instead of patching forward.
//
// The bootstrap ladder on the follower side is: fetch the newest
// snapshot file in one GET, rebuild the model at its watermark
// (core.Decode), then stream the WAL tail from that watermark and apply
// it through the same micro-batch grouping crash replay uses. Every
// transition that loses the tail (leader pruned past the cursor) degrades
// to a clean re-bootstrap, never to a silent gap. A leader and its
// followers upgrade together: a follower of this build asking a leader
// that predates the snapshot file, or the reverse, gets an error status
// on every bootstrap attempt and logs each retry.
package replication

import "time"

// Wire protocol paths and headers.
const (
	PathWAL         = "/admin/wal"
	PathSnapshot    = "/admin/snapshot"
	PathFingerprint = "/admin/fingerprint"

	// HeaderLastSeq is the leader's WAL end at stream connect.
	HeaderLastSeq = "X-Cfsf-Last-Seq"
)

const (
	// streamChunkBytes bounds one write+flush on the WAL stream.
	streamChunkBytes = 256 << 10
	// streamIdleWait re-arms the tail wait so a stream notices context
	// cancellation and new appends even if a signal is missed.
	streamIdleWait = time.Second

	defaultReconnectMin = 100 * time.Millisecond
	defaultReconnectMax = 5 * time.Second
)
