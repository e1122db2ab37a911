// Follower-mode lifecycle: a read replica does not own a WAL or a
// snapshot schedule — it assembles a model from a leader's manifest and
// blobs, then ingests the leader's WAL records in stream order and
// applies them through the exact micro-batch machinery boot replay uses.
// The grouping rule is the one bit-for-bit crash recovery relies on
// (commitQueue), so the follower folds exactly the batches the leader
// folded, in the same order, and its model is bit-identical to the
// leader's at the same applied sequence.
//
// This file also holds the leader-side accessors the replication wire
// protocol serves from: WAL cursors, the newest manifest document, and
// validated snapshot-blob handles.
package lifecycle

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/obs"
	"cfsf/internal/wal"
)

// followerState pairs the follower's serving model with its contiguous
// applied watermark, swapped atomically (the read-path contract is the
// same as the leader's modelState).
type followerState struct {
	sharded *core.ShardedModel
	seq     uint64
}

// Follower applies a leader's WAL record stream on top of a
// bootstrap-assembled model. Ingest is single-writer (one stream
// goroutine); the read accessors are safe from any goroutine.
type Follower struct {
	logf func(format string, args ...any) //cfsf:immutable
	reg  *obs.Registry                    //cfsf:immutable

	state atomic.Pointer[followerState]

	mu       sync.Mutex
	queue    commitQueue //cfsf:guarded-by mu // journaled-but-unapplied ratings, stream order
	received uint64      //cfsf:guarded-by mu // highest record sequence ingested (any type)
	oldestAt time.Time   //cfsf:guarded-by mu // arrival of the oldest still-queued rating

	mApplied   *obs.Counter
	mBatches   *obs.Counter
	mApplyErrs *obs.Counter
}

// NewFollower returns an applier with no model; Reset must install a
// bootstrap point before Ingest or Model are used.
func NewFollower(reg *obs.Registry, logf func(format string, args ...any)) *Follower {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Follower{
		logf:       logf,
		reg:        reg,
		mApplied:   reg.Counter("follower_applied_total"),
		mBatches:   reg.Counter("follower_batches_total"),
		mApplyErrs: reg.Counter("follower_apply_errors_total"),
	}
}

// Reset installs a freshly bootstrapped model covering every rating with
// sequence <= seq, discarding any queued tail (a re-bootstrap lands on a
// newer snapshot, which already folds whatever was queued).
//
//cfsf:wallclock-ok arrival times feed the lag estimate only; apply grouping comes from journaled commit records
func (f *Follower) Reset(mod *core.Model, seq uint64) {
	f.mu.Lock()
	f.queue = newCommitQueue(seq)
	f.received = seq
	f.oldestAt = time.Time{}
	f.mu.Unlock()
	f.state.Store(&followerState{sharded: core.NewSharded(mod), seq: seq})
}

// Ingest folds one streamed WAL record: ratings queue, batch commits cut
// and apply exactly the leader's batch, checkpoints only advance the
// cursor. Records at or below the already-ingested position (a reconnect
// overlap) are skipped.
//
//cfsf:wallclock-ok arrival times feed the lag estimate only; apply grouping comes from journaled commit records
func (f *Follower) Ingest(rec wal.Record) error {
	switch rec.Type {
	case wal.RecordRating, wal.RecordBatchCommit, wal.RecordCheckpoint:
	default:
		return fmt.Errorf("lifecycle: follower: unknown record type %d at seq %d", rec.Type, rec.Seq)
	}
	f.mu.Lock()
	if rec.Seq <= f.received {
		f.mu.Unlock()
		return nil
	}
	f.received = rec.Seq
	if rec.Type == wal.RecordRating && f.queue.push(rec.Seq, rec.Update, rec.Shard) && len(f.queue.queued) == 1 {
		f.oldestAt = time.Now()
	}
	var batch []core.RatingUpdate
	if rec.Type == wal.RecordBatchCommit {
		batch = f.queue.cut(rec.Covered, rec.Shard)
	}
	seq := f.queue.watermark()
	f.mu.Unlock()
	if rec.Type != wal.RecordBatchCommit {
		return nil
	}

	st := f.state.Load()
	if len(batch) == 0 {
		// A commit wholly covered by the bootstrap snapshot (its ratings
		// were already folded into the assembled model); the watermark
		// still moves when the queue just drained.
		if st != nil && seq != st.seq {
			f.state.Store(&followerState{sharded: st.sharded, seq: seq})
		}
		return nil
	}
	if st == nil {
		return fmt.Errorf("lifecycle: follower: commit at seq %d before any bootstrap", rec.Seq)
	}
	next, _, err := applyWithFallback(st.sharded, batch, f.logf, f.mApplyErrs)
	if err != nil {
		return fmt.Errorf("lifecycle: follower: apply batch through seq %d: %w", rec.Covered, err)
	}
	f.mApplied.Add(int64(len(batch)))
	f.mBatches.Inc()
	f.state.Store(&followerState{sharded: next, seq: seq})
	return nil
}

// Model returns the follower's currently served model (nil before the
// first Reset).
func (f *Follower) Model() *core.Model {
	if st := f.state.Load(); st != nil {
		return st.sharded.Model()
	}
	return nil
}

// Sharded returns the follower's current sharded model (nil before the
// first Reset).
func (f *Follower) Sharded() *core.ShardedModel {
	if st := f.state.Load(); st != nil {
		return st.sharded
	}
	return nil
}

// AppliedSeq returns the contiguous applied watermark.
func (f *Follower) AppliedSeq() uint64 {
	if st := f.state.Load(); st != nil {
		return st.seq
	}
	return 0
}

// Cursor returns the stream resume position: the highest record sequence
// already ingested (queued ratings included — they survive a reconnect
// in memory).
func (f *Follower) Cursor() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.received
}

// QueueLen returns how many ingested ratings await their batch commit.
func (f *Follower) QueueLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue.queued)
}

// OldestQueuedAge estimates how long the oldest unapplied rating has
// been waiting (zero with an empty queue) — the wall-clock component of
// replication lag.
//
//cfsf:wallclock-ok lag estimate only; never feeds applied state
func (f *Follower) OldestQueuedAge() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.queue.queued) == 0 {
		return 0
	}
	return time.Since(f.oldestAt)
}

// AssembleRemotePoint reassembles a model from a manifest document plus
// a blob-fetch function — the follower bootstrap path, where the blobs
// come from the leader's snapshot endpoints instead of local disk. It
// returns the model and the watermark the manifest covers. Unlike boot
// there is no shard-patching fallback: a follower that cannot fetch a
// consistent blob set simply retries (the leader's next snapshot
// supersedes the torn one).
func AssembleRemotePoint(manifestJSON []byte, fetch func(name string) ([]byte, error)) (*core.Model, uint64, error) {
	man, err := parseManifest(manifestJSON, "remote")
	if err != nil {
		return nil, 0, err
	}
	mod, _, err := assembleManifest(man, func(name string) (io.ReadCloser, error) {
		data, err := fetch(name)
		if err != nil {
			return nil, fmt.Errorf("fetch: %w", err)
		}
		return io.NopCloser(bytes.NewReader(data)), nil
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	return mod, man.Seq, nil
}

// --- leader-side accessors for the replication wire protocol ---

// NewWALCursor returns a streaming cursor over the manager's WAL
// delivering every record with sequence > afterSeq; it fails with
// wal.ErrRebootstrap when that position is no longer batch-exactly
// streamable (the caller maps it to the re-bootstrap signal).
func (m *Manager) NewWALCursor(afterSeq uint64) (*wal.Cursor, error) {
	return m.w.NewCursor(afterSeq)
}

// WALAppendSignal exposes the WAL's append notification for tail
// followers: the channel is closed by the next append, and the returned
// sequence is the log end at the time of the call.
func (m *Manager) WALAppendSignal() (<-chan struct{}, uint64) {
	return m.w.AppendSignal()
}

// WALAvailableFrom exposes the WAL's contiguous-stream floor (the 410
// payload tells a behind follower where serveability starts).
func (m *Manager) WALAvailableFrom() uint64 { return m.w.AvailableFrom() }

// WALDedupedBelow exposes the WAL's compaction dedupe horizon.
func (m *Manager) WALDedupedBelow() uint64 { return m.w.DedupedBelow() }

// NewestManifest returns the newest loadable manifest document and the
// watermark it covers. Retention can delete a point between listing and
// reading; such a point is skipped in favour of an older one, exactly as
// the boot ladder does.
func (m *Manager) NewestManifest() (data []byte, seq uint64, err error) {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return nil, 0, err
	}
	for _, pt := range points {
		data, rerr := os.ReadFile(pt.path)
		if rerr != nil {
			continue
		}
		if _, perr := parseManifest(data, filepath.Base(pt.path)); perr != nil {
			continue
		}
		return data, pt.seq, nil
	}
	return nil, 0, fmt.Errorf("lifecycle: no loadable manifest in %s", m.cfg.DataDir)
}

// OpenSnapshotBlob opens one snapshot blob by its manifest-referenced
// name. The name must be a bare blob file name (no path separators) —
// the same validation manifests pass — so a remote caller cannot read
// outside the snapshot directory.
func (m *Manager) OpenSnapshotBlob(name string) (*os.File, error) {
	if !isBlobName(name) {
		return nil, fmt.Errorf("lifecycle: %q is not a snapshot blob name", name)
	}
	return os.Open(filepath.Join(snapshotDir(m.cfg.DataDir), name))
}
