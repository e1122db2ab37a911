package replication

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"cfsf/internal/lifecycle"
	"cfsf/internal/obs"
	"cfsf/internal/wal"
)

// Leader serves the replication wire protocol from a lifecycle.Manager.
// The HTTP layer (routing, auth, instrumentation) stays in
// internal/server; these handlers own only the protocol semantics.
type Leader struct {
	mgr *lifecycle.Manager //cfsf:immutable
	reg *obs.Registry      //cfsf:immutable

	// quit ends every active WAL stream: long-lived chunked responses
	// would otherwise hold http.Server.Shutdown open until its deadline.
	quit chan struct{}

	mStreams       *obs.Gauge
	mStreamRecords *obs.Counter
	mStreamBytes   *obs.Counter
	mRebootstraps  *obs.Counter
	mSnapshots     *obs.Counter
}

// NewLeader wraps a manager for serving.
func NewLeader(mgr *lifecycle.Manager, reg *obs.Registry) *Leader {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Leader{
		mgr:            mgr,
		reg:            reg,
		quit:           make(chan struct{}),
		mStreams:       reg.Gauge("replication_wal_streams_active"),
		mStreamRecords: reg.Counter("replication_wal_stream_records_total"),
		mStreamBytes:   reg.Counter("replication_wal_stream_bytes_total"),
		mRebootstraps:  reg.Counter("replication_rebootstrap_signals_total"),
		mSnapshots:     reg.Counter("replication_snapshots_served_total"),
	}
}

// ServeWAL streams raw record frames with sequence > after, then follows
// the live tail (unless follow=0 asks for a bounded catch-up read). The
// response is flushed per chunk so a follower applies records with
// sub-second lag. An unserveable position answers 410 Gone with a JSON
// body naming the log's current floor — the re-bootstrap signal.
func (l *Leader) ServeWAL(w http.ResponseWriter, r *http.Request) {
	afterStr := r.URL.Query().Get("after")
	after, err := strconv.ParseUint(afterStr, 10, 64)
	if afterStr == "" {
		after, err = 0, nil
	}
	if err != nil {
		writeJSONStatus(w, http.StatusBadRequest, map[string]any{"error": "bad after parameter"})
		return
	}
	follow := r.URL.Query().Get("follow") != "0"

	cur, err := l.mgr.NewWALCursor(after)
	if err != nil {
		if errors.Is(err, wal.ErrRebootstrap) {
			l.serveRebootstrap(w, err)
			return
		}
		writeJSONStatus(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	defer func() { _ = cur.Close() }()

	_, lastAtConnect := l.mgr.WALAppendSignal()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderLastSeq, strconv.FormatUint(lastAtConnect, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	l.mStreams.Add(1)
	defer l.mStreams.Add(-1)

	ctx := r.Context()
	buf := make([]byte, 0, streamChunkBytes)
	for {
		// Arm the signal before reading: an append landing between Next
		// and the wait closes this channel, so the wakeup is never lost.
		sig, last := l.mgr.WALAppendSignal()
		var n int
		buf, n, err = cur.Next(buf[:0], streamChunkBytes)
		if n > 0 {
			if _, werr := w.Write(buf); werr != nil {
				return // client gone
			}
			if flusher != nil {
				flusher.Flush()
			}
			l.mStreamRecords.Add(int64(n))
			l.mStreamBytes.Add(int64(len(buf)))
		}
		if err != nil {
			// Mid-stream loss (a prune overtook the cursor) or
			// corruption: terminate. Headers are sent, so the signal is the
			// close itself — the follower's reconnect gets the 410.
			if errors.Is(err, wal.ErrRebootstrap) {
				l.mRebootstraps.Inc()
			}
			return
		}
		if n > 0 {
			continue
		}
		if !follow {
			return
		}
		if cur.NextSeq() <= last {
			continue // appended while the chunk was in flight
		}
		// Select order: read-only tail wait; which case fires never affects replayed state.
		select {
		case <-sig:
		case <-time.After(streamIdleWait):
		case <-ctx.Done():
			return
		case <-l.quit:
			return // shutting down; followers reconnect elsewhere or wait
		}
	}
}

// Close ends all active WAL streams so the owning HTTP server can drain.
// Followers see a clean EOF and retry through their reconnect loop.
func (l *Leader) Close() {
	select {
	case <-l.quit:
	default:
		close(l.quit)
	}
}

// serveRebootstrap answers 410 Gone with the log's current floor and the
// newest snapshot watermark, so the follower (and a debugging operator)
// can see why the position died and where to restart.
func (l *Leader) serveRebootstrap(w http.ResponseWriter, cause error) {
	l.mRebootstraps.Inc()
	body := map[string]any{
		"error":          "re-bootstrap required",
		"cause":          cause.Error(),
		"available_from": l.mgr.WALAvailableFrom(),
	}
	body["snapshot_seq"] = l.mgr.NewestSnapshotSeq()
	writeJSONStatus(w, http.StatusGone, body)
}

// ServeSnapshot streams the newest snapshot file verbatim: the model file
// local recovery loads, checksummed, its watermark inside.
func (l *Leader) ServeSnapshot(w http.ResponseWriter, r *http.Request) {
	f, err := l.mgr.OpenSnapshot()
	if err != nil {
		writeJSONStatus(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
		return
	}
	defer func() { _ = f.Close() }()
	l.mSnapshots.Inc()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = io.Copy(w, f)
}

func writeJSONStatus(w http.ResponseWriter, status int, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
