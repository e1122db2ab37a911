package lifecycle

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/obs"
	"cfsf/internal/wal"
)

// Config tunes a Manager. The zero value of each field selects the
// default noted on it; DataDir is required.
type Config struct {
	// DataDir is the durability root; created if missing.
	DataDir string
	// Fsync is the WAL fsync policy (default wal.SyncAlways).
	Fsync wal.SyncPolicy
	// FsyncInterval is the background flush cadence under
	// wal.SyncInterval. <= 0 means 100ms.
	FsyncInterval time.Duration
	// SegmentBytes is the WAL segment rotation size (wal.Options).
	SegmentBytes int64

	// BatchMaxWait, when > 0, delays each apply by this long so more
	// ratings coalesce into the batch. The default 0 is greedy: the
	// apply loop drains whatever is queued the moment it is free, so
	// batching emerges from backpressure without added latency.
	BatchMaxWait time.Duration
	// QueueCapacity bounds the unapplied-rating queue, and with it the
	// largest micro-batch; Submit returns ErrQueueFull beyond it. <= 0
	// means 4096.
	QueueCapacity int

	// SnapshotEvery, when > 0, snapshots the model in the background at
	// this cadence (skipped when nothing changed since the last one).
	SnapshotEvery time.Duration
	// SnapshotKeep is how many recovery points (snapshot files) to retain.
	// <= 0 means 2.
	SnapshotKeep int

	// RetrainAfter, when > 0, triggers a background retrain once this
	// many ratings have been applied since the last retrain.
	RetrainAfter int

	// Registry receives wal/lifecycle metrics; one is created when nil.
	Registry *obs.Registry
	// Logf receives operational messages; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 4096
	}
	if c.SnapshotKeep <= 0 {
		c.SnapshotKeep = 2
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ErrQueueFull is returned by Submit when the unapplied-rating queue is
// at capacity; callers should shed load (the server maps it to 503).
var ErrQueueFull = fmt.Errorf("lifecycle: update queue full")

// ErrClosed is returned by Submit after Close or Abort.
var ErrClosed = fmt.Errorf("lifecycle: manager closed")

// Manager owns the serving model, its WAL, and its snapshot/retrain
// schedule. All exported methods are safe for concurrent use.
type Manager struct {
	cfg  Config        //cfsf:immutable
	reg  *obs.Registry //cfsf:immutable
	w    *wal.WAL      //cfsf:immutable
	boot BootStats     //cfsf:immutable

	// rep is the served {model, applied seq} pair and the queue of
	// journaled-but-unapplied ratings. SubmitBatch pushes under rep.mu,
	// which also orders WAL appends with enqueueing; only the run loop
	// commits, and while a retrain record is being folded it does not.
	rep replica

	kick    chan struct{}
	stopc   chan struct{} // Close: drain then exit
	abortc  chan struct{} // Abort: exit immediately
	done    chan struct{}
	closing atomic.Bool

	snapshotState

	retrainReq chan struct{}
	retrainc   chan error  // the fold's result
	retraining atomic.Bool // a journaled retrain record is being folded; only the run loop writes it
	driftCount int         // run-loop state: updates applied since the last retrain was journaled

	metrics
}

// Open builds the serving model from the data directory — newest
// snapshot plus WAL-tail replay, or bootstrap() when no snapshot exists —
// takes a fresh snapshot if anything was replayed, and starts the
// manager loop.
func Open(bootstrap func() (*core.Model, error), cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("lifecycle: DataDir is required")
	}
	if err := os.MkdirAll(snapshotDir(cfg.DataDir), 0o755); err != nil {
		return nil, fmt.Errorf("lifecycle: create snapshot dir: %w", err)
	}
	w, err := wal.Open(filepath.Join(cfg.DataDir, "wal"), wal.Options{
		SegmentBytes: cfg.SegmentBytes,
		Sync:         cfg.Fsync,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, err
	}

	m := &Manager{
		cfg:        cfg,
		reg:        cfg.Registry,
		w:          w,
		rep:        replica{logf: cfg.Logf, applyErrs: cfg.Registry.Counter("lifecycle_apply_errors_total")},
		metrics:    bindMetrics(cfg.Registry),
		kick:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		abortc:     make(chan struct{}),
		done:       make(chan struct{}),
		retrainReq: make(chan struct{}, 1),
		// Buffered so the retrain goroutine can finish even if the loop
		// is gone (Abort) — it must never block forever on send.
		retrainc: make(chan error, 1),
	}
	if err := m.bootModel(bootstrap); err != nil {
		_ = w.Close()
		return nil, err
	}
	m.snapMu.Lock()
	m.oldestSnapSeq.Store(m.oldestRetainedSeq())
	m.snapMu.Unlock()

	ws := w.Stats()
	m.boot.TornBytes = ws.TornBytes
	m.reg.Counter("wal_torn_bytes_dropped_total").Add(ws.TornBytes)
	m.reg.Counter("wal_replayed_records_total").Add(int64(m.boot.ReplayedRecords))
	m.reg.Counter("wal_replayed_batches_total").Add(int64(m.boot.ReplayedBatches))
	m.PublishGauges()

	go m.run()
	return m, nil
}

// Submit journals one rating (durable per the fsync policy once this
// returns) as a SubmitBatch of one. It returns the rating's WAL sequence
// and how many ratings are now pending.
func (m *Manager) Submit(u core.RatingUpdate) (seq uint64, pending int, err error) {
	seqs, pending, err := m.SubmitBatch([]core.RatingUpdate{u})
	if err != nil {
		return 0, 0, err
	}
	return seqs[0], pending, nil
}

// SubmitBatch journals a batch of ratings as one WAL append group — a
// single write and, under SyncAlways, a single fsync for the whole
// request — then queues them for the next micro-batch. It returns the
// per-rating WAL sequences (in batch order) and the pending count. The
// batch is all-or-nothing at the queue: if it would overflow
// QueueCapacity, nothing is journaled and ErrQueueFull is returned.
//
// Clock reads: append latency feeds the wal_append_ms histogram only.
func (m *Manager) SubmitBatch(ups []core.RatingUpdate) (seqs []uint64, pending int, err error) {
	if m.closing.Load() {
		return nil, 0, ErrClosed
	}
	if len(ups) == 0 {
		return nil, m.Pending(), nil
	}
	shards := make([]int, len(ups))
	for i := range shards {
		shards[i] = -1 // unsharded: a batch is the whole queue, whatever clusters it spans
	}
	m.rep.mu.Lock()
	if len(m.rep.queue.queued)+len(ups) > m.cfg.QueueCapacity {
		m.rep.mu.Unlock()
		m.mQueueFull.Inc()
		return nil, 0, ErrQueueFull
	}
	t := time.Now()
	seqs, err = m.w.AppendRatings(ups, shards)
	if err != nil {
		m.rep.mu.Unlock()
		return nil, 0, err
	}
	m.mAppendLat.Observe(durMS(time.Since(t)))
	for i, u := range ups {
		m.rep.queue.push(seqs[i], u)
	}
	pending = len(m.rep.queue.queued)
	m.rep.mu.Unlock()

	m.mPending.Set(float64(pending))
	m.mApplyLag.Set(float64(m.ApplyLag()))
	select {
	case m.kick <- struct{}{}:
	default:
	}
	return seqs, pending, nil
}

// run is the manager loop: it owns every model swap.
func (m *Manager) run() {
	defer close(m.done)

	var syncC, snapC <-chan time.Time
	if m.cfg.Fsync == wal.SyncInterval {
		t := time.NewTicker(m.cfg.FsyncInterval)
		defer t.Stop()
		syncC = t.C
	}
	if m.cfg.SnapshotEvery > 0 {
		t := time.NewTicker(m.cfg.SnapshotEvery)
		defer t.Stop()
		snapC = t.C
	}

	for {
		// Select order: only the run loop mutates state, and every apply is journaled with a batch-commit record before the next pick, so replay regroups identically whatever order cases fire.
		select {
		case <-m.abortc:
			return
		case <-m.stopc:
			if m.retraining.Load() {
				// The journaled retrain lands first: the queue drains on
				// top of it, as every replay of this log will.
				m.finishRetrain(<-m.retrainc)
			}
			m.applyPending()
			return
		case <-m.kick:
			if m.cfg.BatchMaxWait > 0 {
				time.Sleep(m.cfg.BatchMaxWait) // let a batch coalesce
			}
			m.applyPending()
		case <-syncC:
			if err := m.w.Sync(); err != nil {
				m.cfg.Logf("lifecycle: interval fsync: %v", err)
			}
		case <-snapC:
			go func() {
				if _, err := m.Snapshot(); err != nil {
					m.cfg.Logf("lifecycle: scheduled snapshot: %v", err)
				}
			}()
		case <-m.retrainReq:
			if !m.retraining.Load() {
				m.startRetrain()
			}
		case err := <-m.retrainc:
			m.finishRetrain(err)
			m.applyPending()
		}
	}
}

// applyPending drains the queue one batch per round, and is the whole
// of the leader's drain policy: the replica commits through the newest
// queued rating — the whole queue in one Apply, which rebuilds only the
// user clusters the batch touches — and the commit is journaled (shard
// -1: every queued rating at or below Covered), so crash replay and
// followers regroup the exact same batches. Ratings that arrive during
// an Apply form the next round's batch. It cuts nothing while a retrain
// record is being folded: ratings journaled behind the record fold into
// the retrained model, not before.
//
// Clock reads: apply latency feeds the apply_ms histogram only; batch boundaries come from the queue, not the clock.
func (m *Manager) applyPending() {
	for !m.retraining.Load() {
		m.rep.mu.Lock()
		covered, ok := m.rep.queue.last, len(m.rep.queue.queued) > 0
		m.rep.mu.Unlock()
		if !ok {
			m.mPending.Set(0)
			return
		}
		t := time.Now()
		n := len(m.rep.commit(covered))
		if _, err := m.w.AppendBatchCommit(covered, -1); err != nil {
			m.cfg.Logf("lifecycle: journal batch commit: %v", err)
		}

		m.mApplyLat.Observe(durMS(time.Since(t)))
		m.mBatchSize.Observe(float64(n))
		m.mApplied.Add(int64(n))
		m.mBatches.Inc()
		m.PublishGauges()

		m.driftCount += n
		// Not in Close's final drain, which would stop behind the retrain.
		if m.cfg.RetrainAfter > 0 && m.driftCount >= m.cfg.RetrainAfter && !m.closing.Load() {
			m.startRetrain()
		}
	}
}

// startRetrain journals a retrain record at the applied watermark and
// folds that same record through the replica in a goroutine — the path
// boot replay and followers take. Only the run loop calls it, and it cuts
// no batch until finishRetrain, so the fold finds the state it names.
//
// Clock reads: retrain duration feeds the retrain_ms histogram only.
func (m *Manager) startRetrain() {
	m.driftCount = 0
	atSeq := m.AppliedSeq()
	seq, err := m.w.AppendRetrain(atSeq)
	if err != nil {
		m.mRetrainErrs.Inc()
		m.cfg.Logf("lifecycle: journal retrain: %v", err)
		return
	}
	m.retraining.Store(true)
	m.mRetraining.Set(1)
	go func() {
		t := time.Now()
		_, _, err := m.rep.feed(wal.Record{Type: wal.RecordRetrain, Seq: seq, Covered: atSeq})
		if err == nil {
			m.mRetrainLat.Observe(durMS(time.Since(t)))
		}
		m.retrainc <- err
	}()
}

// finishRetrain takes the fold's result; the caller drains the queue that
// built up behind the record.
func (m *Manager) finishRetrain(err error) {
	m.retraining.Store(false)
	m.mRetraining.Set(0)
	if err != nil {
		m.mRetrainErrs.Inc()
		m.cfg.Logf("lifecycle: retrain failed: %v", err)
		return
	}
	m.mRetrains.Inc()
	m.PublishGauges()
}

// TriggerRetrain requests a background retrain. It reports false when a
// request is already queued or a retrain is in flight.
func (m *Manager) TriggerRetrain() bool {
	if m.closing.Load() || m.Retraining() {
		return false
	}
	select {
	case m.retrainReq <- struct{}{}:
		return true
	default:
		return false
	}
}

// Retraining reports whether a retrain is in flight.
func (m *Manager) Retraining() bool { return m.retraining.Load() }

// Close lets an in-flight retrain land, drains the queue (every journaled
// rating is applied), snapshots the final state, and closes the WAL.
func (m *Manager) Close() error {
	if !m.closing.CompareAndSwap(false, true) {
		<-m.done
		return nil
	}
	close(m.stopc)
	<-m.done
	if _, err := m.Snapshot(); err != nil {
		m.cfg.Logf("lifecycle: final snapshot: %v", err)
	}
	return m.w.Close()
}

// Abort is the crash-simulation counterpart of Close: it stops the loop
// without draining, snapshotting, or syncing — recovery tests use it to
// model a SIGKILL. Journaled-but-unapplied ratings are recovered from
// the WAL on the next Open.
func (m *Manager) Abort() {
	if !m.closing.CompareAndSwap(false, true) {
		return
	}
	close(m.abortc)
	<-m.done
	_ = m.w.CloseAbrupt()
}
