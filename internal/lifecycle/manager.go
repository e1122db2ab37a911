// Package lifecycle owns the serving model end to end: it journals every
// incoming rating to a write-ahead log before acknowledging it, records
// the model shard (= user cluster) each rating touches, folds the queue
// in micro-batches cut as contiguous prefixes — one
// core.ShardedModel.Apply per batch, which rebuilds only the shards the
// batch touches, in parallel, instead of the monolithic O(nnz) rebuild —
// rotates atomic snapshots so restarts are fast, and schedules the
// background retrain that internal/core/update.go's drift caveat asks
// for, either as a per-shard sweep (RetrainMode "shards") or as the
// legacy stop-the-world KMeans pass ("full").
//
// Data-dir layout:
//
//	<dir>/wal/seg-<firstSeq>.wal         append-only rating journal (internal/wal)
//	<dir>/wal/base-<toSeq>.cwal          compacted base the folded segments
//	                                     rewrite into (wal compaction)
//	<dir>/snapshots/manifest-<seq>.json  one recovery point: watermark + blob refs
//	<dir>/snapshots/shared-<seq>.blob    config + GIS + clustering at <seq>
//	<dir>/snapshots/shard-<id>-<seq>.blob one shard's matrix rows at <seq>
//
// Boot loads the newest loadable recovery point — an unreadable manifest
// is skipped in favour of an older one, and inside a manifest an
// unreadable shard blob is patched from an older manifest's blob plus
// the WAL before the whole point is given up on — or calls the bootstrap
// function when none loads and the WAL still reaches back to sequence 1,
// then replays the WAL tail past the point's sequence. A monolithic
// snap-<seq>.gob written before manifests existed no longer boots: with
// no loadable manifest beside it Open refuses, naming the file. Every
// published model folds a contiguous prefix of the log, and the
// batch-commit record journaled after each swap carries the last
// sequence the batch covered, so replay regroups ratings into exactly
// the micro-batches the previous process applied (commitQueue) and the
// recovered model is bit-for-bit identical. A fresh snapshot is then
// written so the next boot replays nothing — but only after every
// written blob passes a read-back self-check; a snapshot that cannot be
// read back bit-for-bit never prunes the WAL it claims to cover.
package lifecycle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfsf/internal/atomicfile"
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

	// BatchMaxSize caps how many queued ratings of any one shard a
	// micro-batch folds in. <= 0 means 256.
	BatchMaxSize int
	// BatchMaxWait, when > 0, delays each apply by this long so more
	// ratings coalesce into the batch. The default 0 is greedy: the
	// apply loop drains whatever is queued the moment it is free, so
	// batching emerges from backpressure without added latency.
	BatchMaxWait time.Duration
	// QueueCapacity bounds the unapplied-rating queue; Submit returns
	// ErrQueueFull beyond it. <= 0 means 4096.
	QueueCapacity int

	// SnapshotEvery, when > 0, snapshots the model in the background at
	// this cadence (skipped when nothing changed since the last one).
	SnapshotEvery time.Duration
	// SnapshotKeep is how many recovery points (manifests) to retain.
	// <= 0 means 2.
	SnapshotKeep int

	// CompactEnabled folds checkpoint-covered WAL segments into a
	// compacted base after each snapshot instead of deleting them, so
	// recovery can still patch older shard blobs forward while the log
	// stays bounded.
	CompactEnabled bool
	// CompactMinSegments is the segment count at which a post-snapshot
	// compaction pass actually runs. <= 0 means 2.
	CompactMinSegments int

	// RetrainAfter, when > 0, triggers a background retrain once this
	// many ratings have been applied since the last retrain.
	RetrainAfter int
	// RetrainMode selects what a background retrain does: "shards" (the
	// default) rebuilds the shared GIS and then re-fits one shard at a
	// time (core.ShardedModel.RetrainShard swept across every shard);
	// "full" is the legacy stop-the-world core.Train pass.
	RetrainMode string

	// SkipSnapshotVerify disables the load-and-predict self-check that
	// every written snapshot must pass before it is checkpointed and the
	// WAL it covers pruned. Only tests (and operators who prefer faster
	// snapshots over the read-back guarantee) should set it.
	SkipSnapshotVerify bool

	// Registry receives wal/lifecycle metrics; one is created when nil.
	Registry *obs.Registry
	// Logf receives operational messages; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.BatchMaxSize <= 0 {
		c.BatchMaxSize = 256
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 4096
	}
	if c.SnapshotKeep <= 0 {
		c.SnapshotKeep = 2
	}
	if c.CompactMinSegments <= 0 {
		c.CompactMinSegments = 2
	}
	if c.RetrainMode == "" {
		c.RetrainMode = RetrainShards
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// RetrainMode values for Config.RetrainMode.
const (
	RetrainShards = "shards"
	RetrainFull   = "full"
)

// ErrQueueFull is returned by Submit when the unapplied-rating queue is
// at capacity; callers should shed load (the server maps it to 503).
var ErrQueueFull = fmt.Errorf("lifecycle: update queue full")

// ErrClosed is returned by Submit after Close or Abort.
var ErrClosed = fmt.Errorf("lifecycle: manager closed")

// modelState pairs the serving model with its WAL position, swapped
// atomically. seq is the applied watermark: the model folds in exactly
// the ratings with sequence <= seq — batches are cut as contiguous queue
// prefixes, so every published state can be snapshotted under its seq.
type modelState struct {
	sharded *core.ShardedModel
	seq     uint64
	// gen is the dirty-tracking generation this state was stored at: the
	// dirty spans recorded at or before it describe exactly the shards
	// whose persisted rows this model invalidates (see markDirty).
	gen uint64
}

type pendingUpdate struct {
	seq   uint64
	u     core.RatingUpdate
	shard int // routing decision recorded in the WAL, reused for batching
}

// BootStats reports what Open did to reach the serving model.
type BootStats struct {
	// SnapshotLoaded is the snapshot file the boot started from ("" when
	// the bootstrap function trained the base model).
	SnapshotLoaded string
	// SnapshotSeq is the rating sequence that snapshot covered.
	SnapshotSeq uint64
	// ReplayedRecords is how many WAL ratings were folded in on top.
	ReplayedRecords int
	// ReplayedBatches is how many WithUpdates calls the replay took
	// (grouped by the batch-commit records of the previous run).
	ReplayedBatches int
	// TornBytes is the size of the torn WAL tail dropped, if any.
	TornBytes int64
}

// SnapshotInfo describes one completed snapshot.
type SnapshotInfo struct {
	Path       string        `json:"path"`
	CoveredSeq uint64        `json:"covered_seq"`
	Bytes      int64         `json:"bytes"`
	Duration   time.Duration `json:"-"`
	DurationMS float64       `json:"duration_ms"`
	// ShardsWritten / ShardsClean split the shard blobs into rewritten
	// and re-referenced (clean since the previous manifest, so their
	// existing verified blobs were reused); SharedWritten reports whether
	// the shared blob was rewritten.
	ShardsWritten int  `json:"shards_written"`
	ShardsClean   int  `json:"shards_clean"`
	SharedWritten bool `json:"shared_written"`
	// Skipped is true when nothing changed since the last snapshot and
	// no file was written.
	Skipped bool `json:"skipped,omitempty"`
}

// Manager owns the serving model, its WAL, and its snapshot/retrain
// schedule. All exported methods are safe for concurrent use.
type Manager struct {
	cfg   Config        //cfsf:immutable
	reg   *obs.Registry //cfsf:immutable
	w     *wal.WAL      //cfsf:immutable
	state atomic.Pointer[modelState]
	boot  BootStats //cfsf:immutable

	mu      sync.Mutex      // guards pending/maxSeq and orders WAL appends with enqueueing
	pending []pendingUpdate //cfsf:guarded-by mu
	maxSeq  uint64          //cfsf:guarded-by mu // highest rating sequence ever enqueued

	kick    chan struct{}
	stopc   chan struct{} // Close: drain then exit
	abortc  chan struct{} // Abort: exit immediately
	done    chan struct{}
	closing atomic.Bool

	snapMu       sync.Mutex  // serialises snapshot writes, retention, and compaction
	snapForce    atomic.Bool // a retrain swapped the model without advancing seq
	lastManifest *manifest   //cfsf:guarded-by snapMu // newest published manifest; clean shards reuse its blob refs
	lastSnap     atomic.Pointer[SnapshotInfo]
	lastCkptSeq  atomic.Uint64 // sequence of the newest checkpoint record (compaction fold boundary)

	dirtyMu    sync.Mutex
	gen        uint64          //cfsf:guarded-by dirtyMu // one per model swap with persistence dirt
	dirtyShard map[int]genSpan //cfsf:guarded-by dirtyMu
	sharedGen  *genSpan        //cfsf:guarded-by dirtyMu // shared blob dirt (conservatively every swap)

	retrainReq   chan string // requested RetrainMode ("" = configured default)
	retrainc     chan retrainResult
	retraining   bool                // run-loop state: a retrain goroutine is in flight
	sinceRetrain []core.RatingUpdate // run-loop state: updates applied while retraining
	driftCount   int                 // run-loop state: updates applied since last full train

	// metrics held once (Registry lookups lock a map)
	mAppendLat   *obs.Histogram
	mApplyLat    *obs.Histogram
	mBatchSize   *obs.Histogram
	mSnapLat     *obs.Histogram
	mRetrainLat  *obs.Histogram
	mApplied     *obs.Counter
	mBatches     *obs.Counter
	mApplyErrs   *obs.Counter
	mQueueFull   *obs.Counter
	mSnapshots   *obs.Counter
	mRetrains    *obs.Counter
	mRetrainErrs *obs.Counter
	mPending     *obs.Gauge
	mApplyLag    *obs.Gauge
}

type retrainResult struct {
	sharded  *core.ShardedModel
	err      error
	duration time.Duration
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
	if cfg.RetrainMode != RetrainShards && cfg.RetrainMode != RetrainFull {
		return nil, fmt.Errorf("lifecycle: unknown retrain mode %q (want %q or %q)",
			cfg.RetrainMode, RetrainShards, RetrainFull)
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
		kick:       make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		abortc:     make(chan struct{}),
		done:       make(chan struct{}),
		retrainReq: make(chan string, 1),
		// Buffered so the retrain goroutine can finish even if the loop
		// is gone (Abort) — it must never block forever on send.
		retrainc:   make(chan retrainResult, 1),
		dirtyShard: map[int]genSpan{},
	}
	m.bindMetrics()
	// Fold boundary until this run's first checkpoint: the highest
	// checkpoint the previous run journaled.
	m.lastCkptSeq.Store(w.Stats().LastCheckpoint)

	if err := m.bootModel(bootstrap); err != nil {
		_ = w.Close()
		return nil, err
	}

	ws := w.Stats()
	m.boot.TornBytes = ws.TornBytes
	m.reg.Counter("wal_torn_bytes_dropped_total").Add(ws.TornBytes)
	m.reg.Counter("wal_replayed_records_total").Add(int64(m.boot.ReplayedRecords))
	m.reg.Counter("wal_replayed_batches_total").Add(int64(m.boot.ReplayedBatches))
	m.publishModelGauges()

	go m.run()
	return m, nil
}

func (m *Manager) bindMetrics() {
	r := m.reg
	m.mAppendLat = r.Histogram("wal_append_latency_ms", nil)
	m.mApplyLat = r.Histogram("lifecycle_apply_latency_ms", nil)
	m.mBatchSize = r.Histogram("lifecycle_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
	m.mSnapLat = r.Histogram("lifecycle_snapshot_duration_ms", nil)
	m.mRetrainLat = r.Histogram("lifecycle_retrain_duration_ms", nil)
	m.mApplied = r.Counter("lifecycle_applied_total")
	m.mBatches = r.Counter("lifecycle_batches_total")
	m.mApplyErrs = r.Counter("lifecycle_apply_errors_total")
	m.mQueueFull = r.Counter("lifecycle_queue_full_total")
	m.mSnapshots = r.Counter("lifecycle_snapshots_total")
	m.mRetrains = r.Counter("lifecycle_retrains_total")
	m.mRetrainErrs = r.Counter("lifecycle_retrain_errors_total")
	m.mPending = r.Gauge("lifecycle_pending")
	m.mApplyLag = r.Gauge("lifecycle_apply_lag")
}

func snapshotDir(dataDir string) string { return filepath.Join(dataDir, "snapshots") }

// genSpan is the generation range over which a persisted part has been
// dirtied and not yet re-persisted: min is a lower bound on the oldest
// uncovered dirt, max the newest.
type genSpan struct{ min, max uint64 }

// markDirty records that the model swap about to be published dirtied
// the given shards (every shard when all is set) plus the shared part,
// and returns the generation the new modelState must carry. Called
// before the corresponding state.Store: a snapshot that reads a state at
// generation g then finds a span with min <= g knows that state's model
// covers the dirt.
func (m *Manager) markDirty(shards []int, all bool, numShards int) uint64 {
	m.dirtyMu.Lock()
	defer m.dirtyMu.Unlock()
	m.gen++
	g := m.gen
	if m.sharedGen == nil {
		m.sharedGen = &genSpan{min: g, max: g}
	} else {
		m.sharedGen.max = g
	}
	mark := func(s int) {
		if sp, ok := m.dirtyShard[s]; ok {
			sp.max = g
			m.dirtyShard[s] = sp
		} else {
			m.dirtyShard[s] = genSpan{min: g, max: g}
		}
	}
	if all {
		for s := 0; s < numShards; s++ {
			mark(s)
		}
	} else {
		for _, s := range shards {
			mark(s)
		}
	}
	return g
}

// dirtyAt returns, ascending, the shards with dirt at or before
// generation g — dirt a model stored at g has folded in — plus whether
// the shared part has such dirt.
func (m *Manager) dirtyAt(g uint64) (shards []int, shared bool) {
	m.dirtyMu.Lock()
	defer m.dirtyMu.Unlock()
	for s, sp := range m.dirtyShard {
		if sp.min <= g {
			shards = append(shards, s)
		}
	}
	sort.Ints(shards)
	return shards, m.sharedGen != nil && m.sharedGen.min <= g
}

// clearDirty discharges dirt at or before generation g (it has been
// persisted); dirt marked after g survives for the next snapshot.
func (m *Manager) clearDirty(g uint64) {
	m.dirtyMu.Lock()
	defer m.dirtyMu.Unlock()
	for s, sp := range m.dirtyShard {
		if sp.max <= g {
			delete(m.dirtyShard, s)
		} else if sp.min <= g {
			sp.min = g + 1
			m.dirtyShard[s] = sp
		}
	}
	if m.sharedGen != nil {
		if m.sharedGen.max <= g {
			m.sharedGen = nil
		} else if m.sharedGen.min <= g {
			m.sharedGen.min = g + 1
		}
	}
}

// legacySnapshotGlob matches the monolithic snapshots that builds before
// the manifest format wrote; PR 12 was the last build that migrated one.
const legacySnapshotGlob = "snap-*.gob"

// tailReplayable reports whether the WAL can still extend a state at
// watermark seq batch-exactly: a contiguous record stream from seq+1 to
// the tail, not deduped above seq (dedupe keeps final cells but destroys
// the batch grouping bit-for-bit replay needs).
func (m *Manager) tailReplayable(seq uint64) error {
	if av := m.w.AvailableFrom(); av > seq+1 {
		return fmt.Errorf("wal starts at seq %d, records from seq %d are gone", av, seq+1)
	}
	if db := m.w.DedupedBelow(); db > seq {
		return fmt.Errorf("wal deduped below seq %d, batch grouping from seq %d is lost", db, seq+1)
	}
	return nil
}

// bootModel establishes the serving model: snapshot or bootstrap, then
// WAL-tail replay grouped by the previous run's batch-commit records.
//
//cfsf:wallclock-ok boot duration recorded in BootStats only; replay regroups batches by journaled commit records, never by time
//cfsf:init-only runs from Open before the manager is returned or the run loop starts
//cfsf:locked mu same: nothing else can touch the manager during boot
func (m *Manager) bootModel(bootstrap func() (*core.Model, error)) error {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("lifecycle: list snapshots: %w", err)
	}
	// Try recovery points newest-first: a manifest that cannot be loaded —
	// torn by the filesystem, or written by a newer build whose wire
	// version this binary rejects — is skipped in favour of the next older
	// one. The WAL needed to catch up from an older point is still present
	// because segments are only pruned (or folded into the compacted base)
	// once a *verified* snapshot covers them; retention prunes in step
	// with the point ladder, so the tailReplayable gate only skips points
	// orphaned by a SnapshotKeep decrease or external file surgery.
	var base *core.Model
	var baseSeq uint64
	hadSnapshot := false
	var bootPatched []int
	for _, pt := range points {
		if err := m.tailReplayable(pt.seq); err != nil {
			m.cfg.Logf("lifecycle: snapshot %s unusable (%v); trying an older one", filepath.Base(pt.path), err)
			continue
		}
		t := time.Now()
		mod, man, patched, lerr := m.loadManifestPoint(pt)
		if lerr != nil {
			m.reg.Counter("lifecycle_snapshot_load_failures_total").Inc()
			m.cfg.Logf("lifecycle: snapshot %s unusable (%v); trying an older one", filepath.Base(pt.path), lerr)
			continue
		}
		m.cfg.Logf("lifecycle: loaded snapshot %s (covers seq %d) in %v",
			filepath.Base(pt.path), pt.seq, time.Since(t).Round(time.Millisecond))
		base, baseSeq, hadSnapshot = mod, pt.seq, true
		bootPatched = patched
		// Boot is single-threaded, but the boot-time Snapshot below reads
		// this under snapMu, so publish it the same way.
		m.snapMu.Lock()
		m.lastManifest = man
		m.snapMu.Unlock()
		m.boot.SnapshotLoaded = pt.path
		m.boot.SnapshotSeq = pt.seq
		break
	}
	if !hadSnapshot {
		// Retraining is only a recovery when nothing acknowledged is lost
		// by it: not the state inside a snapshot this build cannot read,
		// and not ratings the WAL no longer holds — the bootstrap model
		// stands at watermark 0 and passes the same gate as any point.
		dir := snapshotDir(m.cfg.DataDir)
		if legacy, _ := filepath.Glob(filepath.Join(dir, legacySnapshotGlob)); len(legacy) > 0 {
			return fmt.Errorf("lifecycle: %s is a legacy monolithic snapshot and no manifest in %s is loadable: this build reads manifests only — boot the directory once with a build up to PR 12 to migrate it, or move the file away to retrain",
				legacy[0], dir)
		}
		if err := m.tailReplayable(0); err != nil {
			return fmt.Errorf("lifecycle: no loadable snapshot in %s and the bootstrap model cannot stand in for one: %v — retraining would silently drop acknowledged ratings",
				m.cfg.DataDir, err)
		}
		if bootstrap == nil {
			return fmt.Errorf("lifecycle: no loadable snapshot in %s and no bootstrap function", m.cfg.DataDir)
		}
		base, err = bootstrap()
		if err != nil {
			return fmt.Errorf("lifecycle: bootstrap model: %w", err)
		}
	}

	// Replay the tail, regrouping ratings into the batches the previous
	// process applied (see commitQueue). Ratings past the final commit
	// were journaled but possibly never applied; they form one final
	// batch.
	cur := core.NewSharded(base)
	bootDirty := map[int]bool{}
	for _, s := range bootPatched {
		// A patched shard's manifest ref points at the unusable blob; the
		// boot snapshot below must rewrite it.
		bootDirty[s] = true
	}
	markAllBoot := !hadSnapshot
	q := newCommitQueue(baseSeq)
	applyCut := func(covered uint64, shard int) error {
		batch := q.cut(covered, shard)
		if len(batch) == 0 {
			return nil
		}
		next, dirty, err := m.applyUpdates(cur, batch)
		if err != nil {
			return fmt.Errorf("lifecycle: replay batch through seq %d: %w", covered, err)
		}
		if cur.Model().Matrix().HasTimes() != next.Model().Matrix().HasTimes() {
			markAllBoot = true // times flip: every shard blob's wire shape changed
		}
		for _, s := range dirty {
			bootDirty[s] = true
		}
		cur = next
		m.boot.ReplayedBatches++
		return nil
	}
	err = m.w.Replay(baseSeq, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecordRating:
			if q.push(rec.Seq, rec.Update, rec.Shard) {
				m.boot.ReplayedRecords++
			}
		case wal.RecordBatchCommit:
			return applyCut(rec.Covered, rec.Shard)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := applyCut(q.last, -1); err != nil {
		return err
	}

	m.maxSeq = q.watermark()
	var g uint64
	if markAllBoot {
		g = m.markDirty(nil, true, cur.NumShards())
	} else if len(bootDirty) > 0 {
		g = m.markDirty(sortedInts(bootDirty), false, cur.NumShards())
	}
	m.state.Store(&modelState{sharded: cur, seq: m.maxSeq, gen: g})

	// Re-anchor durability: after any replay, a boot from a shard-patched
	// snapshot, or a first boot with no snapshot at all, write a snapshot
	// so the next boot starts from a clean point — and so recovery no
	// longer depends on the bootstrap function reproducing the base model
	// exactly.
	if m.boot.ReplayedRecords > 0 || !hadSnapshot || len(bootPatched) > 0 {
		if _, err := m.Snapshot(); err != nil {
			return fmt.Errorf("lifecycle: boot snapshot: %w", err)
		}
	}
	return nil
}

func sortedInts(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// applyUpdates folds updates into the sharded model, falling back to
// per-update application when the batch fails as a whole so one
// malformed update cannot wedge the log (bad updates are counted and
// dropped). It returns the union of the dirty-shard sets of every apply
// it performed — the fallback path chains several, each carrying only
// its own step's dirt.
func (m *Manager) applyUpdates(sm *core.ShardedModel, updates []core.RatingUpdate) (*core.ShardedModel, []int, error) {
	return applyWithFallback(sm, updates, m.cfg.Logf, m.mApplyErrs)
}

// applyWithFallback is the single apply-a-batch code path shared by the
// leader's lifecycle loop, boot replay, and the follower applier: the
// identical batch-or-per-update semantics on every path is what makes
// crash replay and follower streaming both bit-identical to the live
// process.
func applyWithFallback(sm *core.ShardedModel, updates []core.RatingUpdate, logf func(string, ...any), applyErrs *obs.Counter) (*core.ShardedModel, []int, error) {
	next, err := sm.Apply(updates)
	if err == nil {
		return next, next.DirtyShards(), nil
	}
	logf("lifecycle: batch of %d failed (%v); retrying per update", len(updates), err)
	cur := sm
	dirty := map[int]bool{}
	for _, u := range updates {
		n, uerr := cur.Apply([]core.RatingUpdate{u})
		if uerr != nil {
			applyErrs.Inc()
			logf("lifecycle: dropping unappliable update (%d,%d)=%g: %v", u.User, u.Item, u.Value, uerr)
			continue
		}
		for _, s := range n.DirtyShards() {
			dirty[s] = true
		}
		cur = n
	}
	return cur, sortedInts(dirty), nil
}

// Model returns the currently served model.
func (m *Manager) Model() *core.Model { return m.state.Load().sharded.Model() }

// ShardStats returns the per-shard view of the serving model: user and
// rating counts plus apply/retrain activity for every shard.
func (m *Manager) ShardStats() []core.ShardStats { return m.state.Load().sharded.ShardStats() }

// AppliedSeq returns the contiguous applied watermark: every rating with
// a WAL sequence at or below it is folded into the serving model.
func (m *Manager) AppliedSeq() uint64 { return m.state.Load().seq }

// Pending returns the number of journaled-but-unapplied ratings.
func (m *Manager) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// ApplyLag returns the gap between the newest journaled rating sequence
// and the contiguous applied watermark — how far the serving model trails
// the WAL. 0 means every acknowledged rating is folded in; a value that
// grows without bound under steady traffic means the apply loop cannot
// keep up with the submission rate (the loadgen steady scenario asserts
// it drains).
func (m *Manager) ApplyLag() uint64 {
	st := m.state.Load()
	m.mu.Lock()
	maxSeq := m.maxSeq
	m.mu.Unlock()
	if maxSeq <= st.seq {
		return 0
	}
	return maxSeq - st.seq
}

// BootStats reports how the serving model was reconstructed at Open.
func (m *Manager) BootStats() BootStats { return m.boot }

// WALStats exposes the journal's current shape (segment count, last
// sequence, torn bytes dropped at open).
func (m *Manager) WALStats() wal.OpenStats { return m.w.Stats() }

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
// request — recording the shard each rating routes to, then queues them
// for the next micro-batch. It returns the per-rating WAL sequences (in
// batch order) and the pending count. The batch is all-or-nothing at the
// queue: if it would overflow QueueCapacity, nothing is journaled and
// ErrQueueFull is returned.
//
//cfsf:wallclock-ok append latency feeds the wal_append_ms histogram only
func (m *Manager) SubmitBatch(ups []core.RatingUpdate) (seqs []uint64, pending int, err error) {
	if m.closing.Load() {
		return nil, 0, ErrClosed
	}
	if len(ups) == 0 {
		return nil, m.Pending(), nil
	}
	st := m.state.Load()
	shards := make([]int, len(ups))
	for i, u := range ups {
		shards[i] = st.sharded.ShardOf(u.User)
	}
	m.mu.Lock()
	if len(m.pending)+len(ups) > m.cfg.QueueCapacity {
		m.mu.Unlock()
		m.mQueueFull.Inc()
		return nil, 0, ErrQueueFull
	}
	t := time.Now()
	seqs, err = m.w.AppendRatings(ups, shards)
	if err != nil {
		m.mu.Unlock()
		return nil, 0, err
	}
	m.mAppendLat.Observe(durMS(time.Since(t)))
	for i, u := range ups {
		m.pending = append(m.pending, pendingUpdate{seq: seqs[i], u: u, shard: shards[i]})
	}
	m.maxSeq = seqs[len(seqs)-1]
	pending = len(m.pending)
	m.mu.Unlock()

	m.mPending.Set(float64(pending))
	m.mApplyLag.Set(float64(m.ApplyLag()))
	select {
	case m.kick <- struct{}{}:
	default:
	}
	return seqs, pending, nil
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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
		//cfsf:select-ok only the run loop mutates state, and every apply is journaled with a batch-commit record before the next pick, so replay regroups identically whatever order cases fire
		select {
		case <-m.abortc:
			return
		case <-m.stopc:
			m.applyPending()
			if m.retraining {
				// Let the in-flight retrain finish so its goroutine does
				// not leak; discard the result — Close snapshots the
				// serving model anyway.
				res := <-m.retrainc
				_ = res
			}
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
		case mode := <-m.retrainReq:
			if !m.retraining {
				if mode == "" {
					mode = m.cfg.RetrainMode
				}
				m.startRetrain(mode)
			}
		case res := <-m.retrainc:
			m.finishRetrain(res)
		}
	}
}

// applyPending drains the queue one batch per round. Each round cuts a
// contiguous prefix of the queue — admitting entries from the head until
// one shard would exceed BatchMaxSize — and folds it in a single Apply,
// so every touched shard's rebuild runs inside the same parallel pass
// and a burst confined to one user cluster rebuilds only that shard's
// structures. The served model is swapped once per batch and a
// batch-commit record covering the prefix's last sequence is journaled
// after each swap (shard -1: every queued rating at or below Covered),
// so crash-replay regroups the exact same batches.
//
//cfsf:wallclock-ok apply latency feeds the apply_ms histogram only; batch boundaries come from the queue, not the clock
func (m *Manager) applyPending() {
	for {
		m.mu.Lock()
		if len(m.pending) == 0 {
			m.mu.Unlock()
			m.mPending.Set(0)
			return
		}
		// Stop before the first entry whose shard already contributed a
		// full batch. Contiguity is what makes the commit below cover
		// exactly this batch on replay — no entry inside the prefix is
		// left behind — and every published model a prefix of the log.
		counts := make(map[int]int)
		n := 0
		for _, p := range m.pending {
			if counts[p.shard] >= m.cfg.BatchMaxSize {
				break
			}
			counts[p.shard]++
			n++
		}
		updates := make([]core.RatingUpdate, n)
		for i, p := range m.pending[:n] {
			updates[i] = p.u
		}
		lastSeq := m.pending[n-1].seq
		m.pending = append(m.pending[:0], m.pending[n:]...)
		m.mu.Unlock()

		t := time.Now()
		cur := m.state.Load()
		next, dirty, err := m.applyUpdates(cur.sharded, updates)
		if err != nil {
			// applyUpdates only errors when even per-update fallback is
			// impossible; drop the batch rather than wedge the loop.
			m.mApplyErrs.Add(int64(n))
			m.cfg.Logf("lifecycle: dropping batch of %d: %v", n, err)
			continue
		}
		// A timestamp flip changes every shard blob's wire shape, not just
		// the touched rows — persistence must rewrite them all.
		flip := cur.sharded.Model().Matrix().HasTimes() != next.Model().Matrix().HasTimes()
		g := m.markDirty(dirty, flip, next.NumShards())
		// The watermark trails the oldest still-pending rating and reaches
		// maxSeq once the queue is empty.
		m.mu.Lock()
		st := &modelState{sharded: next, seq: m.maxSeq, gen: g}
		if len(m.pending) > 0 {
			st.seq = m.pending[0].seq - 1
		}
		m.state.Store(st)
		m.mu.Unlock()
		if _, err := m.w.AppendBatchCommit(lastSeq, -1); err != nil {
			m.cfg.Logf("lifecycle: journal batch commit: %v", err)
		}

		m.mApplyLat.Observe(durMS(time.Since(t)))
		m.mBatchSize.Observe(float64(n))
		m.mApplied.Add(int64(n))
		m.mBatches.Inc()
		m.publishModelGauges()

		if m.retraining {
			m.sinceRetrain = append(m.sinceRetrain, updates...)
		}
		m.driftCount += n
		if m.cfg.RetrainAfter > 0 && m.driftCount >= m.cfg.RetrainAfter && !m.retraining {
			m.startRetrain(m.cfg.RetrainMode)
		}
	}
}

// PublishGauges refreshes the registry's model-shape and queue gauges
// (pending depth, apply-lag, applied seq, WAL position) on demand, so a
// /metrics scrape reads current values rather than whatever the last
// submit or apply left behind.
func (m *Manager) PublishGauges() { m.publishModelGauges() }

// publishModelGauges mirrors the served model's shape into the registry.
func (m *Manager) publishModelGauges() {
	st := m.state.Load()
	mx := st.sharded.Model().Matrix()
	m.reg.Gauge("lifecycle_model_users").Set(float64(mx.NumUsers()))
	m.reg.Gauge("lifecycle_model_items").Set(float64(mx.NumItems()))
	m.reg.Gauge("lifecycle_model_ratings").Set(float64(mx.NumRatings()))
	m.reg.Gauge("lifecycle_shards").Set(float64(st.sharded.NumShards()))
	m.reg.Gauge("lifecycle_applied_seq").Set(float64(st.seq))
	m.reg.Gauge("wal_last_seq").Set(float64(m.w.LastSeq()))
	ws := m.w.Stats()
	m.reg.Gauge("wal_segments").Set(float64(ws.Segments))
	m.reg.Gauge("wal_compactions").Set(float64(ws.Compactions))
	m.reg.Gauge("wal_base_records").Set(float64(ws.BaseRecords))
	m.reg.Gauge("wal_base_bytes").Set(float64(ws.BaseBytes))
	m.mPending.Set(float64(m.Pending()))
	m.mApplyLag.Set(float64(m.ApplyLag()))
}

// startRetrain kicks off a background retrain of the current matrix in a
// goroutine; only the run loop calls it, so the captured state and the
// catch-up buffer stay consistent. Mode "shards" rebuilds the shared GIS
// and then re-fits one shard at a time; "full" is a stop-the-world
// core.Train.
//
//cfsf:wallclock-ok retrain duration feeds the retrain_ms histogram only
func (m *Manager) startRetrain(mode string) {
	st := m.state.Load()
	m.retraining = true
	m.sinceRetrain = nil
	m.reg.Gauge("lifecycle_retraining").Set(1)
	m.cfg.Logf("lifecycle: %s retrain started (%d ratings, %d applied since last train)",
		mode, st.sharded.Model().Matrix().NumRatings(), m.driftCount)
	go func() {
		t := time.Now()
		var res retrainResult
		if mode == RetrainFull {
			mod, err := core.Train(st.sharded.Model().Matrix(), st.sharded.Model().Config())
			if err == nil {
				res.sharded = core.NewSharded(mod)
			}
			res.err = err
		} else {
			// Per-shard sweep: fresh GIS first (incremental GIS refreshes
			// leave truncated neighbour lists of unchanged items stale, so
			// the sweep reads repaired similarities), then one Lloyd
			// re-assignment pass per shard.
			sm := st.sharded.RebuildGIS()
			var err error
			for s := 0; s < sm.NumShards() && err == nil; s++ {
				sm, err = sm.RetrainShard(s)
			}
			res.sharded, res.err = sm, err
		}
		res.duration = time.Since(t)
		m.retrainc <- res
	}()
}

// finishRetrain swaps in the retrained model after folding in whatever
// was applied while it trained, then snapshots so the on-disk state
// reflects the fresh clustering.
func (m *Manager) finishRetrain(res retrainResult) {
	m.retraining = false
	m.reg.Gauge("lifecycle_retraining").Set(0)
	catchUp := m.sinceRetrain
	m.sinceRetrain = nil
	if res.err != nil {
		m.mRetrainErrs.Inc()
		m.cfg.Logf("lifecycle: retrain failed: %v", res.err)
		return
	}
	mod := res.sharded
	if len(catchUp) > 0 {
		next, _, err := m.applyUpdates(mod, catchUp)
		if err != nil {
			m.mRetrainErrs.Inc()
			m.cfg.Logf("lifecycle: retrain catch-up failed, keeping old model: %v", err)
			return
		}
		mod = next
	}
	// A retrain re-fits clustering and rebuilds the GIS: every persisted
	// part is stale.
	g := m.markDirty(nil, true, mod.NumShards())
	cur := m.state.Load() // catch-up covered everything applied so far
	m.state.Store(&modelState{sharded: mod, seq: cur.seq, gen: g})
	m.driftCount = 0
	m.mRetrains.Inc()
	m.mRetrainLat.Observe(durMS(res.duration))
	m.publishModelGauges()
	m.cfg.Logf("lifecycle: retrain complete in %v (+%d caught up)", res.duration.Round(time.Millisecond), len(catchUp))
	// The retrained model replaced the serving one at an unchanged WAL
	// seq; force the snapshot so it isn't skipped as already-covered —
	// until it lands, a crash would recover the pre-retrain lineage.
	m.snapForce.Store(true)
	go func() {
		if _, err := m.Snapshot(); err != nil {
			m.cfg.Logf("lifecycle: post-retrain snapshot: %v", err)
		}
	}()
}

// TriggerRetrain requests a background retrain in the given mode
// (RetrainShards, RetrainFull, or "" for the configured default). It
// reports false when the mode is unknown, a request is already queued,
// or a retrain is in flight.
func (m *Manager) TriggerRetrain(mode string) bool {
	if mode != "" && mode != RetrainShards && mode != RetrainFull {
		return false
	}
	if m.closing.Load() || m.Retraining() {
		return false
	}
	select {
	case m.retrainReq <- mode:
		return true
	default:
		return false
	}
}

// Retraining reports whether a retrain is in flight (best effort — the
// run loop owns the authoritative state).
func (m *Manager) Retraining() bool {
	return m.reg.Gauge("lifecycle_retraining").Value() == 1
}

// Snapshot persists the serving model as an incremental recovery point:
// it writes a blob for every shard dirtied since the previous manifest
// (plus the shared config/GIS/clustering blob), re-references the
// previous manifest's blobs for clean shards, verifies every written
// blob with a read-back self-check, and only then publishes the manifest
// atomically, journals a checkpoint record, prunes retention, and
// shrinks the WAL (deleting covered segments, or folding them into the
// compacted base when compaction is enabled) — a blob that cannot be
// read back bit-for-bit aborts the snapshot and never shrinks the WAL.
// When nothing was applied since the last snapshot it returns Skipped
// without touching disk; a non-empty queue never skips it, because the
// served model is always a contiguous prefix of the log.
//
//cfsf:wallclock-ok snapshot duration feeds the snapshot_ms histogram only
func (m *Manager) Snapshot() (SnapshotInfo, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	st := m.state.Load()
	dir := snapshotDir(m.cfg.DataDir)
	// Nothing dirty at an unchanged watermark means the previous manifest
	// still describes the serving model exactly — except right after a
	// retrain, which replaces the model without advancing the WAL seq.
	// snapForce marks that case.
	force := m.snapForce.Swap(false)
	dirty, sharedDirty := m.dirtyAt(st.gen)
	prev := m.lastManifest
	if !force && prev != nil && prev.Seq == st.seq && len(dirty) == 0 && !sharedDirty {
		return SnapshotInfo{Path: filepath.Join(dir, manifestName(st.seq)), CoveredSeq: st.seq, Skipped: true}, nil
	}

	persisted := false
	if force {
		// If this attempt fails, the retrained model is still only in
		// memory — keep the flag so the next snapshot retries.
		defer func() {
			if !persisted {
				m.snapForce.Store(true)
			}
		}()
	}

	t := time.Now()
	mod := st.sharded.Model()
	numShards := st.sharded.NumShards()

	// Decide what to write: every shard when there is no previous
	// manifest to reuse (first manifest, shard-count change) or after a
	// retrain; otherwise only the dirty ones.
	writeAll := force || prev == nil || len(prev.Shards) != numShards
	writeSet := make(map[int]bool, numShards)
	if writeAll {
		for s := 0; s < numShards; s++ {
			writeSet[s] = true
		}
	} else {
		for _, s := range dirty {
			if s < numShards {
				writeSet[s] = true
			}
		}
	}
	sharedWritten := writeAll || sharedDirty

	man := &manifest{
		Version: manifestVersion,
		Seq:     st.seq,
		Users:   mod.Matrix().NumUsers(),
		Items:   mod.Matrix().NumItems(),
		Shards:  make([]shardBlobRef, numShards),
	}
	var written []string // blob files this snapshot created, for cleanup on failure
	var bytesWritten int64
	fail := func(err error) (SnapshotInfo, error) {
		for _, name := range written {
			_ = os.Remove(filepath.Join(dir, name))
		}
		return SnapshotInfo{}, err
	}
	writeBlob := func(base string, save func(f *os.File) error) (string, error) {
		name := uniqueBlobName(dir, base)
		if err := atomicfile.WriteToAndSync(filepath.Join(dir, name), 0o644, save); err != nil {
			return "", err
		}
		written = append(written, name)
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			bytesWritten += fi.Size()
		}
		return name, nil
	}

	if sharedWritten {
		name, err := writeBlob(fmt.Sprintf("%s%016x", sharedBlobPrefix, st.seq),
			func(f *os.File) error { return mod.SaveSharedBlob(f) })
		if err != nil {
			return fail(fmt.Errorf("lifecycle: write shared blob: %w", err))
		}
		man.Shared = blobRef{File: name, Seq: st.seq}
	} else {
		man.Shared = prev.Shared
	}
	shardsWritten := 0
	for s := 0; s < numShards; s++ {
		if !writeSet[s] {
			man.Shards[s] = prev.Shards[s]
			continue
		}
		shard := s
		name, err := writeBlob(fmt.Sprintf("%s%04d-%016x", shardBlobPrefix, s, st.seq),
			func(f *os.File) error { return mod.SaveShardBlob(f, shard) })
		if err != nil {
			return fail(fmt.Errorf("lifecycle: write shard %d blob: %w", s, err))
		}
		man.Shards[s] = shardBlobRef{ID: s, File: name, Seq: st.seq}
		shardsWritten++
	}

	// Self-check before the manifest may reference the new blobs (and so
	// before anything can shrink the WAL): read every written blob back
	// and demand it reproduce the serving model bit-for-bit. Clean
	// shards' blobs passed this check when they were first written.
	if !m.cfg.SkipSnapshotVerify {
		if err := verifyWrittenParts(dir, man, writeSet, sharedWritten, mod); err != nil {
			m.reg.Counter("lifecycle_snapshot_verify_failures_total").Inc()
			return fail(fmt.Errorf("lifecycle: snapshot at seq %d failed self-check: %w", st.seq, err))
		}
		m.reg.Counter("lifecycle_snapshots_verified_total").Inc()
	}

	// Publish: the manifest rename is the commit point. Overwriting the
	// manifest at an unchanged watermark (post-retrain) is safe because
	// the rewritten blobs got fresh names — the old manifest's blob set
	// stays intact until this rename replaces it.
	manPath := filepath.Join(dir, manifestName(st.seq))
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fail(fmt.Errorf("lifecycle: encode manifest: %w", err))
	}
	if err := atomicfile.WriteAndSync(manPath, manData, 0o644); err != nil {
		return fail(fmt.Errorf("lifecycle: publish manifest: %w", err))
	}
	persisted = true
	m.lastManifest = man
	m.clearDirty(st.gen)

	if ckptSeq, err := m.w.AppendCheckpoint(st.seq); err != nil {
		m.cfg.Logf("lifecycle: journal checkpoint: %v", err)
	} else {
		m.lastCkptSeq.Store(ckptSeq)
	}
	m.pruneDurablePoints()
	// Shrink the WAL below the oldest retained point, not below this
	// snapshot: older manifests must keep their tail replay (and their
	// shard blobs their patch window) until retention drops them.
	if m.cfg.CompactEnabled {
		m.compactLocked(false)
	} else if n, err := m.w.Prune(m.oldestRetainedPointSeq()); err != nil {
		m.cfg.Logf("lifecycle: prune wal: %v", err)
	} else if n > 0 {
		m.reg.Counter("wal_segments_pruned_total").Add(int64(n))
	}

	info := SnapshotInfo{
		Path: manPath, CoveredSeq: st.seq, Bytes: bytesWritten, Duration: time.Since(t),
		ShardsWritten: shardsWritten, ShardsClean: numShards - shardsWritten, SharedWritten: sharedWritten,
	}
	info.DurationMS = durMS(info.Duration)
	m.lastSnap.Store(&info)
	m.mSnapshots.Inc()
	m.mSnapLat.Observe(durMS(info.Duration))
	m.reg.Counter("lifecycle_shard_blobs_written_total").Add(int64(shardsWritten))
	m.reg.Counter("lifecycle_shard_blobs_skipped_clean_total").Add(int64(numShards - shardsWritten))
	m.reg.Gauge("lifecycle_snapshot_seq").Set(float64(st.seq))
	m.cfg.Logf("lifecycle: snapshot %s (%d bytes, covers seq %d, %d/%d shard blobs written) in %v",
		filepath.Base(manPath), bytesWritten, st.seq, shardsWritten, numShards, info.Duration.Round(time.Millisecond))
	return info, nil
}

// compactLocked runs one WAL compaction pass under snapMu: fold
// checkpoint-covered segments into the compacted base, deduping below
// the oldest sequence any retained recovery point still needs.
//
//cfsf:locked snapMu the fold boundary and dedupe horizon must not race a snapshot or retention pass
func (m *Manager) compactLocked(force bool) (wal.CompactStats, error) {
	if !force && m.w.Stats().Segments < m.cfg.CompactMinSegments {
		return wal.CompactStats{}, nil
	}
	cs, err := m.w.Compact(m.lastCkptSeq.Load(), m.oldestRetainedSeq(), force)
	if err != nil {
		m.cfg.Logf("lifecycle: compact wal: %v", err)
		return cs, err
	}
	if cs.SegmentsFolded > 0 {
		m.reg.Counter("wal_segments_compacted_total").Add(int64(cs.SegmentsFolded))
		m.reg.Counter("wal_compacted_cells_dropped_total").Add(int64(cs.DroppedCells))
	}
	return cs, nil
}

// Compact runs a WAL compaction pass on demand (the /admin/compact
// endpoint): sealed segments covered by the newest checkpoint fold into
// the compacted base. With force set, the pass runs even below the
// configured segment threshold and rewrites the base alone when no
// segment is foldable (re-deduping under an advanced horizon).
func (m *Manager) Compact(force bool) (wal.CompactStats, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return m.compactLocked(force)
}

// SnapshotStats returns what the most recent non-skipped snapshot wrote
// (zero value before the first one this run).
func (m *Manager) SnapshotStats() SnapshotInfo {
	if p := m.lastSnap.Load(); p != nil {
		return *p
	}
	return SnapshotInfo{}
}

// Close drains the queue (every journaled rating is applied), waits for
// any in-flight retrain, snapshots the final state, and closes the WAL.
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
