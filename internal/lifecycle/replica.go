package lifecycle

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/obs"
	"cfsf/internal/wal"
)

// replicaState is one published serving state: the model and its applied
// watermark, swapped atomically. The model folds in exactly the ratings
// with sequence <= seq — batches are cut as contiguous queue prefixes, so
// every published state can be snapshotted under its seq.
type replicaState struct {
	model *core.Model //cfsf:immutable
	seq   uint64      //cfsf:immutable
	// gen counts the model swaps behind this state and shardGen[s] is the
	// gen of the last swap that dirtied shard s's persisted rows. Every
	// swap dirties the shared part, so gen is also its dirt generation. A
	// snapshot rewrites a blob iff its part's generation here exceeds the
	// gen of the state the previous manifest was written from
	// (snapshotState.snapGen).
	gen      uint64   //cfsf:immutable
	shardGen []uint64 //cfsf:immutable
}

// after builds the state that follows st once a swap to mod has dirtied
// the given shards — every shard when all is set — and, as every swap
// does, the shared part.
func (st *replicaState) after(mod *core.Model, seq uint64, dirty []int, all bool) *replicaState {
	next := &replicaState{model: mod, seq: seq, gen: st.gen + 1, shardGen: make([]uint64, mod.Clusters().K)}
	copy(next.shardGen, st.shardGen)
	for _, s := range dirty {
		next.shardGen[s] = next.gen
	}
	if all {
		for s := range next.shardGen {
			next.shardGen[s] = next.gen
		}
	}
	return next
}

// replica is the one state machine that turns WAL records into a served
// model: it owns the published {model, applied seq} pair and the queue of
// journaled-but-unapplied ratings, and mutates them in two ways only —
// a rating is pushed, a commit through seq N cuts its batch, applies it
// and publishes the result. Boot replay and a follower feed it the
// leader's records; the live leader pushes what it journals and commits
// through the newest rating it queued, then journals that commit — so
// replay, live apply and follower are the same code, not three loops kept
// in step. Pushes may come from any goroutine; commit, reset and feed
// belong to one writer at a time (the manager's run loop or, while that
// cuts nothing, the goroutine folding its retrain record; the follower's
// stream goroutine).
type replica struct {
	logf      func(format string, args ...any) //cfsf:immutable
	applyErrs *obs.Counter                     //cfsf:immutable

	state atomic.Pointer[replicaState]

	// mu guards queue. The leader also holds it across a WAL append, so
	// journal order is queue order.
	mu    sync.Mutex
	queue commitQueue //cfsf:guarded-by mu
}

// reset installs a model that folds every rating at or below seq and
// restarts the queue there (a re-bootstrap lands on a newer snapshot,
// which already folds whatever was queued). The model is what the blobs
// of the manifest it was assembled from hold, except for the shards
// listed in dirty, whose rows were recovered some other way.
func (r *replica) reset(mod *core.Model, seq uint64, dirty []int) {
	r.mu.Lock()
	r.queue = newCommitQueue(seq)
	r.mu.Unlock()
	st := &replicaState{model: mod, seq: seq, shardGen: make([]uint64, mod.Clusters().K)}
	if len(dirty) > 0 {
		st.gen = 1
		for _, s := range dirty {
			st.shardGen[s] = 1
		}
	}
	r.state.Store(st)
}

// commit closes the batch a commit record through seq covered describes
// (see commitQueue.cut), folds it into the model and publishes the result
// under the new watermark, with the shard blobs the batch made stale
// (core.ChangedShards) marked dirty. It returns the batch; a commit that
// covers nothing queued — its ratings were already inside the base state
// — changes nothing.
func (r *replica) commit(covered uint64) []core.RatingUpdate {
	r.mu.Lock()
	batch := r.queue.cut(covered)
	seq := r.queue.watermark()
	r.mu.Unlock()
	if len(batch) == 0 {
		return nil
	}
	cur := r.state.Load()
	next := r.applyWithFallback(cur.model, batch)
	r.state.Store(cur.after(next, seq, core.ChangedShards(cur.model, next, batch), false))
	return batch
}

// feed folds one journaled record: a rating queues, a batch commit cuts
// and applies exactly the writer's batch, a retrain record turns the
// state at its watermark into core.Train of that state's own matrix and
// configuration, anything else (checkpoints old logs hold) carries no
// model state. It reports how many ratings the record queued and how
// many it applied.
//
// Train is a function of matrix and configuration alone, so the watermark
// decides: a state at it trains (to the same model again when a snapshot
// taken there already holds the result), a state past it was built on the
// retrained one and skips the record, and a state short of it — the log
// lost the commits in between — is refused. So is a per-shard commit that
// would cut a queued rating (commitQueue.refuseShardCommit).
//
//cfsf:wallclock-ok retrain duration feeds the log line only
func (r *replica) feed(rec wal.Record) (queued, applied int, err error) {
	switch rec.Type {
	case wal.RecordRating:
		r.mu.Lock()
		if r.queue.push(rec.Seq, rec.Update) {
			queued = 1
		}
		r.mu.Unlock()
	case wal.RecordBatchCommit:
		r.mu.Lock()
		err := r.queue.refuseShardCommit(rec)
		r.mu.Unlock()
		if err != nil {
			return 0, 0, err
		}
		applied = len(r.commit(rec.Covered))
	case wal.RecordRetrain:
		cur := r.state.Load()
		if cur.seq > rec.Covered {
			break
		}
		if cur.seq < rec.Covered {
			return 0, 0, fmt.Errorf("lifecycle: retrain record %d names watermark %d but the log before it only reaches %d", rec.Seq, rec.Covered, cur.seq)
		}
		old := cur.model
		r.logf("lifecycle: retrain started at seq %d (%d ratings)", cur.seq, old.Matrix().NumRatings())
		t := time.Now()
		mod, terr := core.Train(old.Matrix(), old.Config())
		if terr != nil {
			return 0, 0, fmt.Errorf("lifecycle: retrain record %d at seq %d: %w", rec.Seq, cur.seq, terr)
		}
		// Clustering and GIS are rebuilt: every persisted part is stale.
		r.state.Store(cur.after(mod, cur.seq, nil, true))
		r.logf("lifecycle: retrain complete at seq %d in %v (%s)", cur.seq, time.Since(t).Round(time.Millisecond), refitSummary(old, mod))
	}
	return queued, applied, nil
}

// refitSummary says what a retrain built: the GIS's entries and the
// lists selected in push order, then what it did to the clustering:
// K-means iterations, the sweeps that ran and any cycle that stopped them
// (a fit that stopped at its cap, not at a fixed point, is worth seeing),
// and users moved. K-means numbers clusters afresh on every run, so a new
// cluster first inherits the old label most of its members carried.
func refitSummary(old, mod *core.Model) string {
	was, now := old.Clusters(), mod.Clusters()
	overlap := make([]int, now.K*was.K)
	for u, c := range now.Assign {
		overlap[c*was.K+was.Assign[u]]++
	}
	moved := len(now.Assign)
	for c := 0; c < now.K; c++ {
		moved -= slices.Max(overlap[c*was.K : (c+1)*was.K])
	}
	return fmt.Sprintf("GIS %s; %s, %d users changed cluster", mod.Stats().GISSummary(), now.Summary(), moved)
}

// pending returns how many queued ratings await their commit.
func (r *replica) pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queue.queued)
}

// lag returns the gap between the newest queued rating's sequence and
// the applied watermark.
func (r *replica) lag() uint64 {
	st := r.state.Load()
	r.mu.Lock()
	last := r.queue.last
	r.mu.Unlock()
	if last <= st.seq {
		return 0
	}
	return last - st.seq
}

// Model returns the currently served model.
func (m *Manager) Model() *core.Model { return m.rep.state.Load().model }

// AppliedSeq returns the contiguous applied watermark: every rating with
// a WAL sequence at or below it is folded into the serving model.
func (m *Manager) AppliedSeq() uint64 { return m.rep.state.Load().seq }

// Pending returns the number of journaled-but-unapplied ratings.
func (m *Manager) Pending() int { return m.rep.pending() }

// ApplyLag returns the gap between the newest journaled rating sequence
// and the contiguous applied watermark — how far the serving model trails
// the WAL. 0 means every acknowledged rating is folded in; a value that
// grows without bound under steady traffic means the apply loop cannot
// keep up with the submission rate (the loadgen steady scenario asserts
// it drains).
func (m *Manager) ApplyLag() uint64 { return m.rep.lag() }

// applyWithFallback folds a batch into the model, falling back to
// per-update application when the batch fails as a whole so one
// malformed update cannot wedge the log (bad updates are counted and
// dropped).
func (r *replica) applyWithFallback(mod *core.Model, updates []core.RatingUpdate) *core.Model {
	next, err := mod.Apply(updates)
	if err == nil {
		return next
	}
	r.logf("lifecycle: batch of %d failed (%v); retrying per update", len(updates), err)
	for _, u := range updates {
		n, uerr := mod.Apply([]core.RatingUpdate{u})
		if uerr != nil {
			r.applyErrs.Inc()
			r.logf("lifecycle: dropping unappliable update (%d,%d)=%g: %v", u.User, u.Item, u.Value, uerr)
			continue
		}
		mod = n
	}
	return mod
}

// Follower is a read replica's applier: a replica fed a leader's WAL
// records in stream order on top of a bootstrap-assembled model, plus
// the stream cursor and the lag clock. It owns no WAL and no snapshot
// schedule. Reset must install a bootstrap point before anything else is
// used; Reset and Ingest are single-writer (one stream goroutine), the
// read accessors are safe from any goroutine.
type Follower struct {
	rep      replica
	received atomic.Uint64 // stream cursor: highest record sequence ingested (any type)
	oldestAt atomic.Int64  // lag clock: arrival (unix ns) of the oldest still-queued rating

	mApplied *obs.Counter //cfsf:immutable
	mBatches *obs.Counter //cfsf:immutable
}

// NewFollower returns an applier with no model yet.
func NewFollower(reg *obs.Registry, logf func(format string, args ...any)) *Follower {
	return &Follower{
		rep:      replica{logf: logf, applyErrs: reg.Counter("follower_apply_errors_total")},
		mApplied: reg.Counter("follower_applied_total"),
		mBatches: reg.Counter("follower_batches_total"),
	}
}

// Reset installs a freshly bootstrapped model covering every rating with
// sequence <= seq, discarding any queued tail.
func (f *Follower) Reset(mod *core.Model, seq uint64) {
	f.rep.reset(mod, seq, nil)
	f.received.Store(seq)
}

// Ingest folds one streamed WAL record. Records at or below the
// already-ingested position (a reconnect overlap) are skipped. After an
// error only a Reset from a newer bootstrap point continues the stream.
//
//cfsf:wallclock-ok arrival times feed the lag estimate only; apply grouping comes from journaled commit records
func (f *Follower) Ingest(rec wal.Record) error {
	if rec.Seq <= f.received.Load() {
		return nil
	}
	f.received.Store(rec.Seq)
	queued, applied, err := f.rep.feed(rec)
	if queued > 0 && f.rep.pending() == 1 {
		f.oldestAt.Store(time.Now().UnixNano())
	}
	if applied > 0 {
		f.mApplied.Add(int64(applied))
		f.mBatches.Inc()
	}
	return err
}

// Model returns the follower's currently served model.
func (f *Follower) Model() *core.Model { return f.rep.state.Load().model }

// AppliedSeq returns the contiguous applied watermark.
func (f *Follower) AppliedSeq() uint64 { return f.rep.state.Load().seq }

// Cursor returns the stream resume position: the highest record sequence
// already ingested (queued ratings included — they survive a reconnect
// in memory).
func (f *Follower) Cursor() uint64 { return f.received.Load() }

// QueueLen returns how many ingested ratings await their batch commit.
func (f *Follower) QueueLen() int { return f.rep.pending() }

// OldestQueuedAge estimates how long the oldest unapplied rating has
// been waiting (zero with an empty queue) — the wall-clock component of
// replication lag.
//
//cfsf:wallclock-ok lag estimate only; never feeds applied state
func (f *Follower) OldestQueuedAge() time.Duration {
	if f.rep.pending() == 0 {
		return 0
	}
	return time.Since(time.Unix(0, f.oldestAt.Load()))
}
