package lifecycle

import (
	"fmt"
	"slices"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// pendingUpdate is one journaled rating awaiting its commit.
type pendingUpdate struct {
	seq  uint64
	prev uint64 // the rating sequence taken in before this one (or the base)
	u    core.RatingUpdate
}

// commitQueue regroups a WAL record stream into the batches the writer
// applied: ratings queue in stream order and a batch-commit record cuts
// its batch back out. The replica — boot replay, live drain, follower —
// regroups through it alone, which is what keeps the three bit-identical
// to each other.
type commitQueue struct {
	queued []pendingUpdate // ascending sequence
	last   uint64          // highest rating sequence taken in; starts at the base watermark
}

// newCommitQueue returns an empty queue on top of a state that already
// folds every rating at or below base.
func newCommitQueue(base uint64) commitQueue { return commitQueue{last: base} }

// push queues one journaled rating. A rating at or below the highest
// sequence already taken in (the base state covers it, or a reconnect
// delivered it twice) is dropped and push reports false.
func (q *commitQueue) push(seq uint64, u core.RatingUpdate) bool {
	if seq <= q.last {
		return false
	}
	q.queued = append(q.queued, pendingUpdate{seq: seq, prev: q.last, u: u})
	q.last = seq
	return true
}

// cut removes and returns, in stream order, the batch a commit record
// closes: the queued ratings at or below covered. Appends and commits
// interleave in the log, so ratings of the next batch may already sit
// behind them.
func (q *commitQueue) cut(covered uint64) []core.RatingUpdate {
	n := 0
	for n < len(q.queued) && q.queued[n].seq <= covered {
		n++
	}
	batch := make([]core.RatingUpdate, n)
	for i, p := range q.queued[:n] {
		batch[i] = p.u
	}
	q.queued = slices.Delete(q.queued, 0, n)
	return batch
}

// watermark is the contiguous applied sequence: every rating at or below
// it has been cut. Always the base or a rating's sequence, never that of a
// record in between: leader, boot replay and follower name the same folded
// ratings the same way, so a retrain record can address a state by it.
func (q *commitQueue) watermark() uint64 {
	if len(q.queued) > 0 {
		return q.queued[0].prev
	}
	return q.last
}

// refuseShardCommit rejects a batch commit that closes one shard's
// ratings only, when it would cut a queued rating. Builds before 390be92
// drained one shard at a time and journaled such commits; regrouping them
// needs the rating routing this build no longer keeps, so a log that still
// holds one is refused with the way out rather than folded in a different
// order. One that covers nothing queued changes nothing, as any commit
// that covers nothing does: that is every per-shard commit past the boot
// snapshot the way out writes.
func (q *commitQueue) refuseShardCommit(rec wal.Record) error {
	if rec.Shard < 0 || len(q.queued) == 0 || q.queued[0].seq > rec.Covered {
		return nil
	}
	return fmt.Errorf("lifecycle: batch commit record %d closes shard %d alone, a per-shard commit this build does not regroup: boot the data dir once with a build from 390be92 through 5504ac4; its boot snapshot covers the tail",
		rec.Seq, rec.Shard)
}
