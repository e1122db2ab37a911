package lifecycle

import "cfsf/internal/core"

// pendingUpdate is one journaled rating awaiting its commit.
type pendingUpdate struct {
	seq   uint64
	prev  uint64 // the rating sequence taken in before this one (or the base)
	u     core.RatingUpdate
	shard int // routing decision recorded in the WAL, reused for batching
}

// commitQueue regroups a WAL record stream into the batches the writer
// applied: ratings queue in stream order and a batch-commit record cuts
// its batch back out. The replica (boot replay, live drain, follower) and
// per-shard blob patching all regroup through it, which is what keeps
// them bit-identical to each other.
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
func (q *commitQueue) push(seq uint64, u core.RatingUpdate, shard int) bool {
	if seq <= q.last {
		return false
	}
	q.queued = append(q.queued, pendingUpdate{seq: seq, prev: q.last, u: u, shard: shard})
	q.last = seq
	return true
}

// prefixEnd returns the sequence ending the longest queue prefix in which
// no shard contributes more than maxPerShard ratings — the batch the
// leader's next commit closes. Contiguity is what makes the journaled
// commit cover exactly this batch on replay — no entry inside the prefix
// is left behind — and every published model a prefix of the log. ok is
// false on an empty queue.
func (q *commitQueue) prefixEnd(maxPerShard int) (seq uint64, ok bool) {
	counts := make(map[int]int)
	for _, p := range q.queued {
		if counts[p.shard] >= maxPerShard {
			break
		}
		counts[p.shard]++
		seq, ok = p.seq, true
	}
	return seq, ok
}

// cut removes and returns, in stream order, the batch a commit record
// closes: the queued ratings at or below covered — appends and commits
// interleave in the log, so ratings of the next batch may already sit
// behind them. A commit that carries a shard id (written by builds up to
// PR 12, which drained one shard at a time) closes only the ratings
// routed to that shard; the others stay queued for their own commits.
func (q *commitQueue) cut(covered uint64, shard int) []core.RatingUpdate {
	var batch []core.RatingUpdate
	kept := q.queued[:0]
	for _, p := range q.queued {
		if p.seq <= covered && (shard < 0 || p.shard == shard) {
			batch = append(batch, p.u)
		} else {
			kept = append(kept, p)
		}
	}
	q.queued = kept
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
