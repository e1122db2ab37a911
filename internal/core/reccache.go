package core

import (
	"math"
	"slices"
	"sync/atomic"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Per-user recommendation cache. Recommend's exact scan walks the whole
// catalogue (milliseconds); steady-state serving repeats it for the
// same user against a model that an Apply changed only at the margin. The
// cache keeps each served user's top-C ranking and carries it across
// Apply generations, so a warm Recommend is a bounds check plus a copy.
//
// The carry is exact, not approximate: an entry survives an Apply only
// when the copy-on-write sharing of the incremental refresh *proves* the
// user's scores unchanged outside the batch's changed-item set, and those
// items are queued on the entry for lazy re-scoring (repair) at the next
// read. Anything the proof cannot cover — the user's own row, their
// neighbourhood, time decay, a monolithic rebuild — invalidates the entry
// outright, so the cache is only ever bit-identical to the exact path or
// cold, never stale. DESIGN.md §10 states the invariant in full.

// defaultRecCacheSize is the per-user entry capacity when
// Config.RecommendCacheSize is 0: enough to serve the HTTP layer's
// n ≤ 100 ceiling from a complete cached prefix.
const defaultRecCacheSize = 128

// recEntry is one user's cached ranking. Entries are immutable once
// published through the recCache slot; repair builds a replacement.
type recEntry struct {
	// ranked is the top-C prefix of the user's full candidate ranking in
	// canonical order (score desc, id asc), scored on the model
	// generation the entry was built or last repaired against.
	ranked []mathx.Scored //cfsf:cow entries are swapped whole through the recCache slot; repair builds a replacement
	// complete reports that ranked holds *every* eligible item (fewer
	// candidates than capacity), so any n can be served from it.
	complete bool
	// pending is the sorted set of item ids whose scores the carry
	// proofs could not pin since the entry was last scored. A read
	// re-scores exactly these before serving. nil when clean.
	pending []int32 //cfsf:cow same discipline as ranked
	// scanPriced is how many candidates the exact scan that built the
	// entry priced — what a cold read for this user costs, and so the
	// size below which re-scoring the pending items is the cheaper read
	// (repairRecEntry). Repairs and carries keep it.
	scanPriced int32
}

// recCacheCap returns the per-user entry capacity: the configured size,
// defaulted, with negative values disabling the cache entirely.
func (mod *Model) recCacheCap() int {
	switch c := mod.cfg.RecommendCacheSize; {
	case c == 0:
		return defaultRecCacheSize
	case c < 0:
		return 0
	default:
		return c
	}
}

// initRecCache allocates the (cold) per-user cache slots.
//
//cfsf:init-only called by Train, Load, WithUpdates and the shard paths on a model that has not been published yet
func (mod *Model) initRecCache() {
	if mod.recCacheCap() > 0 {
		mod.recCache = make([]atomic.Pointer[recEntry], mod.m.NumUsers())
	}
}

// Cache effectiveness counters, process-wide (the cache rides model
// generations, so per-model counters would reset on every Apply). They
// feed /stats and /metrics; none of them influences model state, so the
// replay guarantee is untouched.
var (
	recCacheHits            atomic.Uint64
	recCacheMisses          atomic.Uint64
	recCacheRepairs         atomic.Uint64
	recCacheRepairFallbacks atomic.Uint64
	recCacheCarried         atomic.Uint64
	recCacheInvalidated     atomic.Uint64
	recScans                atomic.Uint64
	recScanNanos            atomic.Uint64
	recScanItems            atomic.Uint64
	recScanPriced           atomic.Uint64
)

// recCacheInvalidated split by the first carry check the entry failed.
var (
	// The entry's own user changed: their row, mean or cluster
	// (userClean), or they are in the batch.
	recCacheInvalidatedUser atomic.Uint64
	// The like-minded candidate walk yields another id sequence.
	recCacheInvalidatedWalk atomic.Uint64
	// A candidate's row, mean or cluster changed.
	recCacheInvalidatedCandidate atomic.Uint64
	// A candidate's cluster moved a fill cell at an item the user rated,
	// which Eq. 10 reads.
	recCacheInvalidatedCandidateFill atomic.Uint64
)

// RecCacheStats is a snapshot of the process-wide recommendation-cache
// counters.
type RecCacheStats struct {
	// Hits counts Recommend calls served from a cached entry (including
	// ones that repaired the entry first); Misses counts calls that ran
	// the exact scan with the cache enabled.
	Hits, Misses uint64
	// Repairs counts entries healed in place by re-scoring their pending
	// items; RepairFallbacks counts repairs given up for the exact scan:
	// not attempted because no fewer items were pending than the scan
	// that built the entry priced, or abandoned because a repaired score
	// crossed the cached cut-off.
	Repairs, RepairFallbacks uint64
	// Carried counts entries that survived an Apply via the carry proof;
	// Invalidated counts entries an Apply dropped.
	Carried, Invalidated uint64
	// InvalidatedUser, InvalidatedWalk, InvalidatedCandidate and
	// InvalidatedCandidateFill split Invalidated by the first carry check
	// that failed: the user's own row, mean or cluster; a different
	// like-minded candidate walk; a candidate whose row, mean or cluster
	// changed; a candidate whose cluster moved a fill cell at an item the
	// user rated. They sum to Invalidated.
	InvalidatedUser, InvalidatedWalk, InvalidatedCandidate, InvalidatedCandidateFill uint64
	// Scans counts scan-kernel passes — every exact scan and every
	// repair's re-scoring — and ScanNanos their summed wall time, so
	// ScanNanos/Scans is what a read that misses the cache costs.
	Scans, ScanNanos uint64
	// ScanItems counts the candidates handed to those passes and
	// ScanPriced the ones SUIR′ was actually evaluated for, so
	// ScanPriced/ScanItems is the share the bound-and-prune selection
	// (scan.go) could not skip.
	ScanItems, ScanPriced uint64
}

// ReadRecCacheStats returns the current cache counters.
func ReadRecCacheStats() RecCacheStats {
	return RecCacheStats{
		Hits:            recCacheHits.Load(),
		Misses:          recCacheMisses.Load(),
		Repairs:         recCacheRepairs.Load(),
		RepairFallbacks: recCacheRepairFallbacks.Load(),
		Carried:         recCacheCarried.Load(),
		Invalidated:     recCacheInvalidated.Load(),
		Scans:           recScans.Load(),
		ScanNanos:       recScanNanos.Load(),
		ScanItems:       recScanItems.Load(),
		ScanPriced:      recScanPriced.Load(),

		InvalidatedUser:          recCacheInvalidatedUser.Load(),
		InvalidatedWalk:          recCacheInvalidatedWalk.Load(),
		InvalidatedCandidate:     recCacheInvalidatedCandidate.Load(),
		InvalidatedCandidateFill: recCacheInvalidatedCandidateFill.Load(),
	}
}

// sameFloats reports whether two float64 slices are the same array
// region (immutable data ⇒ aliased slices are bit-identical).
func sameFloats(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameScored is sameFloats for Scored rows (matrix rows, topM mirrors).
func sameScored(a, b []mathx.Scored) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// changedFillItems returns the sorted item ids (over the shared
// catalogue prefix) where two fill rows differ bitwise, nil when they
// are identical. Bit comparison rather than == so the rows' NaN
// sentinels compare equal to themselves; aliased rows (Refresh shared
// the array) short-circuit to nil. Ids beyond the shorter row are new
// items, which the carry marks dirty globally.
func changedFillItems(a, b []float64) []int32 {
	n := min(len(a), len(b))
	if n > 0 && &a[0] == &b[0] {
		return nil
	}
	var out []int32
	for i := 0; i < n; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			out = append(out, int32(i))
		}
	}
	return out
}

// recCarry is the per-apply context of one cache carry: the two model
// generations and the precomputed per-cluster fill-row deltas. The fill
// comparison is by content and per cell, not by row pointer: a rating
// change shifts the rater's mean, which perturbs the *global* item
// deviations, and those leak into every cluster's fill row at items the
// cluster does not cover itself — so whole-row comparison (by pointer
// or value) would invalidate nearly every entry on every apply, while
// the actual damage is a handful of columns.
type recCarry struct {
	prev, next *Model
	// fillChanged[c] is the sorted set of item ids where cluster c's
	// Eq. 7 fill row differs between the generations; nil when it is
	// bit-identical. Only meaningful when fillOK.
	fillChanged [][]int32
	// fillDirtyAll is the union of all fillChanged sets: every item at
	// which any cluster's fill value moved.
	fillDirtyAll []int32
	// fillOK reports the fill comparison was possible (smoothing off, or
	// the cluster counts match). When false no user is provably clean.
	fillOK bool
}

func newRecCarry(prev, next *Model) *recCarry {
	cc := &recCarry{prev: prev, next: next}
	if next.cfg.DisableSmoothing {
		cc.fillOK = true // no fill reads anywhere in the predict path
		return cc
	}
	if prev.sm.NumClusters() != next.sm.NumClusters() {
		return cc
	}
	k := next.sm.NumClusters()
	cc.fillOK = true
	cc.fillChanged = make([][]int32, k)
	parallel.For(k, next.cfg.Workers, func(c int) {
		cc.fillChanged[c] = changedFillItems(prev.sm.ClusterFillRow(c), next.sm.ClusterFillRow(c))
	})
	for _, ch := range cc.fillChanged {
		cc.fillDirtyAll = mergeSortedIDs(cc.fillDirtyAll, ch)
	}
	return cc
}

// fillDirtyExpanded closes fillDirtyAll under the predict path's fill
// reads: a changed fill value at item i moves s(u, j) when j = i (SUR′
// reads a neighbour's fill at the active item) or when i sits in j's
// top-M neighbourhood (SIR′/SUIR′ read fills across topM[j]). The
// result is the sorted set of items whose score may have moved for ANY
// user through smoothing alone — a superset per user, computed once per
// apply with one O(Q·M) sweep over the shared topM mirrors.
func (cc *recCarry) fillDirtyExpanded() []int32 {
	if len(cc.fillDirtyAll) == 0 {
		return nil
	}
	next := cc.next
	q := next.m.NumItems()
	mark := make([]bool, q)
	for _, i := range cc.fillDirtyAll {
		if int(i) < q {
			mark[i] = true
		}
	}
	dirty := make([]bool, q)
	parallel.ForChunked(q, next.cfg.Workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if mark[j] {
				dirty[j] = true
				continue
			}
			for _, it := range next.topM[j] {
				if mark[it.Index] {
					dirty[j] = true
					break
				}
			}
		}
	})
	out := make([]int32, 0, len(cc.fillDirtyAll))
	for j := range dirty {
		if dirty[j] {
			out = append(out, int32(j))
		}
	}
	return out
}

// userClean reports that user u's own prediction inputs are provably
// unchanged between the generations: the rating row is the same backing
// array (Upserted shares untouched rows), the user mean is bit-equal,
// and — when smoothing is on — the user kept their cluster, so their
// fill row can differ only at fillChanged columns, all of which the
// carry queues as pending items.
func (cc *recCarry) userClean(u int) bool {
	prev, next := cc.prev, cc.next
	if u >= prev.m.NumUsers() || u >= next.m.NumUsers() {
		return false
	}
	ra := prev.m.UserRatings(u)
	rb := next.m.UserRatings(u)
	if len(ra) != len(rb) || (len(ra) > 0 && &ra[0] != &rb[0]) {
		return false
	}
	if prev.m.UserMean(u) != next.m.UserMean(u) {
		return false
	}
	if !next.cfg.DisableSmoothing {
		if !cc.fillOK || prev.sm.Cluster(u) != next.sm.Cluster(u) {
			return false
		}
	}
	return true
}

// intersectsRatedRow reports whether any of the sorted item ids appears
// in the sorted rating row (one merge pass).
func intersectsRatedRow(ids []int32, row []ratings.Entry) bool {
	j := 0
	for _, id := range ids {
		for j < len(row) && row[j].Index < id {
			j++
		}
		if j < len(row) && row[j].Index == id {
			return true
		}
	}
	return false
}

// selectionClean reports that user u's Eq. 10 like-minded selection is
// provably identical on both generations: the candidate walks produce
// the same id sequence, every candidate is itself clean (row, mean,
// cluster unchanged), and no candidate's cluster changed a fill value
// at an item u rated — Eq. 10 reads the candidate's fill exactly at
// I{u}, so under these checks every similarity, and therefore the
// top-K heap's outcome, is bit-identical. failed is the counter of the
// first check that did not hold, nil when all do. bufA/bufB are reusable
// scratch; the possibly-grown buffers are returned for the next call.
func (cc *recCarry) selectionClean(u int, bufA, bufB []int) (failed *atomic.Uint64, a, b []int) {
	a = cc.prev.gatherCandidates(u, bufA[:0])
	b = cc.next.gatherCandidates(u, bufB[:0])
	if !slices.Equal(a, b) {
		return &recCacheInvalidatedWalk, a, b
	}
	rowU := cc.next.m.UserRatings(u)
	for _, c := range a {
		if !cc.userClean(c) {
			return &recCacheInvalidatedCandidate, a, b
		}
		if len(cc.fillChanged) > 0 {
			if ch := cc.fillChanged[cc.next.sm.Cluster(c)]; len(ch) > 0 && intersectsRatedRow(ch, rowU) {
				return &recCacheInvalidatedCandidateFill, a, b
			}
		}
	}
	return nil, a, b
}

// recDirtyItems returns the sorted set of item ids whose Recommend score
// can differ between prev and next for a *clean* user: the batch's
// changed items (new columns, new support, new item means, refreshed GIS
// lists) plus any item whose id-sorted top-M mirror was rebuilt rather
// than shared (a defensive superset — buildTopM only re-derives rows
// whose GIS prefix changed) plus every item beyond the old catalogue.
func recDirtyItems(prev, next *Model, itemList []int) []int32 {
	oldQ, newQ := prev.m.NumItems(), next.m.NumItems()
	dirty := make([]int32, 0, len(itemList)+(newQ-oldQ)+8)
	for _, i := range itemList {
		dirty = append(dirty, int32(i))
	}
	shared := oldQ
	if newQ < shared {
		shared = newQ
	}
	for j := 0; j < shared; j++ {
		if !sameScored(prev.topM[j], next.topM[j]) || !sameFloats(prev.topM2[j], next.topM2[j]) {
			dirty = append(dirty, int32(j))
		}
	}
	for j := oldQ; j < newQ; j++ {
		dirty = append(dirty, int32(j))
	}
	slices.Sort(dirty)
	return slices.Compact(dirty)
}

// mergeSortedIDs returns the sorted union of two sorted id sets.
func mergeSortedIDs(a, b []int32) []int32 {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// carryRecCache moves prev's cache entries onto next where the
// copy-on-write proofs allow it. userList and itemList are the apply's
// sorted changed-user and changed-item sets (the same lists the refresh
// passes consume). A changed user's entry is dropped outright; an
// unchanged user keeps their entry — with the apply's dirty items queued
// for lazy repair — iff the user and their entire candidate set are
// clean. Everything about the decision is pointer/value comparison over
// immutable structures, so the walk is cheap (O(candidates) per entry)
// and deterministic.
//
// Soundness: for a user who passes the checks, every Predict input —
// their row and mean; the candidate walk, every candidate's row, mean
// and the fill cells Eq. 10 reads (hence the selection); the rating
// scale; the decay (nil on this path) — is bit-identical on prev and
// next, so s(u, j) can change only through the item side: topM/topM2
// rows, item columns, item means, eligibility (rated/zero-support), or
// a changed fill cell reaching j's local matrix. The first four are
// pinned outside recDirtyItems; the last outside fillDirtyExpanded.
//
//cfsf:init-only called on a model that has not been published yet
func (next *Model) carryRecCache(prev *Model, userList, itemList []int) {
	if next.recCacheCap() <= 0 || next.recCache == nil || prev.recCache == nil {
		return
	}
	if prev.decay != nil || next.decay != nil {
		return // recency weights: nothing is provably stable
	}
	if prev.m.MinRating() != next.m.MinRating() || prev.m.MaxRating() != next.m.MaxRating() {
		return
	}
	cc := newRecCarry(prev, next)
	dirty := mergeSortedIDs(recDirtyItems(prev, next, itemList), cc.fillDirtyExpanded())
	n := len(prev.recCache)
	if n > len(next.recCache) {
		n = len(next.recCache)
	}
	parallel.ForChunked(n, next.cfg.Workers, func(lo, hi int) {
		var bufA, bufB []int
		for u := lo; u < hi; u++ {
			e := prev.recCache[u].Load()
			if e == nil {
				continue
			}
			failed := &recCacheInvalidatedUser
			if _, isChanged := slices.BinarySearch(userList, u); !isChanged && cc.userClean(u) {
				failed, bufA, bufB = cc.selectionClean(u, bufA, bufB)
			}
			if failed != nil {
				recCacheInvalidated.Add(1)
				failed.Add(1)
				continue
			}
			carried := e
			if pending := mergeSortedIDs(e.pending, dirty); len(pending) > 0 {
				carried = &recEntry{ranked: e.ranked, complete: e.complete, pending: pending, scanPriced: e.scanPriced}
			}
			next.recCache[u].Store(carried)
			recCacheCarried.Add(1)
		}
	})
}

// repairRecEntry heals a carried entry against the current model by
// re-scoring exactly its pending items through the scan kernel. It
// returns the repaired entry, or nil when the caller must run the exact
// scan instead: either the repair cannot prove the cached ranking's
// boundary held (a repaired score crossed the cached cut-off), or no
// fewer items are pending than the scan that built the entry priced. A
// repair prices every pending item, the exact scan only the candidates
// that can reach the selection (scoreTop), so from there on the scan is
// the cheaper read and the repair is not attempted. Under smoothing that
// is the usual case: a single rating moves a few dozen fill columns, and
// their closure through the top-M neighbourhoods (fillDirtyExpanded)
// covers nearly every item.
//
// Exactness: for every item outside pending the entry's cached score is
// the current model's score (the carry proof), and eligibility can only
// have changed for pending items (the user's rated set is fixed — a
// rating change drops the entry — and support never reverts to zero).
// For a complete entry the repaired list *is* the full ranking. For a
// truncated entry the stored cut (the old last element) bounds every
// unlisted item: each was strictly below it and kept its score, so if at
// least len(ranked) repaired elements still rank at-or-above the cut, no
// outsider can have entered the prefix and the repaired head is exact;
// otherwise the boundary may have been crossed and the repair reports
// failure.
func (mod *Model) repairRecEntry(user int, e *recEntry) *recEntry {
	q := mod.m.NumItems()
	if len(e.pending) >= int(e.scanPriced) {
		recCacheRepairFallbacks.Add(1)
		return nil
	}
	row := mod.m.UserRatings(user)
	rescored := make([]mathx.Scored, 0, len(e.pending))
	for _, j := range e.pending {
		i := int(j)
		if i >= q || len(mod.m.ItemRatings(i)) == 0 {
			continue
		}
		if _, rated := slices.BinarySearchFunc(row, j, func(en ratings.Entry, id int32) int {
			if en.Index < id {
				return -1
			}
			if en.Index > id {
				return 1
			}
			return 0
		}); rated {
			continue
		}
		rescored = append(rescored, mathx.Scored{Index: j})
	}
	sc := recScratchPool.Get().(*recScratch)
	mod.scoreCandidates(user, rescored, sc)
	putRecScratch(sc, q, mod.cfg.K)
	merged := make([]mathx.Scored, 0, len(e.ranked)+len(rescored))
	for _, s := range e.ranked {
		if _, isPending := slices.BinarySearch(e.pending, s.Index); !isPending {
			merged = append(merged, s)
		}
	}
	merged = append(merged, rescored...)
	mathx.SortScoredDesc(merged)

	if e.complete || len(e.ranked) == 0 {
		c := mod.recCacheCap()
		complete := len(merged) <= c
		if !complete {
			merged = merged[:c]
		}
		recCacheRepairs.Add(1)
		return &recEntry{ranked: merged, complete: complete, scanPriced: e.scanPriced}
	}
	cut := e.ranked[len(e.ranked)-1]
	keep := len(e.ranked)
	atOrAbove := 0
	for atOrAbove < len(merged) && !mathx.Precedes(cut, merged[atOrAbove]) {
		atOrAbove++
	}
	if atOrAbove < keep {
		recCacheRepairFallbacks.Add(1)
		return nil
	}
	recCacheRepairs.Add(1)
	return &recEntry{ranked: merged[:keep:keep], complete: false, scanPriced: e.scanPriced}
}
