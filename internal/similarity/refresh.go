package similarity

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Refresh returns a new GIS reflecting an updated matrix in which only
// the listed items' rating columns changed (the paper's §VI future work:
// "how it can keep GIS up-to-date"). changedItems is read as a set: its
// order and repeats do not change the result, and ids outside the
// catalogue are ignored. An Eq. 5 weight depends on its two
// item columns alone, so every pair between unchanged items keeps its
// weight to the bit, and instead of the full O(nnz · row) rebuild it
//
//  1. selects the lists of the changed items from all their candidates,
//     as BuildGIS does, horizon included;
//  2. strips entries pointing at changed items from every unchanged
//     item's list;
//  3. re-inserts the symmetric pairs discovered in step 1 that precede
//     the list's horizon, cuts the list back to TopN and raises the
//     horizon to the best entry the cut or the full list turned away;
//  4. selects again (as in step 1) every unchanged list left with fewer
//     than need entries whose horizon is set: only there can a candidate
//     the list never held belong in the prefix it serves.
//
// Steps 2 and 3 keep the horizon invariant (GIS): an unchanged candidate
// the list does not hold never preceded the old horizon, a changed one
// is held exactly when its new weight precedes it, and the horizon only
// rises to entries the list turns away. So each list is a prefix of its
// item's candidates in canonical order, at least min(need, TopN) long or
// all of them, and its first need entries are bit for bit those of a
// BuildGIS on m with g's options. TopN is the buffer that keeps
// step 4 rare; it does not decide exactness.
//
// Steps 2–4 read only the lists the holder index names for a changed
// item and the lists that gain one; every other list is shared with g,
// array, horizon and holder entries alike, and is not visited: it keeps
// the invariant above, so step 4 has nothing to do there. The index is
// edited from what the steps do (editHolders): a stripped item, a kept
// insertion and the tail a cut turns away, and an id diff of the lists
// steps 1 and 4 select again. Only step 1, the changed items' candidate
// lists, fans out over opts.Workers; the rest is proportional to the
// lists it edits and runs on the calling goroutine.
func (g *GIS) Refresh(m *ratings.Matrix, changedItems []int, need int) *GIS {
	opts := g.opts
	q := m.NumItems()
	if opts.TopN > 0 {
		need = min(need, opts.TopN)
	}
	out := &GIS{neighbors: mathx.Resized(g.neighbors, q), tau: mathx.Resized(g.tau, q), opts: opts}
	var edits holderEdits

	// changed is a pooled dense set rather than a map: steps 2+3 below
	// probe it once per entry of every list they read, and at that volume
	// map overhead dominates the whole refresh. Its marks are cleared
	// before the scratch goes back to the pool.
	sc := refreshScratchPool.Get().(*refreshScratch)
	sc.ready(q)
	changed := sc.changed
	changedIdx := make([]int32, 0, len(changedItems))
	for _, i := range changedItems {
		if i >= 0 && i < q && !changed[i] {
			changed[i] = true
			changedIdx = append(changedIdx, int32(i))
		}
	}
	slices.Sort(changedIdx)

	// Step 1: the changed items' lists, each selected from its full
	// candidate list, and in the same pass over that list the symmetric
	// entries its new weights give unchanged lists: those that precede the
	// list's horizon — the others are candidates the list does not hold,
	// as before. The full list is not limited by TopN, so neither is
	// symmetric insertion in step 3; it lives in the worker's scratch, and
	// rankTop selects the stored list instead of sorting it.
	type symmetric struct {
		list  int32   // the unchanged list gaining the entry
		score float64 // its weight to the changed item sym is indexed by
	}
	sym := make([][]symmetric, len(changedIdx))
	parallel.ForChunked(len(changedIdx), opts.Workers, func(lo, hi int) {
		wsc := refreshScratchPool.Get().(*refreshScratch)
		wsc.ready(q)
		var ed []uint64
		for k := lo; k < hi; k++ {
			i := changedIdx[k]
			full := candidateList(m, int(i), opts, &wsc.cand, wsc.full)
			for _, n := range full {
				if changed[n.Index] {
					continue // changed↔changed pairs are already in both lists
				}
				if e := (mathx.Scored{Index: i, Score: n.Score}); mathx.Precedes(e, g.Horizon(int(n.Index))) {
					sym[k] = append(sym[k], symmetric{list: n.Index, score: n.Score})
				}
			}
			out.neighbors[i], out.tau[i] = selectList(full, opts.TopN)
			wsc.full = rest(full)
			ed = diffHolders(ed, wsc.seen, i, g.list(int(i)), out.neighbors[i])
		}
		putRefreshScratch(wsc, q)
		edits.add(ed)
	})
	delta := 0
	for _, i := range changedIdx {
		delta += len(out.neighbors[i]) - len(g.list(int(i)))
	}

	// The lists steps 2–4 edit, each once, in the order first met: those
	// holding a changed item (the holder index names them; held counts the
	// changed items a list holds) and those gaining a symmetric entry.
	// slot[i] is list i's place in work plus one, marked here and cleared
	// below. Lists are edited independently, so the order changes nothing.
	type edit struct {
		list     int32
		held     int32
		lo, gain int32 // its symmetric entries: gains[lo : lo+gain]
	}
	bound := 0
	for k, c := range changedIdx {
		if int(c) < len(g.holders) {
			bound += len(g.holders[c])
		}
		bound += len(sym[k])
	}
	work := make([]edit, 0, bound)
	slot := sc.slot
	at := func(i int32) *edit {
		if slot[i] == 0 {
			work = append(work, edit{list: i})
			slot[i] = int32(len(work))
		}
		return &work[slot[i]-1]
	}
	for _, c := range changedIdx {
		if int(c) < len(g.holders) {
			for _, i := range g.holders[c] {
				if !changed[i] {
					at(i).held++
				}
			}
		}
	}
	// A counting sort by list makes each list's symmetric entries one run
	// of gains.
	total := 0
	for _, ss := range sym {
		for _, s := range ss {
			at(s.list).gain++
		}
		total += len(ss)
	}
	off := int32(0)
	for k := range work {
		work[k].lo = off
		off += work[k].gain
	}
	gains := make([]mathx.Scored, total)
	fill := make([]int32, len(work))
	for k, ss := range sym {
		for _, s := range ss {
			w := slot[s.list] - 1
			gains[work[w].lo+fill[w]] = mathx.Scored{Index: changedIdx[k], Score: s.score}
			fill[w]++
		}
	}

	// Steps 2–4: edit the lists that hold a changed item or gain one. A
	// scan of a list holding changed items records where they sit in it,
	// and stops at the last. An edited list gets one allocation sized for
	// the merge: the survivors are block-copied around the recorded slots
	// (which preserves sort order), and the symmetric insertions — few,
	// and sorted here — are merged in from the back, moving only the
	// survivors that rank below an insertion. The result is identical to a
	// full sort because survivors and insertions are both ordered by the
	// same strict total order (score desc, index asc) and hold disjoint
	// item ids, so their merge has exactly one outcome.
	var hits []int // positions of changed items in the current list
	var ed []uint64
	reselected := 0
	for _, w := range work {
		i, n := w.list, int(w.held)
		slot[i] = 0
		old, tau := g.list(int(i)), g.Horizon(int(i))
		ins := gains[w.lo : w.lo+w.gain : w.lo+w.gain]
		list, tail := old, []mathx.Scored(nil)
		hits = hits[:0]
		if n > 0 {
			for j, e := range old {
				if changed[e.Index] {
					if hits = append(hits, j); len(hits) == n {
						break
					}
				}
			}
		}
		flen := len(old) - len(hits)
		if len(ins) > 0 && opts.TopN > 0 && flen >= opts.TopN {
			// The list is full: an insertion sorting at or below the
			// last surviving entry cannot make the top-N cut (at least
			// flen ≥ TopN entries precede it), so it is turned away here
			// and the horizon rises to the best such — and in the common
			// case (a re-rating nudges similarities far under every top-N
			// cutoff) that empties ins and leaves the list shared.
			j := len(old) - 1
			for h := len(hits) - 1; h >= 0 && hits[h] == j; h-- {
				j--
			}
			last := old[j]
			kept := ins[:0]
			for _, e := range ins {
				switch {
				case mathx.Precedes(e, last):
					kept = append(kept, e)
				case mathx.Precedes(e, tau):
					tau = e
				}
			}
			ins = kept
		}
		if len(hits) > 0 || len(ins) > 0 {
			list = make([]mathx.Scored, flen+len(ins))
			w, from := 0, 0
			for _, at := range hits {
				w += copy(list[w:], old[from:at])
				from = at + 1
			}
			copy(list[w:], old[from:])
			mathx.SortScoredDesc(ins)
			for a, b := flen-1, len(ins)-1; b >= 0; {
				if a >= 0 && mathx.Precedes(ins[b], list[a]) {
					list[a+b+1] = list[a]
					a--
				} else {
					list[a+b+1] = ins[b]
					b--
				}
			}
			if opts.TopN > 0 && len(list) > opts.TopN {
				// What the cut turns away ranks before every insertion
				// turned away above: those sorted after a full list's
				// last entry.
				tail = list[opts.TopN:]
				list, tau = list[:opts.TopN], list[opts.TopN]
			}
		}
		if len(list) < need && tau != (mathx.Scored{}) {
			// Step 4: candidates the list never held may now belong in
			// its served prefix.
			full := candidateList(m, int(i), opts, &sc.cand, sc.full)
			list, tau = selectList(full, opts.TopN)
			sc.full = rest(full)
			reselected++
			ed = diffHolders(ed, sc.seen, i, old, list)
		} else if len(hits) > 0 || len(ins) > 0 {
			ed = editHolders(ed, i, old, hits, ins, tail, changed)
		}
		delta += len(list) - len(old)
		out.neighbors[i], out.tau[i] = list, tau
	}
	edits.add(ed)
	for _, i := range changedIdx {
		changed[i] = false
	}
	putRefreshScratch(sc, q)
	out.holders = edits.apply(g.holders, q)
	out.reselected = reselected
	out.neighborDelta = delta
	return out
}

// list returns item i's list, nil for an item past g's.
func (g *GIS) list(i int) []mathx.Scored {
	if i < len(g.neighbors) {
		return g.neighbors[i]
	}
	return nil
}

// holderEdits gathers the holder edits of a Refresh from its workers, a
// slice per worker chunk. An edit is one uint64, holderEdit's packing, so
// sorting the edits groups them by item, then by list.
type holderEdits struct {
	mu    sync.Mutex
	parts [][]uint64
}

// holderEdit packs "list i gains (gain) or loses item k".
func holderEdit(k, i int32, gain bool) uint64 {
	e := uint64(k)<<32 | uint64(i)<<1
	if gain {
		e |= 1
	}
	return e
}

func (h *holderEdits) add(ed []uint64) {
	if len(ed) == 0 {
		return
	}
	h.mu.Lock()
	h.parts = append(h.parts, ed)
	h.mu.Unlock()
}

// apply returns the holder index of q items that the edits turn old into.
// A list edits an item only when it gains or loses it, so a row with no
// edit is old's own array and a row with one a fresh array, and old stays
// valid for the GIS that owns it.
func (h *holderEdits) apply(old [][]int32, q int) [][]int32 {
	holders := mathx.Resized(old, q)
	all := slices.Concat(h.parts...)
	slices.Sort(all)
	for a := 0; a < len(all); {
		k := all[a] >> 32
		b := a + 1
		for b < len(all) && all[b]>>32 == k {
			b++
		}
		row, ed := holders[k], all[a:b]
		next := make([]int32, 0, len(row)+len(ed))
		r := 0
		for _, e := range ed {
			i := int32(uint32(e) >> 1)
			j, held := slices.BinarySearch(row[r:], i)
			next = append(next, row[r:r+j]...)
			r += j
			if e&1 == 1 {
				next = append(next, i)
			} else if held {
				r++
			}
		}
		holders[k] = append(next, row[r:]...)
		a = b
	}
	return holders
}

// editHolders appends list i's holder edits for a strip-and-merge edit of
// old (steps 2 and 3). The list keeps the insertions (ins, sorted) the cut
// did not turn away; those it turned away are the tail's changed entries,
// the last of ins. It loses each unchanged entry in the tail and each
// changed item it held (hits are their positions in old) and did not
// keep, and gains each kept insertion it did not hold. A changed item
// stripped and kept again, the common case, is no edit.
func editHolders(ed []uint64, i int32, old []mathx.Scored, hits []int, ins, tail []mathx.Scored, changed []bool) []uint64 {
	cut := 0
	for _, e := range tail {
		if changed[e.Index] {
			cut++
		} else {
			ed = append(ed, holderEdit(e.Index, i, false))
		}
	}
	kept := ins[:len(ins)-cut]
	for _, at := range hits {
		c := old[at].Index
		if !slices.ContainsFunc(kept, func(e mathx.Scored) bool { return e.Index == c }) {
			ed = append(ed, holderEdit(c, i, false))
		}
	}
	for _, e := range kept {
		if !slices.ContainsFunc(hits, func(at int) bool { return old[at].Index == e.Index }) {
			ed = append(ed, holderEdit(e.Index, i, true))
		}
	}
	return ed
}

// diffHolders appends list i's holder edits for a list selected again,
// old → now: a loss for every item old holds and now does not, a gain for
// every item now holds and old did not. seen has a zero cell per item;
// diffHolders marks the cells of now's items and zeroes them again, so
// seen is clean for the next list, and the next Refresh.
func diffHolders(ed []uint64, seen []int32, i int32, old, now []mathx.Scored) []uint64 {
	const inNow, inBoth = 1, 2
	for _, e := range now {
		seen[e.Index] = inNow
	}
	for _, e := range old {
		if seen[e.Index] == inNow {
			seen[e.Index] = inBoth
		} else {
			ed = append(ed, holderEdit(e.Index, i, false))
		}
	}
	for _, e := range now {
		if seen[e.Index] == inNow {
			ed = append(ed, holderEdit(e.Index, i, true))
		}
		seen[e.Index] = 0
	}
	return ed
}

// refreshScratch is one Refresh worker chunk's scratch: the Eq. 5
// accumulation cells of candidateList, the seen marks of diffHolders, and
// the changed-item set and list slots of steps 2–4, Q cells each, and
// full, the buffer an item's full candidate list is drained into. All are
// zero between uses — drain re-zeroes the cells it dirtied, diffHolders
// the ones it marked, Refresh the items and slots it marked, rest the
// candidates — so a pooled scratch carries nothing from one item, or one
// Refresh, to the next.
type refreshScratch struct {
	cand    candidateScratch
	seen    []int32
	changed []bool
	slot    []int32
	full    []mathx.Scored
}

// rest zeroes a full candidate list once it is read and returns its
// buffer, empty, for the next item.
func rest(full []mathx.Scored) []mathx.Scored {
	clear(full)
	return full[:0]
}

// refreshScratchPool recycles Refresh's scratch across Refreshes, which
// would otherwise allocate and zero 41 bytes a catalogue item per worker
// chunk of step 1, and for steps 2–4, on every Apply. Each scratch is handed out to
// exactly one worker chunk at a time, all zero when pooled; every Put goes
// through putRefreshScratch.
var refreshScratchPool = sync.Pool{
	New: func() any { return new(refreshScratch) },
}

// ready grows sc, clean, to at least q cells.
func (sc *refreshScratch) ready(q int) {
	if len(sc.seen) < q {
		sc.cand = *newCandidateScratch(q)
		sc.seen = make([]int32, q)
		sc.changed = make([]bool, q)
		sc.slot = make([]int32, q)
	}
}

// putRefreshScratch returns sc to its pool, first dropping arrays that
// outgrew a q-item catalogue by more than 2×, as core's putRecScratch
// does, so a pooled scratch does not pin a larger model's catalogue.
// Under the race detector it first checks that sc is all zero.
func putRefreshScratch(sc *refreshScratch, q int) {
	if raceEnabled {
		sc.checkClean()
	}
	if len(sc.seen) > 2*q {
		sc.cand, sc.seen, sc.changed, sc.slot, sc.full = candidateScratch{}, nil, nil, nil, nil
	}
	refreshScratchPool.Put(sc)
}

// checkClean panics, naming the first dirty cell, unless sc is all zero:
// no pair sum in any cell, nothing recorded as touched, no seen,
// changed or slot mark, no candidate left in full. A
// cell left dirty would leak into the next item one accumulates. It reads
// only memory its worker owns, so it is left uninstrumented, as core's
// colIndex.checkAtRest is.
//
//go:norace
func (sc *refreshScratch) checkClean() {
	for i, ps := range sc.cand.sums {
		if ps != (pairSums{}) {
			panic(fmt.Sprintf("refreshScratchPool: put with cand.sums[%d] = %+v, want zero", i, ps))
		}
	}
	if n := len(sc.cand.touched); n > 0 {
		panic(fmt.Sprintf("refreshScratchPool: put with %d cells recorded as touched, first %d, want none", n, sc.cand.touched[0]))
	}
	for i, v := range sc.seen {
		if v != 0 {
			panic(fmt.Sprintf("refreshScratchPool: put with seen[%d] = %d, want 0", i, v))
		}
	}
	for i, v := range sc.changed {
		if v {
			panic(fmt.Sprintf("refreshScratchPool: put with changed[%d] set, want clear", i))
		}
	}
	for i, v := range sc.slot {
		if v != 0 {
			panic(fmt.Sprintf("refreshScratchPool: put with slot[%d] = %d, want 0", i, v))
		}
	}
	if len(sc.full) > 0 {
		panic(fmt.Sprintf("refreshScratchPool: put with %d candidates in full, want none", len(sc.full)))
	}
	for i, e := range sc.full[:cap(sc.full)] {
		if e != (mathx.Scored{}) {
			panic(fmt.Sprintf("refreshScratchPool: put with full[%d] = %+v, want zero", i, e))
		}
	}
}

// selectList is a list selected from all of its item's candidates cand,
// as BuildGIS selects it, in an array of its own, with its horizon. cand
// is reordered.
func selectList(cand []mathx.Scored, topN int) ([]mathx.Scored, mathx.Scored) {
	n := topNOrAll(topN, len(cand))
	if n == 0 {
		return nil, mathx.Scored{}
	}
	return rankTop(cand, n, make([]mathx.Scored, 0, n))
}

// candidateScratch is the per-item accumulation state of candidateList
// and accumulateUpper, reused across the items of one worker's chunk.
// Only the cells recorded in touched are dirtied, and drain or reset
// re-zeroes exactly those, so reuse never leaks state between items.
type candidateScratch struct {
	sums    []pairSums
	touched []int32
}

// pairSums are one pair's Eq. 5 sums and co-rating count, kept together
// so an accumulation step touches one cache line, not four.
type pairSums struct {
	sxy, sxx, syy float64
	co            int32
}

func newCandidateScratch(q int) *candidateScratch {
	return &candidateScratch{
		sums:    make([]pairSums, q),
		touched: make([]int32, 0, 256),
	}
}

// candidateList appends item a's full (untruncated) neighbour list on m to
// dst: the Eq. 5 accumulation BuildGIS and Refresh share. The list is in
// accumulation order, not ranked: its callers scatter it into dense
// arrays or rank it separately, and skipping the sort keeps the hot
// incremental-refresh path off the O(n log n) cost of ordering entries
// that truncation would discard anyway.
func candidateList(m *ratings.Matrix, a int, opts GISOptions, sc *candidateScratch, dst []mathx.Scored) []mathx.Scored {
	sums := sc.sums

	ma := m.ItemMean(a)
	for _, ue := range m.ItemRatings(a) {
		u := int(ue.Index)
		var da float64
		if opts.Metric == PCC {
			da = ue.Value - ma
		} else {
			da = ue.Value
		}
		for _, ie := range m.UserRatings(u) {
			b := ie.Index
			if int(b) == a {
				continue
			}
			s := &sums[b]
			if s.co == 0 {
				sc.touched = append(sc.touched, b)
			}
			var db float64
			if opts.Metric == PCC {
				db = ie.Value - m.ItemMean(int(b))
			} else {
				db = ie.Value
			}
			s.sxy += da * db
			s.sxx += da * da
			s.syy += db * db
			s.co++
		}
	}
	return sc.drain(opts, dst)
}

// drain appends to dst, in touched order, every accumulated item whose
// co-rating count and Eq. 5 weight pass opts' filters, and re-zeroes the
// cells it dirtied.
func (sc *candidateScratch) drain(opts GISOptions, dst []mathx.Scored) []mathx.Scored {
	out := slices.Grow(dst, len(sc.touched))
	for _, b := range sc.touched {
		if sim, ok := sc.weight(b, opts); ok {
			out = append(out, mathx.Scored{Index: b, Score: sim})
		}
	}
	sc.reset()
	return out
}

// weight finishes b's accumulation into the Eq. 5 weight every GIS entry
// holds — the co-rating floor, sxy/(√sxx·√syy), Significance, then the
// threshold — and reports whether the pair enters the GIS at all. Only a
// positive weight does: the test is !(sim > 0), which a NaN fails too.
func (sc *candidateScratch) weight(b int32, opts GISOptions) (float64, bool) {
	s := &sc.sums[b]
	n := int(s.co)
	if opts.MinCoRatings > 0 && n < opts.MinCoRatings {
		return 0, false
	}
	if s.sxx == 0 || s.syy == 0 {
		return 0, false
	}
	sim := Significance(s.sxy/(math.Sqrt(s.sxx)*math.Sqrt(s.syy)), n, opts.SignificanceGamma)
	if !(sim > 0) || sim < opts.Threshold {
		return 0, false
	}
	return sim, true
}

// reset re-zeroes the cells the last accumulation dirtied.
func (sc *candidateScratch) reset() {
	for _, b := range sc.touched {
		sc.sums[b] = pairSums{}
	}
	sc.touched = sc.touched[:0]
}
