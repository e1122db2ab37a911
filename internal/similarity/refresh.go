package similarity

import (
	"math"
	"slices"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Refresh returns a new GIS reflecting an updated matrix in which only
// the listed items' rating columns changed (the paper's §VI future work:
// "how it can keep GIS up-to-date"). Instead of the full O(nnz · row)
// rebuild, it
//
//  1. recomputes the neighbour lists of the changed items from scratch,
//  2. strips entries pointing at changed items from every unchanged
//     item's list, and
//  3. re-inserts the symmetric pairs discovered in step 1.
//
// The result is identical to a full BuildGIS when TopN is 0 (no
// truncation). With truncation, an unchanged item's list can temporarily
// hold fewer than TopN entries: neighbours that the old truncation
// discarded cannot be resurrected without touching the full matrix. That
// is the standard staleness trade-off of incremental similarity indices;
// run a full rebuild periodically to re-fill.
func (g *GIS) Refresh(m *ratings.Matrix, changedItems []int, opts GISOptions) *GIS {
	// changed and symmetric are dense, index-by-item structures rather
	// than maps: steps 2+3 below probe them once per stored neighbour
	// entry, and at that volume map overhead dominates the whole refresh.
	q := m.NumItems()
	changed := make([]bool, q)
	for _, i := range changedItems {
		if i >= 0 && i < q {
			changed[i] = true
		}
	}
	out := &GIS{neighbors: make([][]mathx.Scored, q), opts: opts}

	// Step 1: full candidate lists (untruncated) for changed items, so
	// symmetric insertion in step 3 is not limited by TopN. Only the
	// stored per-item list needs ranking; the symmetric pass consumes the
	// full list in any order, so mathx.SelectTopScored picks instead of sorting the
	// whole candidate set.
	changedIdx := make([]int32, 0, len(changedItems))
	for i := int32(0); int(i) < q; i++ {
		if changed[i] {
			changedIdx = append(changedIdx, i)
		}
	}

	lists := make([][]mathx.Scored, len(changedIdx))
	parallel.ForChunked(len(changedIdx), opts.Workers, func(lo, hi int) {
		scratch := newCandidateScratch(q)
		for k := lo; k < hi; k++ {
			i := int(changedIdx[k])
			lists[k] = candidateList(m, i, opts, scratch, nil)
			out.neighbors[i] = mathx.SelectTopScored(lists[k], opts.TopN)
		}
	})

	// Step 3 preparation: symmetric entries grouped by unchanged item.
	symmetric := make([][]mathx.Scored, q)
	for k, i := range changedIdx {
		for _, n := range lists[k] {
			if changed[n.Index] {
				continue // changed↔changed pairs are already in both lists
			}
			symmetric[n.Index] = append(symmetric[n.Index], mathx.Scored{Index: i, Score: n.Score})
		}
	}

	// Steps 2+3: edit the unchanged lists (parallel over items). One scan
	// of a list records where the changed items sit in it; a list holding
	// none and gaining none shares its old backing array outright. Any
	// other list gets one allocation sized for the merge: the survivors
	// are block-copied around the recorded slots (which preserves sort
	// order), and the symmetric insertions — few, and sorted here — are
	// merged in from the back, moving only the survivors that rank below
	// an insertion. The result is identical to a full sort because
	// survivors and insertions are both ordered by the same strict total
	// order (score desc, index asc) and hold disjoint item ids, so their
	// merge has exactly one outcome.
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		var hits []int // positions of changed items in the current list
		for i := lo; i < hi; i++ {
			if changed[i] {
				continue
			}
			var old []mathx.Scored
			if i < len(g.neighbors) {
				old = g.neighbors[i]
			}
			hits = hits[:0]
			for j, n := range old {
				if changed[n.Index] {
					hits = append(hits, j)
				}
			}
			flen := len(old) - len(hits)
			ins := symmetric[i]
			if len(ins) > 0 && opts.TopN > 0 && flen >= opts.TopN {
				// The list is full: an insertion sorting at or below the
				// last surviving entry cannot make the top-N cut (at
				// least flen ≥ TopN entries precede it), so dropping it
				// here changes nothing — and in the common case (a
				// re-rating nudges similarities far under every top-N
				// cutoff) it empties ins and leaves the list shared.
				j := len(old) - 1
				for h := len(hits) - 1; h >= 0 && hits[h] == j; h-- {
					j--
				}
				last := old[j]
				kept := ins[:0]
				for _, e := range ins {
					if mathx.Precedes(e, last) {
						kept = append(kept, e)
					}
				}
				ins = kept
			}
			if len(hits) == 0 && len(ins) == 0 {
				out.neighbors[i] = truncate(old, opts.TopN)
				continue
			}
			cp := make([]mathx.Scored, flen+len(ins))
			w, from := 0, 0
			for _, at := range hits {
				w += copy(cp[w:], old[from:at])
				from = at + 1
			}
			copy(cp[w:], old[from:])
			mathx.SortScoredDesc(ins)
			for a, b := flen-1, len(ins)-1; b >= 0; {
				if a >= 0 && mathx.Precedes(ins[b], cp[a]) {
					cp[a+b+1] = cp[a]
					a--
				} else {
					cp[a+b+1] = ins[b]
					b--
				}
			}
			out.neighbors[i] = truncate(cp, opts.TopN)
		}
	})
	return out
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

func truncate(list []mathx.Scored, topN int) []mathx.Scored {
	if topN > 0 && len(list) > topN {
		list = list[:topN]
	}
	return list
}
