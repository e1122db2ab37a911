// Package similarity implements the similarity functions of the CFSF
// paper — Pearson Correlation Coefficient (Eq. 5 for items, Eq. 6 for
// users) and the Pure Cosine Similarity it is compared against — plus the
// parallel construction of the Global Item Similarity matrix (GIS,
// paper §IV-B): thresholded, truncated to top-N neighbours per item and
// sorted in descending similarity order.
package similarity

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Metric selects the similarity function.
type Metric int

const (
	// PCC is the Pearson Correlation Coefficient centred on the global
	// mean of each vector (item mean for items, user mean for users), as
	// in Eq. 5/6 of the paper.
	PCC Metric = iota
	// Cosine is the Pure Cosine Similarity (PCS) the paper rejects for
	// the GIS because it ignores rating-style diversity. Kept as an
	// ablation (DESIGN.md §5).
	Cosine
)

func (m Metric) String() string {
	switch m {
	case PCC:
		return "pcc"
	case Cosine:
		return "cosine"
	default:
		return "unknown"
	}
}

// ItemPCC computes Eq. 5: the Pearson correlation between items a and b
// over the users who rated both, each rating centred on its item's mean.
// It returns the similarity and the co-rating count; similarity is 0 when
// either centred vector has no variance or there are no co-ratings.
func ItemPCC(m *ratings.Matrix, a, b int) (sim float64, co int) {
	ma, mb := m.ItemMean(a), m.ItemMean(b)
	var sxy, sxx, syy float64
	m.CoRatingUsers(a, b, func(_ int32, ra, rb float64) {
		da, db := ra-ma, rb-mb
		sxy += da * db
		sxx += da * da
		syy += db * db
		co++
	})
	if sxx == 0 || syy == 0 {
		return 0, co
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy)), co
}

// ItemCosine computes the pure cosine similarity between items a and b
// over co-rating users.
func ItemCosine(m *ratings.Matrix, a, b int) (sim float64, co int) {
	var sxy, sxx, syy float64
	m.CoRatingUsers(a, b, func(_ int32, ra, rb float64) {
		sxy += ra * rb
		sxx += ra * ra
		syy += rb * rb
		co++
	})
	if sxx == 0 || syy == 0 {
		return 0, co
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy)), co
}

// UserPCC computes Eq. 6: the Pearson correlation between users a and b
// over the items both rated, each rating centred on its user's mean.
func UserPCC(m *ratings.Matrix, a, b int) (sim float64, co int) {
	ma, mb := m.UserMean(a), m.UserMean(b)
	var sxy, sxx, syy float64
	m.CoRatedItems(a, b, func(_ int32, ra, rb float64) {
		da, db := ra-ma, rb-mb
		sxy += da * db
		sxx += da * da
		syy += db * db
		co++
	})
	if sxx == 0 || syy == 0 {
		return 0, co
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy)), co
}

// UserCosine computes the pure cosine similarity between users a and b
// over co-rated items.
func UserCosine(m *ratings.Matrix, a, b int) (sim float64, co int) {
	var sxy, sxx, syy float64
	m.CoRatedItems(a, b, func(_ int32, ra, rb float64) {
		sxy += ra * rb
		sxx += ra * ra
		syy += rb * rb
		co++
	})
	if sxx == 0 || syy == 0 {
		return 0, co
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy)), co
}

// Significance devalues similarities supported by fewer than gamma
// co-ratings: sim × min(co, gamma)/gamma. gamma <= 0 disables weighting.
// (Used by the EMDP baseline and available as a GIS option.)
func Significance(sim float64, co, gamma int) float64 {
	if gamma <= 0 || co >= gamma {
		return sim
	}
	return sim * float64(co) / float64(gamma)
}

// GISOptions configures BuildGIS.
type GISOptions struct {
	// Metric selects PCC (paper default) or Cosine (ablation).
	Metric Metric
	// TopN keeps at most this many neighbours per item (0 = keep all that
	// pass the filters). The paper sorts GIS descending and picks the top
	// M at prediction time, so TopN must be >= the largest M used online.
	// It is a buffer, not what keeps the served prefix exact: every list
	// carries a horizon (GIS.Horizon) below which it holds every
	// candidate, and Refresh re-selects a list that shrinks under the
	// prefix it must serve. A longer buffer makes re-selection rarer and
	// every Refresh, snapshot and list copy dearer.
	TopN int
	// Threshold drops neighbours with similarity < Threshold (the paper
	// "sets thresholds for Eq. 5 to filter less important items"). Only
	// positive correlations ever enter the GIS.
	Threshold float64
	// MinCoRatings drops neighbour pairs supported by fewer co-rating
	// users than this (0 = no minimum).
	MinCoRatings int
	// SignificanceGamma, if > 0, applies Significance weighting.
	SignificanceGamma int
	// Workers bounds the parallelism of the build (<= 0 = GOMAXPROCS).
	Workers int
}

// DefaultGISOptions returns the configuration used by the paper's
// experiments: PCC, all positive neighbours kept up to 110 per item —
// the paper's M = 95 plus the buffer that minimised the cost of an
// incremental update on the ledger fixture (DESIGN §7).
func DefaultGISOptions() GISOptions {
	return GISOptions{Metric: PCC, TopN: 110, Threshold: 0, MinCoRatings: 2}
}

// GIS is the Global Item Similarity matrix: for every item, its
// neighbours sorted by descending similarity. Immutable and safe for
// concurrent use after construction.
//
// Every list carries a horizon τ, an entry under mathx.Precedes: the list
// holds exactly those of its item's candidates — the pairs that pass the
// filters, at their weights on the matrix — that precede τ. The zero τ,
// which every candidate precedes (weights are positive), marks a list
// holding all of them. So a list is a prefix of its item's candidates in
// canonical order, whatever TopN cut it to.
//
// Every GIS also keeps the inverse of its lists: holders[k] are the ids
// of the lists that hold item k, ascending. Refresh reads it to find the
// lists a changed item sits in without reading every list. It is never
// persisted: every constructor derives it from the lists (deriveHolders)
// and Refresh edits it, copy-on-write, from the edits it makes.
type GIS struct {
	neighbors [][]mathx.Scored
	tau       []mathx.Scored
	holders   [][]int32
	opts      GISOptions
	// reselected counts the lists the Refresh that made this GIS selected
	// again from their candidates, and neighborDelta how many entries that
	// Refresh added to all lists, less those it dropped; both are 0 for a
	// GIS from any other constructor.
	reselected    int
	neighborDelta int
}

// Neighbors returns item i's neighbour list, sorted by descending
// similarity (ties by ascending item id). The slice is shared: callers
// must not modify it.
func (g *GIS) Neighbors(i int) []mathx.Scored { return g.neighbors[i] }

// Horizon returns item i's horizon τ: no candidate the list does not
// hold precedes it, and every one it holds does. The zero value means
// the list holds every candidate.
func (g *GIS) Horizon(i int) mathx.Scored {
	if i < len(g.tau) {
		return g.tau[i]
	}
	return mathx.Scored{}
}

// NumItems returns the number of items the GIS covers.
func (g *GIS) NumItems() int { return len(g.neighbors) }

// Options returns the options the GIS was built with.
func (g *GIS) Options() GISOptions { return g.opts }

// Reselected returns how many lists the Refresh that returned g selected
// again from their item's candidates, because fewer entries than the
// prefix it had to keep exact were left above the horizon. It is 0 for a
// GIS that was built or loaded.
func (g *GIS) Reselected() int { return g.reselected }

// NeighborDelta returns TotalNeighbors of the GIS Refresh was called on
// subtracted from g's: what an Apply adds to its receiver's count instead
// of counting every list again. It is 0 for a GIS that was built or
// loaded.
func (g *GIS) NeighborDelta() int { return g.neighborDelta }

// Sim returns the similarity between items a and b if b is among a's
// retained neighbours.
func (g *GIS) Sim(a, b int) (float64, bool) {
	for _, n := range g.neighbors[a] {
		if int(n.Index) == b {
			return n.Score, true
		}
	}
	return 0, false
}

// TotalNeighbors returns the number of stored (item, neighbour) pairs,
// i.e. the memory footprint of the GIS in entries.
func (g *GIS) TotalNeighbors() int {
	n := 0
	for _, l := range g.neighbors {
		n += len(l)
	}
	return n
}

// BuildGIS constructs the Global Item Similarity matrix in parallel, at
// one Eq. 5 accumulation per item pair.
//
// Item a walks its raters in ascending user order (the ItemRatings
// contract) and, in each rater's row, only the items b > a
// (upperCandidates). The weight it gets for (a, b) is bit for bit the
// one b's own walk would get for (b, a): both add the same products
// da·db in the same user order, and sxx and syy only trade places inside
// √sxx·√syy, a commutative product. So every pair is accumulated once,
// half the work of a walk per item over whole rows, and a pair that
// passes the filters becomes a candidate of both its items. Each item
// then ranks its candidates (rankTop), keeping the best one it leaves out
// as the list's horizon, and the lists are carved from one slab sized
// before they are filled.
func BuildGIS(m *ratings.Matrix, opts GISOptions) *GIS { return buildGIS(m, opts, nil) }

// buildGIS is BuildGIS, or, given a horizon for every item, the GIS those
// horizons bound: item i's list is every candidate that precedes tau[i]
// (all of them under the zero τ), in mathx.Precedes order, and its horizon
// tau[i]. That is the one way a GIS is selected again from stored state
// (FromSnapshot). Under horizons a pair is kept past its accumulation only
// if one of its two lists holds it, which on the ledger fixture halves
// what the later passes move.
func buildGIS(m *ratings.Matrix, opts GISOptions, tau []mathx.Scored) *GIS {
	q := m.NumItems()
	centred := centredRows(m, opts.Metric)

	upper := make([][]mathx.Scored, q)
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		sc := newCandidateScratch(q)
		var list []mathx.Scored
		for a := lo; a < hi; a++ {
			list = upperCandidates(m, centred, a, opts, sc, list[:0])
			if tau != nil {
				// A pair goes on if either of its lists holds it.
				list = slices.DeleteFunc(list, func(e mathx.Scored) bool {
					return !mathx.Precedes(e, tau[a]) && !mathx.Precedes(mathx.Scored{Index: int32(a), Score: e.Score}, tau[e.Index])
				})
			}
			if len(list) > 0 {
				upper[a] = slices.Clone(list)
			}
		}
	})

	// lower[lowerOff[b]:lowerOff[b+1]] are b's candidates a < b: the upper
	// lists transposed, in ascending a.
	lowerOff := make([]int, q+1)
	for _, l := range upper {
		for _, e := range l {
			lowerOff[e.Index+1]++
		}
	}
	for b := 0; b < q; b++ {
		lowerOff[b+1] += lowerOff[b]
	}
	lower := make([]mathx.Scored, lowerOff[q])
	next := slices.Clone(lowerOff[:q])
	for a, l := range upper {
		for _, e := range l {
			lower[next[e.Index]] = mathx.Scored{Index: int32(a), Score: e.Score}
			next[e.Index]++
		}
	}

	// off[i+1] is first the length of item i's list, then, summed, where
	// the next list starts in the slab.
	off := make([]int, q+1)
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if tau == nil {
				off[i+1] = topNOrAll(opts.TopN, len(upper[i])+lowerOff[i+1]-lowerOff[i])
				continue
			}
			for _, part := range [2][]mathx.Scored{lower[lowerOff[i]:lowerOff[i+1]], upper[i]} {
				for _, e := range part {
					if mathx.Precedes(e, tau[i]) {
						off[i+1]++
					}
				}
			}
		}
	})
	for i := 0; i < q; i++ {
		off[i+1] += off[i]
	}
	slab := make([]mathx.Scored, off[q])
	g := &GIS{neighbors: make([][]mathx.Scored, q), tau: tau, opts: opts}
	if tau == nil {
		g.tau = make([]mathx.Scored, q)
	}
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		var cand []mathx.Scored
		for i := lo; i < hi; i++ {
			n := off[i+1] - off[i]
			if n == 0 {
				continue
			}
			cand = append(append(cand[:0], lower[lowerOff[i]:lowerOff[i+1]]...), upper[i]...)
			dst := slab[off[i]:off[i]:off[i+1]]
			if tau == nil {
				g.neighbors[i], g.tau[i] = rankTop(cand, n, dst)
				continue
			}
			for _, e := range cand {
				if mathx.Precedes(e, tau[i]) {
					dst = append(dst, e)
				}
			}
			mathx.SortScoredDesc(dst)
			g.neighbors[i] = dst
		}
	})
	g.holders = deriveHolders(g.neighbors)
	return g
}

// deriveHolders returns the inverse of neighbors: row k holds the ids of
// the lists that hold item k, ascending. The rows are carved from one slab
// sized by a counting pass, each capped at its own length.
func deriveHolders(neighbors [][]mathx.Scored) [][]int32 {
	q := len(neighbors)
	off := make([]int, q+1)
	for _, l := range neighbors {
		for _, e := range l {
			off[e.Index+1]++
		}
	}
	for k := 0; k < q; k++ {
		off[k+1] += off[k]
	}
	slab := make([]int32, off[q])
	holders := make([][]int32, q)
	for k := range holders {
		holders[k] = slab[off[k]:off[k]:off[k+1]]
	}
	for i, l := range neighbors {
		for _, e := range l {
			holders[e.Index] = append(holders[e.Index], int32(i))
		}
	}
	return holders
}

// CheckHolders holds g's holder rows (GIS) against ref's, row by row, and
// names the first item whose row differs. Two GIS with the same lists
// must pass: the rows are a function of the lists.
func (g *GIS) CheckHolders(ref *GIS) error {
	if len(g.holders) != len(ref.holders) {
		return fmt.Errorf("similarity: holder index covers %d items, want %d", len(g.holders), len(ref.holders))
	}
	for k, row := range g.holders {
		want := ref.holders[k]
		if !slices.Equal(row, want) {
			at := 0
			for at < min(len(row), len(want)) && row[at] == want[at] {
				at++
			}
			return fmt.Errorf("similarity: holder row of item %d differs at entry %d: %d lists, want %d", k, at, len(row), len(want))
		}
	}
	return nil
}

// centredRows returns m's ratings row by row, each minus its item's mean
// for PCC and as it stands for Cosine: the d of Eq. 5, computed once per
// rating instead of once per co-rating. The rows share one slab.
func centredRows(m *ratings.Matrix, metric Metric) [][]float64 {
	slab := make([]float64, m.NumRatings())
	rows := make([][]float64, m.NumUsers())
	off := 0
	for u := range rows {
		row := m.UserRatings(u)
		cr := slab[off : off+len(row) : off+len(row)]
		for k, e := range row {
			d := e.Value
			if metric == PCC {
				d -= m.ItemMean(int(e.Index))
			}
			cr[k] = d
		}
		rows[u] = cr
		off += len(row)
	}
	return rows
}

// upperCandidates appends to dst item a's candidates b > a, in
// accumulation order (accumulateUpper).
func upperCandidates(m *ratings.Matrix, centred [][]float64, a int, opts GISOptions, sc *candidateScratch, dst []mathx.Scored) []mathx.Scored {
	sc.accumulateUpper(m, centred, a)
	return sc.drain(opts, dst)
}

// accumulateUpper adds into sc the Eq. 5 sums of every pair (a, b > a):
// over a's raters in ascending user order, each rater's row read from
// just past a. It is the one accumulation behind every Eq. 5 weight a
// GIS holds after BuildGIS or a load (FromSnapshot).
func (sc *candidateScratch) accumulateUpper(m *ratings.Matrix, centred [][]float64, a int) {
	sums := sc.sums
	for _, ue := range m.ItemRatings(a) {
		row, cr := m.UserRatings(int(ue.Index)), centred[ue.Index]
		k, _ := slices.BinarySearchFunc(row, int32(a), func(e ratings.Entry, a int32) int { return cmp.Compare(e.Index, a) })
		da := cr[k]
		for j := k + 1; j < len(row); j++ {
			b, db := row[j].Index, cr[j]
			s := &sums[b]
			if s.co == 0 {
				sc.touched = append(sc.touched, b)
			}
			s.sxy += da * db
			s.sxx += da * da
			s.syy += db * db
			s.co++
		}
	}
}

// rankTop appends to dst the k candidates of cand that rank first under
// mathx.Precedes, in that order, and returns them with the list's horizon:
// the best candidate left out, or the zero τ when k covers cand. Every
// score is positive (weight), so Precedes is a total order on cand and
// the selection does not depend on cand's order, which rankTop changes.
func rankTop(cand []mathx.Scored, k int, dst []mathx.Scored) (list []mathx.Scored, tau mathx.Scored) {
	if k < len(cand) {
		selectTop(cand, k)
		tau = cand[k]
		for _, e := range cand[k+1:] {
			if mathx.Precedes(e, tau) {
				tau = e
			}
		}
	}
	top := cand[:k]
	mathx.SortScoredDesc(top)
	return append(dst, top...), tau
}

// selectTop reorders list so that its first k entries, 0 < k < len(list),
// are the k that rank first under mathx.Precedes, in no particular order:
// quickselect with a median-of-three pivot, expected linear time. Precedes
// must be a total order on list: no NaN scores.
func selectTop(list []mathx.Scored, k int) {
	// Everything in [0, lo) ranks before everything in [lo, len(list)),
	// everything in [hi, len(list)) after everything in [0, hi), and
	// lo ≤ k ≤ hi.
	lo, hi := 0, len(list)
	for hi-lo > 1 {
		mid, last := lo+(hi-lo)/2, hi-1
		if mathx.Precedes(list[mid], list[lo]) {
			list[mid], list[lo] = list[lo], list[mid]
		}
		if mathx.Precedes(list[last], list[lo]) {
			list[last], list[lo] = list[lo], list[last]
		}
		if mathx.Precedes(list[mid], list[last]) {
			list[mid], list[last] = list[last], list[mid]
		}
		pivot, p := list[last], lo
		for j := lo; j < last; j++ {
			if mathx.Precedes(list[j], pivot) {
				list[p], list[j] = list[j], list[p]
				p++
			}
		}
		list[p], list[last] = list[last], list[p]
		switch {
		case p == k || p+1 == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
}

func topNOrAll(topN, candidates int) int {
	if topN <= 0 || topN > candidates {
		return candidates
	}
	return topN
}
