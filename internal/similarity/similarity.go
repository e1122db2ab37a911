// Package similarity implements the similarity functions of the CFSF
// paper — Pearson Correlation Coefficient (Eq. 5 for items, Eq. 6 for
// users) and the Pure Cosine Similarity it is compared against — plus the
// parallel construction of the Global Item Similarity matrix (GIS,
// paper §IV-B): thresholded, truncated to top-N neighbours per item and
// sorted in descending similarity order.
package similarity

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

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
// experiments: PCC, all positive neighbours kept up to 200 per item.
func DefaultGISOptions() GISOptions {
	return GISOptions{Metric: PCC, TopN: 200, Threshold: 0, MinCoRatings: 2}
}

// GIS is the Global Item Similarity matrix: for every item, its
// neighbours sorted by descending similarity. Immutable and safe for
// concurrent use after construction.
type GIS struct {
	neighbors [][]mathx.Scored
	opts      GISOptions
	// pushOrdered counts the lists BuildGIS selected in push order (see
	// BuildGIS); 0 for a GIS from any other constructor. Not persisted.
	pushOrdered int
}

// Neighbors returns item i's neighbour list, sorted by descending
// similarity (ties by ascending item id). The slice is shared: callers
// must not modify it.
func (g *GIS) Neighbors(i int) []mathx.Scored { return g.neighbors[i] }

// NumItems returns the number of items the GIS covers.
func (g *GIS) NumItems() int { return len(g.neighbors) }

// Options returns the options the GIS was built with.
func (g *GIS) Options() GISOptions { return g.opts }

// PushOrderLists returns how many of BuildGIS's lists fell back to
// selection in push order: a candidate outside the top N tied the N-th
// score. It is 0 for a GIS that was loaded or refreshed rather than
// built.
func (g *GIS) PushOrderLists() int { return g.pushOrdered }

// TopNByID returns a fresh copy of the top-n prefix of item i's
// neighbour list, re-sorted by ascending neighbour id (n <= 0 means the
// whole list). Serving keeps this id-sorted mirror alongside the
// score-sorted list so the online phase can merge it against rating
// rows without a per-request sort; it must be regenerated whenever the
// score-sorted list (and hence its truncation) changes.
func (g *GIS) TopNByID(i, n int) []mathx.Scored {
	l := g.neighbors[i]
	if n > 0 && len(l) > n {
		l = l[:n]
	}
	out := make([]mathx.Scored, len(l))
	copy(out, l)
	mathx.SortScoredByIndex(out)
	return out
}

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
// then ranks its candidates (rankTop), and the lists are carved from one
// slab sized before they are filled.
func BuildGIS(m *ratings.Matrix, opts GISOptions) *GIS {
	q := m.NumItems()
	centred := centredRows(m, opts.Metric)

	upper := make([][]mathx.Scored, q)
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		sc := newCandidateScratch(q)
		var list []mathx.Scored
		for a := lo; a < hi; a++ {
			list = upperCandidates(m, centred, a, opts, sc, list[:0])
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

	off := make([]int, q+1)
	for i := 0; i < q; i++ {
		off[i+1] = off[i] + topNOrAll(opts.TopN, len(upper[i])+lowerOff[i+1]-lowerOff[i])
	}
	slab := make([]mathx.Scored, off[q])
	g := &GIS{neighbors: make([][]mathx.Scored, q), opts: opts}
	var pushOrdered atomic.Int64
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		var cand []mathx.Scored
		var sc *candidateScratch
		for i := lo; i < hi; i++ {
			n := off[i+1] - off[i]
			if n == 0 {
				continue
			}
			dst := slab[off[i]:off[i]:off[i+1]]
			cand = append(append(cand[:0], lower[lowerOff[i]:lowerOff[i+1]]...), upper[i]...)
			if list, ok := rankTop(cand, n, dst); ok {
				g.neighbors[i] = list
				continue
			}
			// Which of the candidates tied at the cut TopK keeps depends on
			// the order they are pushed in, so this list is built the way
			// the two-ended build built every list: candidateList's order
			// pushed through TopK.
			if sc == nil {
				sc = newCandidateScratch(q)
			}
			cand = candidateList(m, i, opts, sc, cand[:0])
			top := mathx.NewTopK(n)
			for _, e := range cand {
				top.Push(e.Index, e.Score)
			}
			g.neighbors[i] = top.AppendSorted(dst)
			pushOrdered.Add(1)
		}
	})
	g.pushOrdered = int(pushOrdered.Load())
	return g
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
// GIS holds after BuildGIS or a load (deriveWeights).
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

// rankTop appends to dst the top k of cand in the canonical order
// (mathx.Precedes) and reports true, or reports false when that is not
// what TopK would keep. TopK admits a candidate only if it beats the
// lowest score held, so when the k-th score is strictly above every
// score left out, TopK holds exactly these k whatever the push order.
// When a candidate left out ties the k-th score, which of the tied ones
// TopK holds depends on the order they were pushed in: those lists are
// ranked in push order by the caller. Every score is positive (weight),
// so Precedes is a total order on cand. cand is reordered.
func rankTop(cand []mathx.Scored, k int, dst []mathx.Scored) ([]mathx.Scored, bool) {
	if k < len(cand) {
		selectTop(cand, k)
	}
	top := cand[:k]
	mathx.SortScoredDesc(top)
	for _, e := range cand[k:] {
		if e.Score == top[k-1].Score {
			return nil, false
		}
	}
	return append(dst, top...), true
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
