// Package similarity implements the similarity functions of the CFSF
// paper — Pearson Correlation Coefficient (Eq. 5 for items, Eq. 6 for
// users) and the Pure Cosine Similarity it is compared against — plus the
// parallel construction of the Global Item Similarity matrix (GIS,
// paper §IV-B): thresholded, truncated to top-N neighbours per item and
// sorted in descending similarity order.
package similarity

import (
	"math"

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
}

// Neighbors returns item i's neighbour list, sorted by descending
// similarity (ties by ascending item id). The slice is shared: callers
// must not modify it.
func (g *GIS) Neighbors(i int) []mathx.Scored { return g.neighbors[i] }

// NumItems returns the number of items the GIS covers.
func (g *GIS) NumItems() int { return len(g.neighbors) }

// Options returns the options the GIS was built with.
func (g *GIS) Options() GISOptions { return g.opts }

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

// BuildGIS constructs the Global Item Similarity matrix in parallel.
//
// For each item a, it accumulates co-rating statistics against every item
// that shares at least one user with a, in a single pass over the rows of
// a's raters (O(Σ_{u∈col(a)} |row(u)|) per item). This is the offline
// step the paper describes as the dominant cost; it parallelises over
// items with no shared mutable state.
func BuildGIS(m *ratings.Matrix, opts GISOptions) *GIS {
	q := m.NumItems()
	g := &GIS{neighbors: make([][]mathx.Scored, q), opts: opts}

	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		scratch := newCandidateScratch(q)
		var list []mathx.Scored
		for a := lo; a < hi; a++ {
			list = candidateList(m, a, opts, scratch, list[:0])
			top := mathx.NewTopK(topNOrAll(opts.TopN, len(list)))
			for _, e := range list {
				top.Push(e.Index, e.Score)
			}
			g.neighbors[a] = top.Sorted()
		}
	})
	return g
}

func topNOrAll(topN, candidates int) int {
	if topN <= 0 || topN > candidates {
		return candidates
	}
	return topN
}
