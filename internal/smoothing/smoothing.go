// Package smoothing implements the cluster-based rating smoothing of the
// CFSF offline phase (paper §IV-D, Eq. 7–8) and the per-user iCluster
// ranking (Eq. 9) that accelerates like-minded-user selection online,
// computed for one user at the moment a selection needs it.
//
// A smoothed rating never overwrites an observed one: Eq. 7 returns the
// stored rating when the user rated the item, and the user's mean plus
// the item's rating deviation within the user's cluster otherwise. The
// smoother records provenance (original vs smoothed) because the online
// phase weights the two kinds differently (Eq. 11's w).
package smoothing

import (
	"math"
	"slices"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
)

// Smoother provides Eq. 7 smoothed ratings for every (user, item) cell.
// It is immutable and safe for concurrent use.
type Smoother struct {
	m      *ratings.Matrix
	assign []int
	// dev[c][i] = Δr_{C,i} (Eq. 8): mean of (r_{u,i} − r̄_u) over cluster
	// c's raters of item i.
	dev [][]float64
	// has[c][i] reports whether cluster c has any rater of item i.
	has [][]bool
	// globalDev[i] is the deviation over all raters of i, the fallback
	// when the user's own cluster never rated i.
	globalDev []float64
	hasGlobal []bool
	// fill[c][i] memoises the additive part of Eq. 7's fallback chain for
	// an unobserved cell: dev[c][i] when the cluster covers the item, else
	// globalDev[i], else NaN (meaning "plain user mean"). The online phase
	// reads whole rows of it (FillRow) instead of walking the chain per
	// cell. NaN is safe as the sentinel because both deviations are
	// finite by construction (ratios of finite sums with positive counts).
	fill [][]float64
	k    int
}

// New builds a Smoother from a matrix and a finished clustering.
func New(m *ratings.Matrix, cl *cluster.Result) *Smoother {
	k, q := cl.K, m.NumItems()
	s := &Smoother{
		m:         m,
		assign:    cl.Assign,
		dev:       make([][]float64, k),
		has:       make([][]bool, k),
		globalDev: make([]float64, q),
		hasGlobal: make([]bool, q),
		k:         k,
	}
	sum := make([][]float64, k)
	cnt := make([][]float64, k)
	for c := 0; c < k; c++ {
		sum[c] = make([]float64, q)
		cnt[c] = make([]float64, q)
		s.dev[c] = make([]float64, q)
		s.has[c] = make([]bool, q)
	}
	gSum := make([]float64, q)
	gCnt := make([]float64, q)

	for u := 0; u < m.NumUsers(); u++ {
		c := cl.Assign[u]
		um := m.UserMean(u)
		for _, e := range m.UserRatings(u) {
			d := e.Value - um
			sum[c][e.Index] += d
			cnt[c][e.Index]++
			gSum[e.Index] += d
			gCnt[e.Index]++
		}
	}
	for c := 0; c < k; c++ {
		for i := 0; i < q; i++ {
			if cnt[c][i] > 0 {
				s.dev[c][i] = sum[c][i] / cnt[c][i]
				s.has[c][i] = true
			}
		}
	}
	for i := 0; i < q; i++ {
		if gCnt[i] > 0 {
			s.globalDev[i] = gSum[i] / gCnt[i]
			s.hasGlobal[i] = true
		}
	}
	s.fill = make([][]float64, k)
	for c := 0; c < k; c++ {
		s.fill[c] = s.fillRowFor(c)
	}
	return s
}

// fillRowFor materialises cluster c's fill memo row from the already
// computed deviations. The values are the exact addends Fill's fallback
// chain would pick, so memoised fills are bit-identical to chained ones.
func (s *Smoother) fillRowFor(c int) []float64 {
	q := len(s.globalDev)
	row := make([]float64, q)
	for i := 0; i < q; i++ {
		switch {
		case s.has[c][i]:
			row[i] = s.dev[c][i]
		case s.hasGlobal[i]:
			row[i] = s.globalDev[i]
		default:
			row[i] = math.NaN()
		}
	}
	return row
}

// NumClusters returns the cluster count the smoother was built from.
func (s *Smoother) NumClusters() int { return s.k }

// Cluster returns the cluster id of user u.
func (s *Smoother) Cluster(u int) int { return s.assign[u] }

// Matrix returns the underlying (unsmoothed) matrix.
func (s *Smoother) Matrix() *ratings.Matrix { return s.m }

// Rating implements Eq. 7. It returns the value and whether it is an
// original (observed) rating; original=false means the value was
// smoothed. The fallback chain for a cell whose cluster has no rater of
// the item is: user mean + global item deviation, then plain user mean.
func (s *Smoother) Rating(u, i int) (value float64, original bool) {
	if r, ok := s.m.Rating(u, i); ok {
		return r, true
	}
	return s.Fill(u, i), false
}

// Fill returns the Eq. 7 smoothed value for a cell the caller already
// knows is unobserved, skipping the observed-rating lookup. It is the
// fast path of the online phase, where merge iteration over sorted rows
// has already established that (u, i) is missing.
func (s *Smoother) Fill(u, i int) float64 {
	um := s.m.UserMean(u)
	if f := s.fill[s.assign[u]][i]; f == f {
		return um + f
	}
	return um
}

// FillRow returns the fill memo row of user u's cluster: FillRow(u)[i]
// is the addend Fill(u, i) adds to the user mean, with NaN marking
// cells where the fallback chain bottoms out at the plain user mean.
// The row is shared with the Smoother and must not be modified.
func (s *Smoother) FillRow(u int) []float64 { return s.fill[s.assign[u]] }

// Deviation returns Δr_{C,i} (Eq. 8) for cluster c and item i, and
// whether the cluster has any rater of i.
func (s *Smoother) Deviation(c, i int) (float64, bool) {
	return s.dev[c][i], s.has[c][i]
}

// GlobalDeviation returns the all-raters deviation for item i and
// whether i has any rater — the fallback Fill uses when the user's own
// cluster never rated i.
func (s *Smoother) GlobalDeviation(i int) (float64, bool) {
	return s.globalDev[i], s.hasGlobal[i]
}

// RankClusters ranks every cluster for user u by Eq. 9 similarity, most
// similar first: the iCluster order the online phase walks to gather
// like-minded candidates (§IV-E2). It writes the ranking into order and
// cluster c's similarity into sims[c], growing either buffer only when its
// capacity is below NumClusters, and returns both. The ranking is a pure
// function of the smoother and u, so callers compute it where they read
// it instead of keeping one per user.
func (s *Smoother) RankClusters(u int, order []int32, sims []float64) ([]int32, []float64) {
	order, sims = slices.Grow(order[:0], s.k)[:s.k], slices.Grow(sims[:0], s.k)[:s.k]
	for c := range order {
		order[c] = int32(c)
		sims[c] = s.UserClusterSim(u, c)
	}
	// Similarity descending, id ascending: a strict total order (ids are
	// unique), so any comparison sort yields the same ranking.
	slices.SortFunc(order, func(a, b int32) int {
		if sims[a] != sims[b] {
			if sims[a] > sims[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	return order, sims
}

// UserClusterSim computes Eq. 9: the correlation between user u's centred
// ratings and cluster c's deviations, over the items u rated that c
// covers. Returns 0 when there is no overlap or no variance.
func (s *Smoother) UserClusterSim(u, c int) float64 {
	um := s.m.UserMean(u)
	var sxy, sxx, syy float64
	n := 0
	for _, e := range s.m.UserRatings(u) {
		if !s.has[c][e.Index] {
			continue
		}
		dx := s.dev[c][e.Index]
		dy := e.Value - um
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
		n++
	}
	if n == 0 || sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}
