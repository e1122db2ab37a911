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
	// fill[c][i] = Δr_{C,i} (Eq. 8), the mean of (r_{u,i} − r̄_u) over
	// cluster c's raters of item i, and NaN where c has no rater of i:
	// there Eq. 7's fallback chain goes on to the global deviation. NaN is
	// safe as the sentinel because every deviation is finite by
	// construction (a ratio of finite sums with a positive count). A row
	// holds nothing but its own cluster's deviations, so a write that
	// moves only the global deviations leaves it as it is.
	fill [][]float64
	// globalDev[i] is the deviation over all raters of i, the fallback
	// when the user's own cluster never rated i; hasGlobal[i] reports
	// whether i has any rater.
	globalDev []float64
	hasGlobal []bool
	// memo[i][c] is the additive part of Eq. 7's fallback chain for an
	// unobserved cell of item i and a user of cluster c: fill[c][i] where
	// the cluster covers the item, else globalDev[i] where the item has a
	// rater, else NaN (meaning "plain user mean"). It is item-major, so
	// a write that moves item i's deviations replaces one column of K
	// cells; a read takes a cell in two dependent loads, the column's
	// header and then the cell.
	memo [][]float64
	k    int
}

// New builds a Smoother from a matrix and a finished clustering.
func New(m *ratings.Matrix, cl *cluster.Result) *Smoother {
	k, q := cl.K, m.NumItems()
	s := &Smoother{
		m:         m,
		assign:    cl.Assign,
		fill:      make([][]float64, k),
		globalDev: make([]float64, q),
		hasGlobal: make([]bool, q),
		k:         k,
	}
	sum := make([][]float64, k)
	cnt := make([][]float64, k)
	for c := 0; c < k; c++ {
		sum[c] = make([]float64, q)
		cnt[c] = make([]float64, q)
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
		s.fill[c] = make([]float64, q)
		for i := 0; i < q; i++ {
			s.fill[c][i] = deviation(sum[c][i], cnt[c][i])
		}
	}
	for i := 0; i < q; i++ {
		if gCnt[i] > 0 {
			s.globalDev[i] = gSum[i] / gCnt[i]
			s.hasGlobal[i] = true
		}
	}
	s.memo = make([][]float64, q)
	slab := make([]float64, q*k)
	for i := range s.memo {
		col := slab[i*k : (i+1)*k : (i+1)*k]
		for c := range col {
			col[c] = resolve(s.fill[c][i], deviation(gSum[i], gCnt[i]))
		}
		s.memo[i] = col
	}
	return s
}

// resolve is a memo cell: a cluster's deviation, or where the cluster has
// none the global one.
func resolve(own, global float64) float64 {
	if own == own {
		return own
	}
	return global
}

// Memo returns the fill memo, memo[i][c]: what Eq. 7 adds to the mean of
// a user of cluster c for an unobserved cell of item i, NaN meaning
// "plain user mean". It is shared with the Smoother and must not be
// modified.
func (s *Smoother) Memo() [][]float64 { return s.memo }

// deviation is an Eq. 8 deviation from its sum and rater count, NaN when
// there is no rater.
func deviation(sum, cnt float64) float64 {
	if cnt > 0 {
		return sum / cnt
	}
	return math.NaN()
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
	if f := s.memo[i][s.assign[u]]; f == f {
		return um + f
	}
	return um
}

// Deviation returns Δr_{C,i} (Eq. 8) for cluster c and item i, and
// whether the cluster has any rater of i.
func (s *Smoother) Deviation(c, i int) (float64, bool) {
	if d := s.fill[c][i]; d == d {
		return d, true
	}
	return 0, false
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
	row := s.fill[c]
	for _, e := range s.m.UserRatings(u) {
		dx := row[e.Index]
		if dx != dx {
			continue
		}
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
