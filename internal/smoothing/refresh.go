package smoothing

import (
	"math"
	"sort"

	"cfsf/internal/cluster"
	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// Incremental refresh of the smoothing structures, the smoothing half of
// the sharded apply path. A micro-batch that touches users in a handful
// of clusters can move only the Eq. 8 deviations of the items those users
// rated: a changed user mean shifts every centred rating in that user's
// row, and nothing else. It moves them in the clusters whose membership
// or members' rows changed, and globally. Every other deviation is
// bit-identical to what New would recompute, so it is shared, row and all.
//
// The refresh reproduces the full build's floating-point accumulation
// order exactly: it walks each affected item's column, which the matrix
// stores in ascending user order, and splits it by cluster, so each
// cluster's sum visits its members in ascending user order, as New's
// u = 0..P loop does. This is what lets the sharded and monolithic apply
// paths produce byte-identical models.

// Refresh returns a new Smoother for the updated matrix and clustering in
// which only the listed items' deviations are recomputed, in the listed
// clusters and globally; the rest is shared with s. It reads the listed
// items' columns and copies one row per listed cluster, so it costs what
// the batch changed, and it runs on the calling goroutine.
func (s *Smoother) Refresh(m *ratings.Matrix, cl *cluster.Result, affectedClusters map[int]bool, affectedItems map[int]bool) *Smoother {
	k, q := cl.K, m.NumItems()
	out := &Smoother{
		m:         m,
		assign:    cl.Assign,
		fill:      make([][]float64, k),
		globalDev: mathx.Resized(s.globalDev, q),
		hasGlobal: mathx.Resized(s.hasGlobal, q),
		memo:      mathx.Resized(s.memo, q),
		k:         k,
	}
	// Sorted affected-item list: a fixed recompute order (map iteration
	// varies per run).
	items := make([]int, 0, len(affectedItems))
	for i := range affectedItems {
		if i < q {
			items = append(items, i)
		}
	}
	sort.Ints(items)

	var clusters []int
	for c := 0; c < k; c++ {
		if !affectedClusters[c] {
			out.fill[c] = padRow(s.fill[c], q, true)
			continue
		}
		clusters = append(clusters, c)
		out.fill[c] = padRow(s.fill[c], q, false)
	}

	// Items past s's start as one all-NaN column, no rater at all; those
	// a rating names get a column of their own below.
	if q > len(s.memo) {
		none := padRow(nil, k, false)
		for i := len(s.memo); i < q; i++ {
			out.memo[i] = none
		}
	}
	cols := make([]float64, len(items)*k) // the new memo columns
	sum := make([]float64, k)
	cnt := make([]float64, k)
	for x, i := range items {
		var gSum, gCnt float64
		for _, e := range m.ItemRatings(i) {
			d := e.Value - m.UserMean(int(e.Index))
			gSum += d
			gCnt++
			c := cl.Assign[e.Index]
			sum[c] += d
			cnt[c]++
		}
		global := deviation(gSum, gCnt)
		out.globalDev[i], out.hasGlobal[i] = 0, false
		if gCnt > 0 {
			out.globalDev[i], out.hasGlobal[i] = global, true
		}
		for _, c := range clusters {
			out.fill[c][i] = deviation(sum[c], cnt[c])
		}
		col := cols[x*k : (x+1)*k : (x+1)*k]
		for c := range col {
			col[c] = resolve(deviation(sum[c], cnt[c]), global)
			sum[c], cnt[c] = 0, 0
		}
		out.memo[i] = col
	}
	return out
}

// padRow returns a deviation row of n items holding row's cells, and NaN,
// the no-rater sentinel, past them: row itself when share is set and row
// is already n long, a copy otherwise.
func padRow(row []float64, n int, share bool) []float64 {
	if share && len(row) == n {
		return row
	}
	out := mathx.Resized(row, n)
	for i := len(row); i < n; i++ {
		out[i] = math.NaN()
	}
	return out
}
