package smoothing

import (
	"math"
	"sort"

	"cfsf/internal/cluster"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Incremental refresh of the smoothing structures, the smoothing half of
// the sharded apply path. A micro-batch that touches users in a handful
// of clusters invalidates exactly those clusters' Eq. 8 deviation rows
// (their membership or their members' rows/means changed) plus the global
// deviations of the items the changed users rated (a changed user mean
// shifts every centred rating in that user's row). Everything else is
// bit-identical to what New would recompute, so it is shared.
//
// Both refreshes reproduce the full build's floating-point accumulation
// order exactly: per-cluster sums iterate members in ascending user order
// (New's u = 0..P loop visits a fixed cluster's members in that
// order), and per-item global sums iterate the item's column, which the
// matrix stores in ascending user order. This is what lets the sharded
// and monolithic apply paths produce byte-identical models.

// Refresh returns a new Smoother for the updated matrix and clustering in
// which only the listed clusters' deviation rows and the listed items'
// global deviations are recomputed; the rest is shared with s.
//
// Both recompute loops run on a worker pool: every cluster (= shard) and
// every affected item is an independent slot write, so a multi-shard
// batch refreshes its shards concurrently while staying bit-identical to
// the serial pass — each slot's accumulation order is fixed regardless
// of which worker runs it.
func (s *Smoother) Refresh(m *ratings.Matrix, cl *cluster.Result, affectedClusters map[int]bool, affectedItems map[int]bool, workers int) *Smoother {
	k, q := cl.K, m.NumItems()
	out := &Smoother{
		m:         m,
		assign:    cl.Assign,
		dev:       make([][]float64, k),
		has:       make([][]bool, k),
		globalDev: make([]float64, q),
		hasGlobal: make([]bool, q),
		fill:      make([][]float64, k),
		k:         k,
	}
	// Sorted affected-item list: a fixed recompute order (map iteration
	// varies per run) and an indexable work list for the parallel loop.
	affList := make([]int, 0, len(affectedItems))
	for i := range affectedItems {
		if i < q {
			affList = append(affList, i)
		}
	}
	sort.Ints(affList)

	// Global deviations first: the per-cluster pass below derives fill
	// rows from them.
	copy(out.globalDev, s.globalDev)
	copy(out.hasGlobal, s.hasGlobal)
	parallel.For(len(affList), workers, func(x int) {
		i := affList[x]
		var gSum, gCnt float64
		for _, e := range m.ItemRatings(i) {
			gSum += e.Value - m.UserMean(int(e.Index))
			gCnt++
		}
		out.globalDev[i], out.hasGlobal[i] = 0, false
		if gCnt > 0 {
			out.globalDev[i] = gSum / gCnt
			out.hasGlobal[i] = true
		}
	})

	parallel.For(k, workers, func(c int) {
		if !affectedClusters[c] {
			out.dev[c] = padDevs(s.dev[c], q)
			out.has[c] = padFlags(s.has[c], q)
			out.fill[c] = patchedFillRow(s.fill[c], out, c, affList, q)
			return
		}
		sum := make([]float64, q)
		cnt := make([]float64, q)
		out.dev[c] = make([]float64, q)
		out.has[c] = make([]bool, q)
		for _, u := range cl.Members[c] {
			um := m.UserMean(u)
			for _, e := range m.UserRatings(u) {
				sum[e.Index] += e.Value - um
				cnt[e.Index]++
			}
		}
		for i := 0; i < q; i++ {
			if cnt[i] > 0 {
				out.dev[c][i] = sum[i] / cnt[i]
				out.has[c][i] = true
			}
		}
		out.fill[c] = out.fillRowFor(c)
	})
	return out
}

// patchedFillRow is the copy-on-write fill invalidation for a cluster
// whose own deviations did not change: only affected items' cells can
// differ, and only where the cluster has no deviation of its own (those
// cells read the recomputed global fallback). When no such cell exists
// the old row is shared outright.
func patchedFillRow(base []float64, out *Smoother, c int, affList []int, q int) []float64 {
	need := len(base) != q
	if !need {
		for _, i := range affList {
			if !out.has[c][i] {
				need = true
				break
			}
		}
	}
	if !need {
		return base
	}
	row := make([]float64, q)
	copy(row, base)
	// Cells past the old item count default to the NaN sentinel; every
	// genuinely new item is in affList (it entered via a changed user's
	// row) and gets patched below.
	for i := len(base); i < q; i++ {
		row[i] = math.NaN()
	}
	for _, i := range affList {
		switch {
		case out.has[c][i]:
			row[i] = out.dev[c][i]
		case out.hasGlobal[i]:
			row[i] = out.globalDev[i]
		default:
			row[i] = math.NaN()
		}
	}
	return row
}

func padDevs(a []float64, n int) []float64 {
	if len(a) == n {
		return a
	}
	out := make([]float64, n)
	copy(out, a)
	return out
}

func padFlags(a []bool, n int) []bool {
	if len(a) == n {
		return a
	}
	out := make([]bool, n)
	copy(out, a)
	return out
}
