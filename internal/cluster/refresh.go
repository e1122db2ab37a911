package cluster

import (
	"math"

	"cfsf/internal/ratings"
)

// Incremental, shard-aware counterpart of ReassignUsers. A micro-batch of
// rating updates usually touches users in one or two clusters; rebuilding
// every cluster's membership list and centroid statistics (O(nnz)) for
// that is the dominant cost ReassignUsers pays. RefreshUsers rebuilds only
// the clusters whose membership could have changed — the old and new
// cluster of every listed user — and shares the rest with the receiver.
//
// The result is bit-for-bit identical to ReassignUsers(m, users): affected
// clusters re-accumulate their means over members in ascending user order
// (the same order the full pass visits them), and untouched clusters'
// float arrays are reused verbatim (zero-padded when the item dimension
// grew, which matches the full rebuild because new items can only have
// been rated by listed users).

// RefreshUsers returns a copy of the clustering in which each listed user
// is moved to its nearest old centroid, rebuilding only the affected
// clusters. The second result reports which clusters were rebuilt (the
// shards a caller must refresh downstream).
func (r *Result) RefreshUsers(m *ratings.Matrix, users []int) (*Result, map[int]bool) {
	affected := make(map[int]bool)
	out := &Result{
		K:          r.K,
		Assign:     make([]int, m.NumUsers()),
		Members:    make([][]int, r.K),
		Mean:       make([][]float64, r.K),
		Count:      make([][]int32, r.K),
		Iterations: r.Iterations,
	}
	for u := range out.Assign {
		if u < len(r.Assign) {
			out.Assign[u] = r.Assign[u]
		} else {
			// ReassignUsers defaults unplaced new users to cluster 0.
			affected[0] = true
		}
	}
	overall := r.overallMeans()
	for _, u := range users {
		if u < 0 || u >= m.NumUsers() {
			continue
		}
		if u < len(r.Assign) {
			affected[r.Assign[u]] = true
		}
		best, bestC := math.Inf(1), 0
		for c := 0; c < r.K; c++ {
			if d := r.pccDistance(m, u, c, overall[c]); d < best {
				best, bestC = d, c
			}
		}
		out.Assign[u] = bestC
		affected[bestC] = true
	}

	q := m.NumItems()
	for c := 0; c < r.K; c++ {
		if affected[c] {
			out.Mean[c] = make([]float64, q)
			out.Count[c] = make([]int32, q)
			continue
		}
		out.Members[c] = r.Members[c]
		out.Mean[c] = padFloats(r.Mean[c], q)
		out.Count[c] = padCounts(r.Count[c], q)
	}
	for u := 0; u < m.NumUsers(); u++ {
		c := out.Assign[u]
		if !affected[c] {
			continue
		}
		out.Members[c] = append(out.Members[c], u)
		for _, e := range m.UserRatings(u) {
			out.Mean[c][e.Index] += e.Value
			out.Count[c][e.Index]++
		}
	}
	//cfsf:ordered-ok each affected cluster normalizes only its own Mean row, so visit order cannot change any value
	for c := range affected {
		for i := 0; i < q; i++ {
			if out.Count[c][i] > 0 {
				out.Mean[c][i] /= float64(out.Count[c][i])
			}
		}
	}
	return out, affected
}

func padFloats(a []float64, n int) []float64 {
	if len(a) == n {
		return a
	}
	out := make([]float64, n)
	copy(out, a)
	return out
}

func padCounts(a []int32, n int) []int32 {
	if len(a) == n {
		return a
	}
	out := make([]int32, n)
	copy(out, a)
	return out
}
