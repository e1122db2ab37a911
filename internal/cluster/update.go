package cluster

import (
	"math"

	"cfsf/internal/ratings"
)

// Nearest returns the cluster whose centroid is closest to user u under
// the PCC distance, using the Result's stored per-cluster means. It is
// the incremental counterpart of a full K-means pass: new or changed
// users are placed without moving anyone else.
func (r *Result) Nearest(m *ratings.Matrix, u int) int {
	overall := r.centroidMeans()
	best, bestC := math.Inf(1), 0
	for c := 0; c < r.K; c++ {
		if d := r.pccDistance(m, u, c, overall[c]); d < best {
			best, bestC = d, c
		}
	}
	return bestC
}

// ReassignUsers returns a copy of the clustering in which each listed
// user (including ids beyond the original assignment, for newly added
// users) is moved to its nearest centroid, with memberships and centroid
// statistics recomputed from the given matrix. The centroids used for
// placement are the *old* ones, so the operation is deterministic and
// order-independent.
func (r *Result) ReassignUsers(m *ratings.Matrix, users []int) *Result {
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
		}
	}
	overall := r.centroidMeans()
	for _, u := range users {
		if u < 0 || u >= m.NumUsers() {
			continue
		}
		best, bestC := math.Inf(1), 0
		for c := 0; c < r.K; c++ {
			if d := r.pccDistance(m, u, c, overall[c]); d < best {
				best, bestC = d, c
			}
		}
		out.Assign[u] = bestC
	}

	q := m.NumItems()
	for c := 0; c < r.K; c++ {
		out.Mean[c] = make([]float64, q)
		out.Count[c] = make([]int32, q)
	}
	for u := 0; u < m.NumUsers(); u++ {
		c := out.Assign[u]
		out.Members[c] = append(out.Members[c], u)
		for _, e := range m.UserRatings(u) {
			out.Mean[c][e.Index] += e.Value
			out.Count[c][e.Index]++
		}
	}
	for c := 0; c < r.K; c++ {
		for i := 0; i < q; i++ {
			if out.Count[c][i] > 0 {
				out.Mean[c][i] /= float64(out.Count[c][i])
			}
		}
	}
	out.overall = out.centroidMeans()
	return out
}

// centroidMeans returns each centroid's mean over its covered items: the
// memo when r has one, computed otherwise. The slice is shared and must
// not be modified.
func (r *Result) centroidMeans() []float64 {
	if len(r.overall) == r.K {
		return r.overall
	}
	out := make([]float64, r.K)
	for c := range out {
		out[c] = r.centroidMean(c)
	}
	return out
}

// centroidMean is centroid c's mean over the items it covers.
func (r *Result) centroidMean(c int) float64 {
	var sum float64
	n := 0
	for i, cnt := range r.Count[c] {
		if cnt > 0 {
			sum += r.Mean[c][i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// pccDistance is 1 − PCC(user, centroid c), mirroring the K-means metric.
func (r *Result) pccDistance(m *ratings.Matrix, u, c int, centroidMean float64) float64 {
	um := m.UserMean(u)
	var sxy, sxx, syy float64
	n := 0
	for _, e := range m.UserRatings(u) {
		if int(e.Index) >= len(r.Count[c]) || r.Count[c][e.Index] == 0 {
			continue
		}
		dx := e.Value - um
		dy := r.Mean[c][e.Index] - centroidMean
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
		n++
	}
	if n == 0 || sxx == 0 || syy == 0 {
		return 1
	}
	return 1 - sxy/(math.Sqrt(sxx)*math.Sqrt(syy))
}
