package cluster

import (
	"math"
	"slices"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// Incremental, shard-aware counterpart of ReassignUsers. A micro-batch of
// rating updates touches a few users in one or two clusters; rebuilding
// every cluster's membership list and centroid statistics (O(nnz)) for
// that is the cost ReassignUsers pays. RefreshUsers edits only the
// clusters whose membership or members' rows could have changed — the old
// and new cluster of every listed user — and there only the centroid
// cells that can differ; everything else is shared with the receiver.
//
// The result is bit-for-bit identical to ReassignUsers(m, users): an
// edited cell re-accumulates over its column filtered by cluster, and a
// column is user-sorted, so its members are summed in ascending user
// order, the order the full pass visits them; every other cell keeps its
// value (zero-padded when the item dimension grew, which matches the full
// rebuild because new items can only have been rated by listed users).

// RefreshUsers returns a copy of the clustering in which each listed user
// is moved to its nearest old centroid, editing only the affected
// clusters. The second result reports which clusters were edited (the
// shards a caller must refresh downstream).
//
// The cells that can differ are every item of a user's row in the
// clusters it left and joined, and, for a user that stays, the items its
// row changed at. cells, when given, are the cells the batch wrote, and
// name those items; without them every item of a listed user's row is
// taken to have changed, which edits more cells to the same values.
func (r *Result) RefreshUsers(m *ratings.Matrix, users []int, cells ...ratings.Upsert) (*Result, map[int]bool) {
	p, q := m.NumUsers(), m.NumItems()
	affected := make(map[int]bool)
	out := &Result{
		K:          r.K,
		Assign:     mathx.Resized(r.Assign, p),
		Members:    slices.Clone(r.Members),
		Mean:       make([][]float64, r.K),
		Count:      make([][]int32, r.K),
		Iterations: r.Iterations,
	}
	// The users whose rows or clusters may have changed: the listed ones
	// and every user past r's assignment, whom ReassignUsers leaves in
	// cluster 0 unless listed.
	var changed []int
	overall := r.centroidMeans()
	for _, u := range users {
		if u < 0 || u >= p {
			continue
		}
		if u < len(r.Assign) {
			affected[r.Assign[u]] = true
		}
		changed = append(changed, u)
		best, bestC := math.Inf(1), 0
		for c := 0; c < r.K; c++ {
			if d := r.pccDistance(m, u, c, overall[c]); d < best {
				best, bestC = d, c
			}
		}
		out.Assign[u] = bestC
		affected[bestC] = true
	}
	for u := len(r.Assign); u < p; u++ {
		if !slices.Contains(users, u) {
			changed = append(changed, u)
			affected[0] = true
		}
	}
	slices.Sort(changed)
	changed = slices.Compact(changed)

	// An affected cluster's members: those it had that stay, merged with
	// the changed users it gains, both ascending.
	isAffected := make([]bool, r.K)
	for c := range affected {
		isAffected[c] = true
	}
	for c, aff := range isAffected {
		if !aff {
			out.Mean[c] = padFloats(r.Mean[c], q)
			out.Count[c] = padCounts(r.Count[c], q)
			continue
		}
		var joins []int
		for _, u := range changed {
			if out.Assign[u] == c && (u >= len(r.Assign) || r.Assign[u] != c) {
				joins = append(joins, u)
			}
		}
		members := make([]int, 0, len(r.Members[c])+len(joins))
		for _, u := range r.Members[c] {
			for len(joins) > 0 && joins[0] < u {
				members, joins = append(members, joins[0]), joins[1:]
			}
			if out.Assign[u] == c {
				members = append(members, u)
			}
		}
		out.Members[c] = append(members, joins...)
		out.Mean[c] = mathx.Resized(r.Mean[c], q)
		out.Count[c] = mathx.Resized(r.Count[c], q)
	}

	// The centroid cells that can differ, as (item, cluster) keys, sorted
	// and unique: a user that moved (or is new) changes every item of its
	// row in both clusters, one that stays only the items it wrote.
	var keys []uint64
	key := func(c int, i int32) uint64 { return uint64(i)<<32 | uint64(c) }
	wrote := map[int]bool{}
	for _, up := range cells {
		wrote[up.User] = true
	}
	for _, up := range cells {
		if up.User < len(r.Assign) && up.User < p && up.Item < q && r.Assign[up.User] == out.Assign[up.User] {
			keys = append(keys, key(out.Assign[up.User], int32(up.Item)))
		}
	}
	for _, u := range changed {
		stays := u < len(r.Assign) && r.Assign[u] == out.Assign[u]
		if stays && wrote[u] {
			continue
		}
		for _, e := range m.UserRatings(u) {
			keys = append(keys, key(out.Assign[u], e.Index))
			if u < len(r.Assign) && !stays {
				keys = append(keys, key(r.Assign[u], e.Index))
			}
		}
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	// Each column is walked once, its raters' sums split by the clusters
	// that edit it.
	sum := make([]float64, r.K)
	cnt := make([]int32, r.K)
	edits := make([]bool, r.K)
	for a := 0; a < len(keys); {
		i := int32(keys[a] >> 32)
		b := a
		for ; b < len(keys) && int32(keys[b]>>32) == i; b++ {
			edits[uint32(keys[b])] = true
		}
		for _, e := range m.ItemRatings(int(i)) {
			if c := out.Assign[e.Index]; edits[c] {
				sum[c] += e.Value
				cnt[c]++
			}
		}
		for ; a < b; a++ {
			c := uint32(keys[a])
			mean := sum[c]
			if cnt[c] > 0 {
				mean /= float64(cnt[c])
			}
			out.Mean[c][i], out.Count[c][i] = mean, cnt[c]
			sum[c], cnt[c], edits[c] = 0, 0, false
		}
	}

	// An untouched cluster's Mean and Count are r's, zero-padded, and a
	// zero count adds nothing to its overall mean: it carries forward.
	out.overall = make([]float64, r.K)
	for c, aff := range isAffected {
		if aff {
			out.overall[c] = out.centroidMean(c)
		} else {
			out.overall[c] = overall[c]
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
