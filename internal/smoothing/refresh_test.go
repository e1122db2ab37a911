package smoothing

import (
	"math"
	"math/rand"
	"testing"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
)

func randMatrix(rng *rand.Rand, users, items, n int) *ratings.Matrix {
	b := ratings.NewBuilder(users, items).SetScale(1, 5)
	for k := 0; k < n; k++ {
		b.MustAdd(rng.Intn(users), rng.Intn(items), float64(rng.Intn(9)+1)/2)
	}
	return b.Build()
}

func requireSameSmoother(t *testing.T, want, got *Smoother, k, q int) {
	t.Helper()
	for c := 0; c < k; c++ {
		for i := 0; i < q; i++ {
			wd, wh := want.Deviation(c, i)
			gd, gh := got.Deviation(c, i)
			if wd != gd || wh != gh {
				t.Fatalf("cluster %d item %d: want (%v,%v) got (%v,%v)", c, i, wd, wh, gd, gh)
			}
		}
	}
	if len(want.globalDev) != len(got.globalDev) {
		t.Fatalf("globalDev len: want %d got %d", len(want.globalDev), len(got.globalDev))
	}
	for i := range want.globalDev {
		if want.globalDev[i] != got.globalDev[i] || want.hasGlobal[i] != got.hasGlobal[i] {
			t.Fatalf("globalDev[%d]: want (%v,%v) got (%v,%v)",
				i, want.globalDev[i], want.hasGlobal[i], got.globalDev[i], got.hasGlobal[i])
		}
	}
	for c := 0; c < k; c++ {
		for i := 0; i < q; i++ {
			// Bitwise compare: the NaN sentinel never equals itself under ==.
			if math.Float64bits(want.fill[c][i]) != math.Float64bits(got.fill[c][i]) {
				t.Fatalf("fill[%d][%d]: want %v got %v", c, i, want.fill[c][i], got.fill[c][i])
			}
		}
	}
}

// TestRefreshMatchesFullBuild drives random update batches through the
// incremental Refresh and the full New rebuild, requiring exact equality
// of every deviation and every fill cell.
func TestRefreshMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		m := randMatrix(rng, 24, 14, 170)
		cl, err := cluster.Run(m, cluster.Options{K: 4, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		sm := New(m, cl)

		// Random upsert batch, possibly growing users/items.
		growU, growI := rng.Intn(2), rng.Intn(2)
		nu, ni := 24+growU, 14+growI
		b := ratings.NewBuilder(nu, ni).SetScale(1, 5)
		for u := 0; u < 24; u++ {
			for _, e := range m.UserRatings(u) {
				b.MustAdd(u, int(e.Index), e.Value)
			}
		}
		changed := map[int]bool{}
		for k := 0; k < rng.Intn(5)+1; k++ {
			u := rng.Intn(nu)
			b.MustAdd(u, rng.Intn(ni), float64(rng.Intn(9)+1)/2)
			changed[u] = true
		}
		for u := 24; u < nu; u++ {
			b.MustAdd(u, rng.Intn(ni), float64(rng.Intn(9)+1)/2)
			changed[u] = true
		}
		m2 := b.Build()
		list := make([]int, 0, len(changed))
		for u := range changed {
			list = append(list, u)
		}

		cl2, affected := cl.RefreshUsers(m2, list)
		// Affected items: everything in a changed user's (new) row, since
		// the user mean shift touches every centred rating of the row.
		affItems := map[int]bool{}
		for u := range changed {
			for _, e := range m2.UserRatings(u) {
				affItems[int(e.Index)] = true
			}
		}

		wantSm := New(m2, cl2)
		gotSm := sm.Refresh(m2, cl2, affected, affItems, 0)
		requireSameSmoother(t, wantSm, gotSm, cl2.K, m2.NumItems())
	}
}

// TestRefreshSharesUntouchedClusters pins the structural-sharing contract:
// a batch confined to one cluster must not copy the other clusters' rows.
func TestRefreshSharesUntouchedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 20, 10, 140)
	cl, err := cluster.Run(m, cluster.Options{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sm := New(m, cl)
	got := sm.Refresh(m, cl, map[int]bool{0: true}, map[int]bool{}, 0)
	for c := 1; c < cl.K; c++ {
		if &got.dev[c][0] != &sm.dev[c][0] {
			t.Fatalf("cluster %d dev row was copied, expected shared", c)
		}
		if &got.fill[c][0] != &sm.fill[c][0] {
			t.Fatalf("cluster %d fill row was copied, expected shared (no affected items)", c)
		}
	}
	if &got.dev[0][0] == &sm.dev[0][0] {
		t.Fatal("affected cluster's dev row was shared, expected rebuilt")
	}
	if &got.fill[0][0] == &sm.fill[0][0] {
		t.Fatal("affected cluster's fill row was shared, expected rebuilt")
	}
}

// TestFillMemoMatchesFallbackChain pins the memo's contract: Fill must
// return exactly what the original fallback chain (cluster deviation,
// then global deviation, then plain user mean) computes, for every cell.
func TestFillMemoMatchesFallbackChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMatrix(rng, 30, 20, 150)
	cl, err := cluster.Run(m, cluster.Options{K: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sm := New(m, cl)
	for u := 0; u < m.NumUsers(); u++ {
		c := sm.Cluster(u)
		um := m.UserMean(u)
		for i := 0; i < m.NumItems(); i++ {
			want := um
			if d, ok := sm.Deviation(c, i); ok {
				want = um + d
			} else if g, ok := sm.GlobalDeviation(i); ok {
				want = um + g
			}
			if got := sm.Fill(u, i); got != want {
				t.Fatalf("Fill(%d,%d) = %v, chain gives %v", u, i, got, want)
			}
			f := sm.FillRow(u)[i]
			gotRow := um
			if f == f {
				gotRow = um + f
			}
			if gotRow != want {
				t.Fatalf("FillRow(%d)[%d] path = %v, chain gives %v", u, i, gotRow, want)
			}
		}
	}
}
