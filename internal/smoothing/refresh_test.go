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
		gotSm := sm.Refresh(m2, cl2, affected, affItems)
		requireSameSmoother(t, wantSm, gotSm, cl2.K, m2.NumItems())
	}
}

// TestRefreshMemoMatchesFullBuild: the memo Refresh leaves is bit for bit
// the one New builds, through chains of batches that re-rate, add users
// and items, and leave item ids no rating names; a column no batch item
// names is the previous Smoother's own.
func TestRefreshMemoMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		m := randMatrix(rng, 24, 14, 170)
		cl, err := cluster.Run(m, cluster.Options{K: 4, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		sm := New(m, cl)
		for step := 0; step < 6; step++ {
			ups := make([]ratings.Upsert, 1+rng.Intn(4))
			for k := range ups {
				ups[k] = ratings.Upsert{User: rng.Intn(m.NumUsers() + 1), Item: rng.Intn(m.NumItems() + 2), Value: float64(rng.Intn(9)+1) / 2}
			}
			m2, err := m.Upserted(ups)
			if err != nil {
				t.Fatal(err)
			}
			var users []int
			affItems := map[int]bool{}
			for _, up := range ups {
				users = append(users, up.User)
				for _, e := range m2.UserRatings(up.User) {
					affItems[int(e.Index)] = true
				}
			}
			cl2, affected := cl.RefreshUsers(m2, users, ups...)
			got, want := sm.Refresh(m2, cl2, affected, affItems), New(m2, cl2)
			requireSameSmoother(t, want, got, cl2.K, m2.NumItems())
			for i := range want.memo {
				for c := range want.memo[i] {
					if math.Float64bits(want.memo[i][c]) != math.Float64bits(got.memo[i][c]) {
						t.Fatalf("trial %d step %d: memo[%d][%d] = %v, New gives %v", trial, step, i, c, got.memo[i][c], want.memo[i][c])
					}
				}
				if i < len(sm.memo) && !affItems[i] && &got.memo[i][0] != &sm.memo[i][0] {
					t.Fatalf("trial %d step %d: memo column %d no batch item names was copied", trial, step, i)
				}
			}
			m, cl, sm = m2, cl2, got
		}
	}
}

// TestRefreshSharesUntouchedClusters pins the structural-sharing contract:
// a batch confined to one cluster must not copy the other clusters' rows,
// even where the global deviations they fall back to move.
func TestRefreshSharesUntouchedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMatrix(rng, 20, 10, 140)
	cl, err := cluster.Run(m, cluster.Options{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sm := New(m, cl)
	all := map[int]bool{}
	for i := 0; i < m.NumItems(); i++ {
		all[i] = true
	}
	got := sm.Refresh(m, cl, map[int]bool{0: true}, all)
	for c := 1; c < cl.K; c++ {
		if &got.fill[c][0] != &sm.fill[c][0] {
			t.Fatalf("cluster %d deviation row was copied, expected shared", c)
		}
	}
	if &got.fill[0][0] == &sm.fill[0][0] {
		t.Fatal("affected cluster's deviation row was shared, expected rebuilt")
	}
}

// TestFillMemoMatchesFallbackChain pins the memo's contract: Fill and the
// memo cell must give exactly what the original fallback chain (cluster
// deviation, then global deviation, then plain user mean) computes, for
// every cell.
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
			f := sm.Memo()[i][c]
			gotMemo := um
			if f == f {
				gotMemo = um + f
			}
			if gotMemo != want {
				t.Fatalf("Memo()[%d][%d] path = %v, chain gives %v", i, c, gotMemo, want)
			}
		}
	}
}
