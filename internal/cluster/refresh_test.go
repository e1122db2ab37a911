package cluster

import (
	"math"
	"math/rand"
	"testing"

	"cfsf/internal/ratings"
)

func randMatrix(rng *rand.Rand, users, items, n int) *ratings.Matrix {
	b := ratings.NewBuilder(users, items).SetScale(1, 5)
	for k := 0; k < n; k++ {
		b.MustAdd(rng.Intn(users), rng.Intn(items), float64(rng.Intn(9)+1)/2)
	}
	return b.Build()
}

// requireSameResult asserts that the incremental refresh and the full
// reassignment produced identical clusterings. Untouched clusters in the
// refresh may carry shorter (pre-growth) centroid arrays; the values in
// the shared prefix must match exactly and the full rebuild must be zero
// beyond it.
func requireSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if want.K != got.K {
		t.Fatalf("K: want %d got %d", want.K, got.K)
	}
	if len(want.Assign) != len(got.Assign) {
		t.Fatalf("assign len: want %d got %d", len(want.Assign), len(got.Assign))
	}
	for u := range want.Assign {
		if want.Assign[u] != got.Assign[u] {
			t.Fatalf("user %d: want cluster %d got %d", u, want.Assign[u], got.Assign[u])
		}
	}
	for c := 0; c < want.K; c++ {
		if len(want.Members[c]) != len(got.Members[c]) {
			t.Fatalf("cluster %d members: want %d got %d", c, len(want.Members[c]), len(got.Members[c]))
		}
		for j := range want.Members[c] {
			if want.Members[c][j] != got.Members[c][j] {
				t.Fatalf("cluster %d member[%d]: want %d got %d", c, j, want.Members[c][j], got.Members[c][j])
			}
		}
		for i := range want.Mean[c] {
			wm, wc := want.Mean[c][i], want.Count[c][i]
			var gm float64
			var gc int32
			if i < len(got.Mean[c]) {
				gm, gc = got.Mean[c][i], got.Count[c][i]
			}
			if wm != gm || wc != gc {
				t.Fatalf("cluster %d item %d: want (%v,%d) got (%v,%d)", c, i, wm, wc, gm, gc)
			}
		}
	}
}

func TestRefreshUsersMatchesReassign(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		m := randMatrix(rng, 25, 15, 180)
		res, err := run(t, m, Options{K: 4, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		// A changed-user set, possibly with new users and new items.
		growU := rng.Intn(3)
		growI := rng.Intn(3)
		b := ratings.NewBuilder(25+growU, 15+growI).SetScale(1, 5)
		for u := 0; u < 25; u++ {
			for _, e := range m.UserRatings(u) {
				b.MustAdd(u, int(e.Index), e.Value)
			}
		}
		users := map[int]bool{}
		for k := 0; k < rng.Intn(5)+1; k++ {
			u := rng.Intn(25 + growU)
			b.MustAdd(u, rng.Intn(15+growI), float64(rng.Intn(9)+1)/2)
			users[u] = true
		}
		for u := 25; u < 25+growU; u++ { // every new user must rate something
			b.MustAdd(u, rng.Intn(15+growI), float64(rng.Intn(9)+1)/2)
			users[u] = true
		}
		m2 := b.Build()
		list := make([]int, 0, len(users))
		for u := range users {
			list = append(list, u)
		}

		want := res.ReassignUsers(m2, list)
		got, affected := res.RefreshUsers(m2, list)
		requireSameResult(t, want, got)

		// Every listed user's old and new cluster must be flagged.
		for _, u := range list {
			if u < len(res.Assign) && !affected[res.Assign[u]] {
				t.Fatalf("old cluster %d of user %d not marked affected", res.Assign[u], u)
			}
			if !affected[got.Assign[u]] {
				t.Fatalf("new cluster %d of user %d not marked affected", got.Assign[u], u)
			}
		}
	}
}

func TestRefreshUsersSharesUntouchedClusters(t *testing.T) {
	m := blockMatrix(40, 20)
	res, err := run(t, m, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Change one user without moving it: same block, new rating value.
	u := res.Members[0][0]
	b := ratings.NewBuilder(40, 20)
	for v := 0; v < 40; v++ {
		for _, e := range m.UserRatings(v) {
			b.MustAdd(v, int(e.Index), e.Value)
		}
	}
	b.MustAdd(u, int(m.UserRatings(u)[0].Index), 4)
	m2 := b.Build()

	got, affected := res.RefreshUsers(m2, []int{u})
	if len(affected) != 1 || !affected[0] {
		t.Fatalf("affected = %v, want exactly {0}", affected)
	}
	// Cluster 1 structures are shared, not copied.
	if &got.Mean[1][0] != &res.Mean[1][0] {
		t.Fatal("untouched cluster's mean array was copied")
	}
	if &got.Members[1][0] != &res.Members[1][0] {
		t.Fatal("untouched cluster's member list was copied")
	}
}

// TestCentroidMeansMemoIsExact: the overall centroid means a Result
// carries forward — Run's, ReassignUsers', and RefreshUsers', whose
// untouched clusters keep the previous Result's — are bit for bit the
// ones recomputed from Mean and Count, across a chain of refreshes that
// grows the matrix; a Result without the memo (as gob decodes one)
// computes the same and places every user alike.
func TestCentroidMeansMemoIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	users, items := 30, 20
	m := randMatrix(rng, users, items, 260)
	res, err := run(t, m, Options{K: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(r *Result, ctx string) {
		t.Helper()
		bare := &Result{K: r.K, Mean: r.Mean, Count: r.Count}
		want := bare.centroidMeans()
		if len(r.overall) != r.K {
			t.Fatalf("%s: memo holds %d means for %d clusters", ctx, len(r.overall), r.K)
		}
		for c := range want {
			if math.Float64bits(r.overall[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s: cluster %d memo %v, recomputed %v", ctx, c, r.overall[c], want[c])
			}
		}
	}
	check(res, "Run")
	for step := 0; step < 30; step++ {
		if step%7 == 3 {
			items++
		}
		b := ratings.NewBuilder(users, items).SetScale(1, 5)
		for u := 0; u < users; u++ {
			for _, e := range m.UserRatings(u) {
				b.MustAdd(u, int(e.Index), e.Value)
			}
		}
		var list []int
		for k := 0; k < 1+rng.Intn(3); k++ {
			u := rng.Intn(users)
			b.MustAdd(u, rng.Intn(items), float64(rng.Intn(9)+1)/2)
			list = append(list, u)
		}
		m = b.Build()
		check(res.ReassignUsers(m, list), "ReassignUsers")
		res, _ = res.RefreshUsers(m, list)
		check(res, "RefreshUsers")
	}
	bare := *res
	bare.overall = nil
	for u := 0; u < users; u++ {
		if a, b := res.Nearest(m, u), bare.Nearest(m, u); a != b {
			t.Fatalf("user %d: nearest %d with the memo, %d without", u, a, b)
		}
	}
}
