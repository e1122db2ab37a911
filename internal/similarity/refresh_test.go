package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"cfsf/internal/ratings"
)

// applyUpdates rebuilds a matrix with extra ratings added.
func applyUpdates(m *ratings.Matrix, ups [][3]int) *ratings.Matrix {
	b := ratings.NewBuilder(m.NumUsers(), m.NumItems())
	for u := 0; u < m.NumUsers(); u++ {
		for _, e := range m.UserRatings(u) {
			b.MustAdd(u, int(e.Index), e.Value)
		}
	}
	for _, up := range ups {
		b.MustAdd(up[0], up[1], float64(up[2]))
	}
	return b.Build()
}

// TestRefreshMatchesFullRebuild is the exactness property: with no TopN
// truncation, Refresh must equal BuildGIS on the updated matrix.
func TestRefreshMatchesFullRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := 10+rng.Intn(20), 8+rng.Intn(15)
		b := ratings.NewBuilder(p, q)
		for u := 0; u < p; u++ {
			for i := 0; i < q; i++ {
				if rng.Float64() < 0.4 {
					b.MustAdd(u, i, float64(1+rng.Intn(5)))
				}
			}
		}
		m := b.Build()
		opts := GISOptions{Metric: PCC, TopN: 0, MinCoRatings: 2, Workers: 2}
		g := BuildGIS(m, opts)

		// Apply a handful of updates to a few items.
		nUps := 1 + rng.Intn(6)
		ups := make([][3]int, nUps)
		changed := map[int]bool{}
		for k := range ups {
			u, i := rng.Intn(p), rng.Intn(q)
			ups[k] = [3]int{u, i, 1 + rng.Intn(5)}
			changed[i] = true
			// A changed rating also perturbs the user's other items'
			// co-rating stats? No: sim(a,b) depends on columns of a and b
			// only. A new rating (u,i) changes column i and adds a
			// co-rating pair (i, j) for every j in u's row — those pairs
			// live in i's list and j's list entries pointing at i, which
			// Refresh repairs symmetrically. Other pairs are untouched.
		}
		m2 := applyUpdates(m, ups)

		itemList := make([]int, 0, len(changed))
		for i := range changed {
			itemList = append(itemList, i)
		}
		got := g.Refresh(m2, itemList, 0)
		want := BuildGIS(m2, opts)

		for i := 0; i < q; i++ {
			gi, wi := got.Neighbors(i), want.Neighbors(i)
			if len(gi) != len(wi) {
				return false
			}
			for k := range gi {
				if gi[k].Index != wi[k].Index || !approx(gi[k].Score, wi[k].Score, 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRefreshWithTruncationStaysValid(t *testing.T) {
	m := denseRandom(t, 40, 25, 0.5, 21)
	opts := GISOptions{Metric: PCC, TopN: 6, MinCoRatings: 2}
	g := BuildGIS(m, opts)
	m2 := applyUpdates(m, [][3]int{{0, 3, 5}, {1, 3, 1}, {2, 7, 4}})
	got := g.Refresh(m2, []int{3, 7}, 6)
	for i := 0; i < m2.NumItems(); i++ {
		ns := got.Neighbors(i)
		if len(ns) > 6 {
			t.Fatalf("item %d has %d neighbours, want <= 6", i, len(ns))
		}
		for k := 1; k < len(ns); k++ {
			if ns[k-1].Score < ns[k].Score {
				t.Fatalf("item %d list not descending after refresh", i)
			}
		}
		// Changed items must match a fresh full computation exactly.
		if i == 3 || i == 7 {
			fresh := BuildGIS(m2, opts).Neighbors(i)
			if len(fresh) != len(ns) {
				t.Fatalf("changed item %d: %d neighbours, fresh %d", i, len(ns), len(fresh))
			}
			for k := range ns {
				if ns[k] != fresh[k] {
					t.Fatalf("changed item %d entry %d: %v vs %v", i, k, ns[k], fresh[k])
				}
			}
		}
	}
}

func TestRefreshGrowsItemSpace(t *testing.T) {
	m := denseRandom(t, 20, 10, 0.6, 5)
	opts := GISOptions{Metric: PCC, TopN: 0, MinCoRatings: 2}
	g := BuildGIS(m, opts)

	// New matrix with one extra item rated by several users.
	b := ratings.NewBuilder(20, 11)
	for u := 0; u < 20; u++ {
		for _, e := range m.UserRatings(u) {
			b.MustAdd(u, int(e.Index), e.Value)
		}
	}
	for u := 0; u < 10; u++ {
		r, _ := m.Rating(u, 0)
		if r == 0 {
			r = 3
		}
		b.MustAdd(u, 10, r) // correlate new item with item 0
	}
	m2 := b.Build()

	got := g.Refresh(m2, []int{10}, 0)
	if got.NumItems() != 11 {
		t.Fatalf("refreshed GIS covers %d items, want 11", got.NumItems())
	}
	want := BuildGIS(m2, opts)
	for i := 0; i < 11; i++ {
		gi, wi := got.Neighbors(i), want.Neighbors(i)
		if len(gi) != len(wi) {
			t.Fatalf("item %d: %d vs %d neighbours", i, len(gi), len(wi))
		}
		for k := range gi {
			if gi[k].Index != wi[k].Index || !approx(gi[k].Score, wi[k].Score, 1e-9) {
				t.Fatalf("item %d entry %d: %v vs %v", i, k, gi[k], wi[k])
			}
		}
	}
}

func TestRefreshNoChanges(t *testing.T) {
	m := denseRandom(t, 20, 10, 0.6, 9)
	opts := GISOptions{Metric: PCC, TopN: 0, MinCoRatings: 2}
	g := BuildGIS(m, opts)
	got := g.Refresh(m, nil, 0)
	for i := 0; i < 10; i++ {
		a, b := g.Neighbors(i), got.Neighbors(i)
		if len(a) != len(b) {
			t.Fatalf("no-op refresh changed item %d", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("no-op refresh changed item %d entry %d", i, k)
			}
		}
	}
}

// TestRefreshScratchComesBackClean: every scratch the Refreshes of a
// chain take from the pool — in step 1, and in step 4, which the chain
// must reach — is back to all zero when they return it: no pair sum in
// any cell, nothing recorded as touched, no seen mark. A cell left dirty
// would leak into the next item one accumulates. Each step's GIS must
// still be the reference's.
func TestRefreshScratchComesBackClean(t *testing.T) {
	var mu sync.Mutex
	var made []*refreshScratch
	newScratch := refreshScratchPool.New
	refreshScratchPool.New = func() any {
		sc := newScratch().(*refreshScratch)
		mu.Lock()
		made = append(made, sc)
		mu.Unlock()
		return sc
	}
	defer func() { refreshScratchPool.New = newScratch }()
	for sc := refreshScratchPool.Get(); ; sc = refreshScratchPool.Get() {
		// Drain what earlier tests pooled, so every scratch used below is
		// one made here.
		if slices.Contains(made, sc.(*refreshScratch)) {
			refreshScratchPool.Put(sc)
			break
		}
	}

	rng := rand.New(rand.NewSource(11))
	m := tiedMatrix(rng, 40, 60, 0.35)
	opts := GISOptions{Metric: PCC, TopN: 5, MinCoRatings: 2, Workers: 2}
	g := BuildGIS(m, opts)
	reselected := 0
	for step := 0; step < 6; step++ {
		var ups [][3]int
		items := rng.Perm(m.NumItems())[:4]
		for _, i := range items {
			ups = append(ups, [3]int{rng.Intn(m.NumUsers()), i, 1 + rng.Intn(5)})
		}
		m = applyUpdates(m, ups)
		got := g.Refresh(m, items, 5)
		requireSameGIS(t, refRefresh(g, m, items, 5), got, fmt.Sprintf("step %d", step))
		reselected += got.Reselected()
		g = got
	}
	if reselected == 0 {
		t.Fatal("no list was selected again: step 4 never took a scratch")
	}
	for k, sc := range made {
		if len(sc.cand.touched) != 0 {
			t.Fatalf("scratch %d comes back with %d touched cells", k, len(sc.cand.touched))
		}
		for b, s := range sc.cand.sums {
			if s != (pairSums{}) {
				t.Fatalf("scratch %d comes back with item %d's sums %+v", k, b, s)
			}
		}
		for b, v := range sc.seen {
			if v != 0 {
				t.Fatalf("scratch %d comes back with item %d seen as %d", k, b, v)
			}
		}
	}
}

// TestRefreshReadsChangedItemsAsASet: Refresh on the changed items
// shuffled and named more than once is bit for bit Refresh on them sorted
// and once — every list, horizon and holder row, and the count of lists
// selected again — so Apply may hand it the items in batch order.
func TestRefreshReadsChangedItemsAsASet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tiedMatrix(rng, 40, 60, 0.35)
	g := BuildGIS(m, GISOptions{Metric: PCC, TopN: 5, MinCoRatings: 2, Workers: 2})
	for step := 0; step < 6; step++ {
		var ups [][3]int
		items := rng.Perm(m.NumItems())[:5]
		for _, i := range items {
			ups = append(ups, [3]int{rng.Intn(m.NumUsers()), i, 1 + rng.Intn(5)})
		}
		m = applyUpdates(m, ups)
		sorted := slices.Clone(items)
		slices.Sort(sorted)
		batch := append(slices.Clone(items), items[3], items[0], items[3])
		rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })

		want, got := g.Refresh(m, sorted, 5), g.Refresh(m, batch, 5)
		ctx := fmt.Sprintf("step %d, items %v", step, batch)
		requireSameGIS(t, want, got, ctx)
		for i := range want.holders {
			if !slices.Equal(got.holders[i], want.holders[i]) {
				t.Fatalf("%s: item %d is held by %v, sorted %v", ctx, i, got.holders[i], want.holders[i])
			}
		}
		if got.Reselected() != want.Reselected() {
			t.Fatalf("%s: %d lists selected again, sorted %d", ctx, got.Reselected(), want.Reselected())
		}
		g = want
	}
}
