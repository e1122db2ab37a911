package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// refRefresh is Refresh's from-scratch definition, kept as the reference
// the list edit is pinned to: a selected list is the full candidate list
// sorted and cut at TopN, its horizon the first entry cut; every unchanged
// list is rebuilt entry by entry — changed items stripped, the symmetric
// insertions that precede its horizon merged forward, cut at TopN with
// the horizon raised to the first entry cut — into a fresh list, whether
// or not anything in it moved, and selected again when fewer than need
// entries are left under a set horizon.
func refRefresh(g *GIS, m *ratings.Matrix, changedItems []int, need int) *GIS {
	opts := g.opts
	q := m.NumItems()
	changed := make([]bool, q)
	for _, i := range changedItems {
		if i >= 0 && i < q {
			changed[i] = true
		}
	}
	if opts.TopN > 0 {
		need = min(need, opts.TopN)
	}
	neighbors, taus := make([][]mathx.Scored, q), make([]mathx.Scored, q)
	scratch := newCandidateScratch(q)
	cut := func(list []mathx.Scored, tau mathx.Scored) ([]mathx.Scored, mathx.Scored) {
		if opts.TopN > 0 && len(list) > opts.TopN {
			return list[:opts.TopN], list[opts.TopN]
		}
		return list, tau
	}
	selectAll := func(i int) ([]mathx.Scored, mathx.Scored) {
		return cut(mathx.SelectTopScored(candidateList(m, i, opts, scratch, nil), 0), mathx.Scored{})
	}
	symmetric := make([][]mathx.Scored, q)
	for i := 0; i < q; i++ {
		if !changed[i] {
			continue
		}
		neighbors[i], taus[i] = selectAll(i)
		for _, n := range candidateList(m, i, opts, scratch, nil) {
			if !changed[n.Index] {
				symmetric[n.Index] = append(symmetric[n.Index], mathx.Scored{Index: int32(i), Score: n.Score})
			}
		}
	}
	for i := 0; i < q; i++ {
		if changed[i] {
			continue
		}
		var old []mathx.Scored
		if i < len(g.neighbors) {
			old = g.neighbors[i]
		}
		tau := g.Horizon(i)
		var ins []mathx.Scored
		for _, e := range symmetric[i] {
			if mathx.Precedes(e, tau) {
				ins = append(ins, e)
			}
		}
		mathx.SortScoredDesc(ins)
		merged := []mathx.Scored{}
		a, b := 0, 0
		for {
			for a < len(old) && changed[old[a].Index] {
				a++
			}
			if a >= len(old) && b >= len(ins) {
				break
			}
			switch {
			case b >= len(ins):
				merged = append(merged, old[a])
				a++
			case a >= len(old):
				merged = append(merged, ins[b])
				b++
			case mathx.Precedes(old[a], ins[b]):
				merged = append(merged, old[a])
				a++
			default:
				merged = append(merged, ins[b])
				b++
			}
		}
		list, tau := cut(merged, tau)
		if len(list) < need && tau != (mathx.Scored{}) {
			list, tau = selectAll(i)
		}
		neighbors[i], taus[i] = list, tau
	}
	return testGIS(neighbors, taus, opts)
}

// testGIS is the one way a test hand-builds a GIS: over the given lists,
// horizons and options, with the holder index derived from the lists, as
// every constructor derives it.
func testGIS(neighbors [][]mathx.Scored, tau []mathx.Scored, opts GISOptions) *GIS {
	return &GIS{neighbors: neighbors, tau: tau, holders: deriveHolders(neighbors), opts: opts}
}

// requireHolders holds g's holder index against its lists: row k must be
// the ids of the lists holding item k, ascending, collected here by a
// walk of every list.
func requireHolders(t *testing.T, g *GIS, ctx string) {
	t.Helper()
	want := make([][]int32, g.NumItems())
	for i := 0; i < g.NumItems(); i++ {
		for _, n := range g.Neighbors(i) {
			want[n.Index] = append(want[n.Index], int32(i))
		}
	}
	if len(g.holders) != len(want) {
		t.Fatalf("%s: holder index covers %d items, the lists %d", ctx, len(g.holders), len(want))
	}
	for k, row := range g.holders {
		if !slices.Equal(row, want[k]) {
			t.Fatalf("%s: item %d is held by lists %v, the lists say %v", ctx, k, row, want[k])
		}
	}
}

// tiedMatrix draws a random matrix whose upper half of the catalogue
// duplicates the lower half's columns, so every similarity to an item
// also occurs, to the bit, for its twin and only the id tiebreak orders
// the pair.
func tiedMatrix(rng *rand.Rand, p, q int, density float64) *ratings.Matrix {
	b := ratings.NewBuilder(p, q)
	half := (q + 1) / 2
	for u := 0; u < p; u++ {
		for i := 0; i < half; i++ {
			if rng.Float64() >= density {
				continue
			}
			v := float64(1 + rng.Intn(5))
			b.MustAdd(u, i, v)
			if i+half < q {
				b.MustAdd(u, i+half, v)
			}
		}
	}
	return b.Build()
}

func requireSameGIS(t *testing.T, want, got *GIS, ctx string) {
	t.Helper()
	if got.NumItems() != want.NumItems() {
		t.Fatalf("%s: %d items, want %d", ctx, got.NumItems(), want.NumItems())
	}
	for i := 0; i < want.NumItems(); i++ {
		w, g := want.Neighbors(i), got.Neighbors(i)
		if len(g) != len(w) {
			t.Fatalf("%s: item %d has %d neighbours, want %d", ctx, i, len(g), len(w))
		}
		for k := range w {
			if g[k] != w[k] {
				t.Fatalf("%s: item %d entry %d = %v, want %v", ctx, i, k, g[k], w[k])
			}
		}
		if got, want := got.Horizon(i), want.Horizon(i); got != want {
			t.Fatalf("%s: item %d has horizon %v, want %v", ctx, i, got, want)
		}
	}
	requireHolders(t, want, ctx+" (want)")
	requireHolders(t, got, ctx)
}

// TestRefreshParityWithReference pins the list edit to refRefresh bit
// for bit, chained over several generations so later steps start from
// lists earlier steps truncated, stripped and merged. The shapes cover a
// single changed item, sixteen (several land in one list), the whole
// catalogue, a brand-new item (id == old Q), TopN off, TopN below every
// list length, TopN above it (lists shorter than TopN), and similarity
// ties that only the id tiebreak orders. Each list must keep its first
// five entries exact, which at TopN 5 selects again every list that loses
// an entry under a set horizon.
func TestRefreshParityWithReference(t *testing.T) {
	const need = 5
	reselected := 0
	for _, topN := range []int{0, 5, 200} {
		for _, nChanged := range []int{1, 16, -1} { // -1 = every item
			for seed := int64(1); seed <= 4; seed++ {
				ctx := fmt.Sprintf("topN=%d changed=%d seed=%d", topN, nChanged, seed)
				rng := rand.New(rand.NewSource(seed*100 + int64(topN)))
				p, q := 30+rng.Intn(20), 40+rng.Intn(20)
				m := tiedMatrix(rng, p, q, 0.35)
				opts := GISOptions{Metric: PCC, TopN: topN, MinCoRatings: 2, Workers: 2}
				if seed%2 == 0 {
					opts.Metric = Cosine
				}
				g := BuildGIS(m, opts)
				for step := 0; step < 4; step++ {
					n := nChanged
					if n < 0 {
						n = m.NumItems()
					}
					var ups [][3]int
					var items []int
					for k, i := range rng.Perm(m.NumItems())[:n] {
						items = append(items, i)
						if col := m.ItemRatings(i); k%2 == 0 && len(col) > 0 {
							// Re-rate with the same value: the item is
							// "changed" yet keeps every score, so it ties
							// with its unchanged twin on re-insertion.
							e := col[rng.Intn(len(col))]
							ups = append(ups, [3]int{int(e.Index), i, int(e.Value)})
							continue
						}
						ups = append(ups, [3]int{rng.Intn(p), i, 1 + rng.Intn(5)})
					}
					if step == 2 {
						// A new catalogue item, correlated with item 0.
						b := ratings.NewBuilder(p, m.NumItems()+1)
						for u := 0; u < p; u++ {
							for _, e := range m.UserRatings(u) {
								b.MustAdd(u, int(e.Index), e.Value)
								if e.Index == 0 {
									b.MustAdd(u, m.NumItems(), e.Value)
								}
							}
						}
						items = append(items, m.NumItems())
						m = b.Build()
					}
					m = applyUpdates(m, ups)
					want := refRefresh(g, m, items, need)
					got := g.Refresh(m, items, need)
					requireSameGIS(t, want, got, fmt.Sprintf("%s step=%d", ctx, step))
					reselected += got.Reselected()
					g = got
				}
			}
		}
	}
	if reselected == 0 {
		t.Fatal("no list was selected again: the fixtures never reach step 4")
	}
}

// TestRefreshSharesUntouchedLists checks the other half of the edit: a
// list that neither held a changed item nor gained one is the old array,
// not a copy, and a list that did change is not; and likewise a holder
// row no list gained or lost is the old row, and a row that did change
// is a fresh one.
func TestRefreshSharesUntouchedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tiedMatrix(rng, 40, 60, 0.3)
	opts := GISOptions{Metric: PCC, TopN: 8, MinCoRatings: 2}
	g := BuildGIS(m, opts)
	const item = 7
	m2 := applyUpdates(m, [][3]int{{3, item, 5}})
	got := g.Refresh(m2, []int{item}, 4)
	want := refRefresh(g, m2, []int{item}, 4)
	requireSameGIS(t, want, got, "one changed item")
	shared, edited := 0, 0
	for i := 0; i < g.NumItems(); i++ {
		old, now := g.Neighbors(i), got.Neighbors(i)
		same := len(old) == len(now)
		for k := 0; same && k < len(old); k++ {
			same = old[k] == now[k]
		}
		aliased := len(old) == len(now) && (len(old) == 0 || &old[0] == &now[0])
		switch {
		case same && i != item:
			shared++
			if !aliased {
				t.Fatalf("item %d: list unchanged but copied", i)
			}
		case !same && len(old) > 0 && aliased:
			t.Fatalf("item %d: list changed but still aliases the old array", i)
		default:
			edited++
		}
	}
	if shared == 0 || edited <= 1 {
		t.Fatalf("shared=%d edited=%d: fixture exercises only one side", shared, edited)
	}
	shared, edited = 0, 0
	for k := range g.holders {
		old, now := g.holders[k], got.holders[k]
		aliased := len(old) > 0 && len(now) > 0 && &old[0] == &now[0]
		switch same := slices.Equal(old, now); {
		case same && len(old) > 0:
			shared++
			if !aliased {
				t.Fatalf("item %d: holder row unchanged but copied", k)
			}
		case !same:
			edited++
			if aliased {
				t.Fatalf("item %d: holder row changed but still aliases the old row", k)
			}
		}
	}
	if shared == 0 || edited <= 1 {
		t.Fatalf("holder rows shared=%d edited=%d: fixture exercises only one side", shared, edited)
	}
}

// TestCheckHoldersNamesTheItem: a refreshed GIS passes CheckHolders
// against the GIS its snapshot loads as, which derives its index from its
// lists; with one row of the maintained index short of a list, as a
// Refresh that lost an edit would leave it, the check fails naming the
// item whose row drifted.
func TestCheckHoldersNamesTheItem(t *testing.T) {
	m := tiedMatrix(rand.New(rand.NewSource(3)), 40, 50, 0.35)
	opts := GISOptions{Metric: PCC, TopN: 8, MinCoRatings: 2}
	m2 := applyUpdates(m, [][3]int{{1, 4, 5}, {2, 9, 1}})
	live := BuildGIS(m, opts).Refresh(m2, []int{4, 9}, 5)
	loaded, err := FromSnapshot(live.Snapshot(), m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.CheckHolders(loaded); err != nil {
		t.Fatalf("a refreshed GIS against its own reload: %v", err)
	}
	const item = 17
	row := live.holders[item]
	if len(row) < 2 {
		t.Fatalf("item %d is held by %d lists: fixture too sparse", item, len(row))
	}
	live.holders[item] = slices.Delete(slices.Clone(row), 1, 2)
	err = live.CheckHolders(loaded)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("item %d ", item)) {
		t.Fatalf("a corrupted holder row of item %d: error %v", item, err)
	}
}

// TestRefreshTieAtTheCut hand-builds the one shape the generated
// fixtures cannot reach: a full list whose last entry ties, to the bit,
// with an insertion of lower id. The insertion wins the tiebreak and
// must displace it, not be dropped as "at or below the cut".
func TestRefreshTieAtTheCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := tiedMatrix(rng, 40, 30, 0.4)
	const c, twin = 3, 3 + 15
	full := BuildGIS(m, GISOptions{Metric: PCC, MinCoRatings: 2})
	opts := GISOptions{Metric: PCC, TopN: 1, MinCoRatings: 2}
	lists := make([][]mathx.Scored, m.NumItems())
	for i := range lists {
		for _, n := range full.Neighbors(i) {
			if n.Index == twin {
				lists[i] = []mathx.Scored{n}
			}
		}
	}
	g := testGIS(lists, nil, opts)
	col := m.ItemRatings(c)
	same := [3]int{int(col[0].Index), c, int(col[0].Value)} // re-rate, same value: c keeps every score
	m2 := applyUpdates(m, [][3]int{same})
	got := g.Refresh(m2, []int{c}, 1)
	requireSameGIS(t, refRefresh(g, m2, []int{c}, 1), got, "tie at the cut")
	displaced := 0
	for i := range g.neighbors {
		if i != c && len(g.neighbors[i]) == 1 && len(got.Neighbors(i)) == 1 && got.Neighbors(i)[0].Index == c {
			displaced++
		}
	}
	if displaced == 0 {
		t.Fatal("no list had its twin displaced by the tied insertion: fixture lost its ties")
	}
}
