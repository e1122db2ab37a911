package similarity

import (
	"fmt"
	"math/rand"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// refRefresh is Refresh's from-scratch definition, kept as the reference
// the list edit is pinned to: every unchanged list is rebuilt entry by
// entry — changed items stripped, symmetric insertions merged forward —
// into a fresh list, whether or not anything in it moved.
func refRefresh(g *GIS, m *ratings.Matrix, changedItems []int, opts GISOptions) *GIS {
	q := m.NumItems()
	changed := make([]bool, q)
	for _, i := range changedItems {
		if i >= 0 && i < q {
			changed[i] = true
		}
	}
	out := &GIS{neighbors: make([][]mathx.Scored, q), opts: opts}
	symmetric := make([][]mathx.Scored, q)
	scratch := newCandidateScratch(q)
	for i := 0; i < q; i++ {
		if !changed[i] {
			continue
		}
		list := candidateList(m, i, opts, scratch, nil)
		out.neighbors[i] = mathx.SelectTopScored(list, opts.TopN)
		for _, n := range list {
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
		ins := symmetric[i]
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
		out.neighbors[i] = truncate(merged, opts.TopN)
	}
	return out
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
	}
}

// TestRefreshParityWithReference pins the list edit to refRefresh bit
// for bit, chained over several generations so later steps start from
// lists earlier steps truncated, stripped and merged. The shapes cover a
// single changed item, sixteen (several land in one list), the whole
// catalogue, a brand-new item (id == old Q), TopN off, TopN below every
// list length, TopN above it (lists shorter than TopN), and similarity
// ties that only the id tiebreak orders.
func TestRefreshParityWithReference(t *testing.T) {
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
					want := refRefresh(g, m, items, opts)
					got := g.Refresh(m, items, opts)
					requireSameGIS(t, want, got, fmt.Sprintf("%s step=%d", ctx, step))
					g = got
				}
			}
		}
	}
}

// TestRefreshSharesUntouchedLists checks the other half of the edit: a
// list that neither held a changed item nor gained one is the old array,
// not a copy, and a list that did change is not.
func TestRefreshSharesUntouchedLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tiedMatrix(rng, 40, 60, 0.3)
	opts := GISOptions{Metric: PCC, TopN: 8, MinCoRatings: 2}
	g := BuildGIS(m, opts)
	const item = 7
	m2 := applyUpdates(m, [][3]int{{3, item, 5}})
	got := g.Refresh(m2, []int{item}, opts)
	want := refRefresh(g, m2, []int{item}, opts)
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
	g := &GIS{neighbors: make([][]mathx.Scored, m.NumItems()), opts: opts}
	for i := range g.neighbors {
		for _, n := range full.Neighbors(i) {
			if n.Index == twin {
				g.neighbors[i] = []mathx.Scored{n}
			}
		}
	}
	col := m.ItemRatings(c)
	same := [3]int{int(col[0].Index), c, int(col[0].Value)} // re-rate, same value: c keeps every score
	m2 := applyUpdates(m, [][3]int{same})
	got := g.Refresh(m2, []int{c}, opts)
	requireSameGIS(t, refRefresh(g, m2, []int{c}, opts), got, "tie at the cut")
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
