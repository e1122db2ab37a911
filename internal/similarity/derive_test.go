package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// requireDerives checks that g's neighbour ids alone, snapshotted without
// weights, load on m as g itself: ids, order and weight bits.
func requireDerives(t *testing.T, g *GIS, m *ratings.Matrix, ctx string) {
	t.Helper()
	got, err := FromSnapshot(g.Snapshot(false), m)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	requireSameGIS(t, g, got, ctx)
	if got.Options() != g.Options() {
		t.Fatalf("%s: options = %+v, want %+v", ctx, got.Options(), g.Options())
	}
}

// TestDerivedWeightsAreTheServedOnes: every weight BuildGIS stores, and
// every weight a chain of Refresh calls leaves in place or writes, is the
// one FromSnapshot derives from the matrix alone, to the bit — under PCC
// and Cosine, with and without truncation, a co-rating floor, a threshold
// and significance weighting, on matrices full of exact ties, across
// re-ratings, fresh ratings and a brand-new item; and on the ledger
// fixture bench/ serves.
func TestDerivedWeightsAreTheServedOnes(t *testing.T) {
	grid := []GISOptions{
		{Metric: PCC, TopN: 7, MinCoRatings: 2},
		{Metric: Cosine, TopN: 7, MinCoRatings: 2},
		{Metric: PCC, TopN: 0, MinCoRatings: 0},
		{Metric: PCC, TopN: 5, MinCoRatings: 2, SignificanceGamma: 6},
		{Metric: PCC, TopN: 0, MinCoRatings: 3, Threshold: 0.2, Workers: 3},
	}
	for k, opts := range grid {
		for seed := int64(1); seed <= 2; seed++ {
			ctx := fmt.Sprintf("%+v seed=%d", opts, seed)
			rng := rand.New(rand.NewSource(seed*10 + int64(k)))
			p, q := 30+rng.Intn(15), 35+rng.Intn(15)
			m := tiedMatrix(rng, p, q, 0.35)
			g := BuildGIS(m, opts)
			requireDerives(t, g, m, ctx+" built")
			for step := 0; step < 4; step++ {
				var ups [][3]int
				var items []int
				for j, i := range rng.Perm(m.NumItems())[:1+rng.Intn(6)] {
					items = append(items, i)
					if col := m.ItemRatings(i); j%2 == 0 && len(col) > 0 {
						e := col[rng.Intn(len(col))]
						ups = append(ups, [3]int{int(e.Index), i, int(e.Value)})
						continue
					}
					ups = append(ups, [3]int{rng.Intn(p), i, 1 + rng.Intn(5)})
				}
				if step == 2 {
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
				g = g.Refresh(m, items, opts)
				requireDerives(t, g, m, fmt.Sprintf("%s refresh step %d", ctx, step))
			}
		}
	}

	m := ledgerMatrix(t, 1)
	requireDerives(t, BuildGIS(m, DefaultGISOptions()), m, "ledger fixture")
}

// TestFromSnapshotRefusesIDsThatDoNotDerive: ids that are not a GIS of
// the matrix they are loaded on are refused, naming the item and the
// entry — a neighbour not co-rated with its item, the item itself, a
// weight the filters drop, a list out of order, a repeated neighbour —
// and an ids-only snapshot covering another number of items than the
// matrix is refused before anything is derived.
func TestFromSnapshotRefusesIDsThatDoNotDerive(t *testing.T) {
	// Items 0, 1 and 4 rise and fall together over users 0–3, item 2
	// against them; item 3 is rated by user 4 alone, so it shares no rater
	// with any other item.
	m := matrixFrom(t, [][]float64{
		{5, 4, 1, 0, 5},
		{4, 5, 2, 0, 3},
		{1, 2, 5, 0, 2},
		{2, 1, 4, 0, 1},
		{0, 0, 0, 3, 0},
	})
	opts := GISOptions{Metric: PCC, MinCoRatings: 2}
	g := BuildGIS(m, opts)
	requireDerives(t, g, m, "the sound GIS")
	if len(g.Neighbors(0)) < 2 || len(g.Neighbors(2)) != 0 {
		t.Fatalf("fixture: item 0 keeps %v, item 2 %v; want two neighbours and none", g.Neighbors(0), g.Neighbors(2))
	}
	edited := func(edit func(l [][]mathx.Scored)) Snapshot {
		l := make([][]mathx.Scored, g.NumItems())
		for i := range l {
			l[i] = append([]mathx.Scored(nil), g.Neighbors(i)...)
		}
		edit(l)
		return (&GIS{neighbors: l, opts: opts}).Snapshot(false)
	}
	a, b := g.Neighbors(0)[0].Index, g.Neighbors(0)[1].Index
	for _, tc := range []struct {
		name, want string
		snap       Snapshot
	}{
		{"a neighbour with no co-rater", "item 0 entry 1: neighbour 3 is not co-rated", edited(func(l [][]mathx.Scored) {
			l[0][1].Index = 3
		})},
		{"the item itself", "item 2 entry 0: neighbour 2 is not co-rated", edited(func(l [][]mathx.Scored) {
			l[2] = []mathx.Scored{{Index: 2}}
		})},
		{"a weight the filters drop", "item 0 entry 0: neighbour 2 has an Eq. 5 weight the GIS filters drop", edited(func(l [][]mathx.Scored) {
			l[0] = []mathx.Scored{{Index: 2}}
		})},
		{"a list out of order", fmt.Sprintf("item 0 entry 1: neighbour %d ", a), edited(func(l [][]mathx.Scored) {
			l[0] = []mathx.Scored{{Index: b}, {Index: a}}
		})},
		{"a repeated neighbour", fmt.Sprintf("item 0 entry 1: neighbour %d ", a), edited(func(l [][]mathx.Scored) {
			l[0] = []mathx.Scored{{Index: a}, {Index: a}}
		})},
		{"one item short", "snapshot covers 3 items, the matrix 5", (&GIS{neighbors: [][]mathx.Scored{nil, nil, nil}, opts: opts}).Snapshot(false)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := FromSnapshot(tc.snap, m); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestNaNNeverEntersTheGIS: ratings finite but large enough that Eq. 5's
// sums overflow make a pair's weight ∞/∞ = NaN. Only positive weights
// enter the GIS (GISOptions), and a NaN is not positive, so neither
// BuildGIS nor Refresh may store one.
func TestNaNNeverEntersTheGIS(t *testing.T) {
	m := matrixFrom(t, [][]float64{
		{1e200, 1e200, 1},
		{-1e200, -1e200, 2},
		{3, 4, 3},
	})
	opts := GISOptions{Metric: PCC, MinCoRatings: 1}
	empty := &GIS{neighbors: make([][]mathx.Scored, m.NumItems()), opts: opts}
	for name, g := range map[string]*GIS{
		"BuildGIS": BuildGIS(m, opts),
		"Refresh":  empty.Refresh(m, []int{0, 1, 2}, opts),
	} {
		for i := 0; i < g.NumItems(); i++ {
			for k, n := range g.Neighbors(i) {
				if !(n.Score > 0) {
					t.Errorf("%s: item %d entry %d holds neighbour %d at weight %v", name, i, k, n.Index, n.Score)
				}
			}
		}
	}
	if sim, _ := ItemPCC(m, 0, 1); !math.IsNaN(sim) {
		t.Fatalf("ItemPCC(0, 1) = %v: the fixture no longer overflows into NaN", sim)
	}
}
