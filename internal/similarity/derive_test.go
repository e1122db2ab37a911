package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// requireDerives checks that g's horizons alone, snapshotted, load on m
// as g itself: every list selected under its horizon — ids, order and
// weight bits.
func requireDerives(t *testing.T, g *GIS, m *ratings.Matrix, ctx string) {
	t.Helper()
	got, err := FromSnapshot(g.Snapshot(), m)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	requireSameGIS(t, g, got, ctx)
	if got.Options() != g.Options() {
		t.Fatalf("%s: options = %+v, want %+v", ctx, got.Options(), g.Options())
	}
}

// TestDerivedWeightsAreTheServedOnes: every list BuildGIS builds, and
// every list a chain of Refresh calls leaves in place or writes, is the
// one FromSnapshot selects on the matrix under the list's horizon, every
// weight to the bit — under PCC
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
				g = g.Refresh(m, items, 5)
				requireDerives(t, g, m, fmt.Sprintf("%s refresh step %d", ctx, step))
			}
		}
	}

	m := ledgerMatrix(t, 1)
	requireDerives(t, BuildGIS(m, DefaultGISOptions()), m, "ledger fixture")
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
	empty := testGIS(make([][]mathx.Scored, m.NumItems()), nil, opts)
	for name, g := range map[string]*GIS{
		"BuildGIS": BuildGIS(m, opts),
		"Refresh":  empty.Refresh(m, []int{0, 1, 2}, 0),
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
