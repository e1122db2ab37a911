package similarity

import (
	"math"
	"testing"

	"cfsf/internal/ratings"
)

// contentFixture: 3 items; items 0 and 1 share a genre, item 2 is
// different. Item 2 has no ratings at all (cold).
func contentFixture(t *testing.T) (*ratings.Matrix, [][]float64) {
	t.Helper()
	b := ratings.NewBuilder(4, 3)
	b.MustAdd(0, 0, 5)
	b.MustAdd(0, 1, 4)
	b.MustAdd(1, 0, 2)
	b.MustAdd(1, 1, 1)
	b.MustAdd(2, 0, 4)
	b.MustAdd(2, 1, 5)
	m := b.Build()
	features := [][]float64{
		{1, 0},
		{1, 0},
		{0, 1},
	}
	return m, features
}

func TestContentBlendZeroEqualsPlainGIS(t *testing.T) {
	m, features := contentFixture(t)
	opts := GISOptions{Metric: PCC, MinCoRatings: 2}
	plain := BuildGIS(m, opts)
	blended := BuildGISWithContent(m, features, 0, opts)
	for i := 0; i < m.NumItems(); i++ {
		a, b := plain.Neighbors(i), blended.Neighbors(i)
		if len(a) != len(b) {
			t.Fatalf("item %d: blend=0 differs from plain GIS", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("item %d entry %d differs", i, k)
			}
		}
	}
}

func TestContentPureBlendFollowsGenres(t *testing.T) {
	m, features := contentFixture(t)
	g := BuildGISWithContent(m, features, 1, GISOptions{Metric: PCC, MinCoRatings: 2})
	// Items 0 and 1 share a genre: cosine 1; item 2 has cosine 0 with
	// both and must have no positive neighbours.
	n0 := g.Neighbors(0)
	if len(n0) != 1 || n0[0].Index != 1 || math.Abs(n0[0].Score-1) > 1e-12 {
		t.Errorf("item 0 pure-content neighbours = %v, want [{1 1}]", n0)
	}
	if len(g.Neighbors(2)) != 0 {
		t.Errorf("disjoint-genre item has neighbours: %v", g.Neighbors(2))
	}
}

func TestContentGivesColdItemsNeighbors(t *testing.T) {
	// Cold item 2 gets content neighbours under a blend even though it
	// has no co-ratings.
	b := ratings.NewBuilder(3, 3)
	b.MustAdd(0, 0, 5)
	b.MustAdd(1, 0, 3)
	b.MustAdd(0, 1, 4)
	b.MustAdd(1, 1, 2)
	m := b.Build()
	features := [][]float64{{1, 0}, {0, 1}, {1, 0}} // item 2 shares genre with item 0
	plain := BuildGIS(m, GISOptions{Metric: PCC, MinCoRatings: 2})
	if len(plain.Neighbors(2)) != 0 {
		t.Fatal("cold item unexpectedly has CF neighbours")
	}
	g := BuildGISWithContent(m, features, 0.5, GISOptions{Metric: PCC, MinCoRatings: 2})
	n2 := g.Neighbors(2)
	if len(n2) == 0 {
		t.Fatal("cold item has no blended neighbours")
	}
	if n2[0].Index != 0 {
		t.Errorf("cold item's best neighbour = %d, want 0 (shared genre)", n2[0].Index)
	}
	if math.Abs(n2[0].Score-0.5) > 1e-12 {
		t.Errorf("blended score %g, want 0.5 (blend × cosine 1)", n2[0].Score)
	}
}

func TestContentBlendArithmetic(t *testing.T) {
	m, features := contentFixture(t)
	opts := GISOptions{Metric: PCC, MinCoRatings: 2}
	cfSim, _ := ItemPCC(m, 0, 1)
	g := BuildGISWithContent(m, features, 0.3, opts)
	got, ok := g.Sim(0, 1)
	if !ok {
		t.Fatal("pair (0,1) missing")
	}
	want := 0.7*cfSim + 0.3*1
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("blended sim %g, want %g", got, want)
	}
}

func TestContentBlendClamped(t *testing.T) {
	m, features := contentFixture(t)
	over := BuildGISWithContent(m, features, 5, GISOptions{Metric: PCC, MinCoRatings: 2})
	pure := BuildGISWithContent(m, features, 1, GISOptions{Metric: PCC, MinCoRatings: 2})
	for i := 0; i < m.NumItems(); i++ {
		a, b := over.Neighbors(i), pure.Neighbors(i)
		if len(a) != len(b) {
			t.Fatalf("blend>1 not clamped to 1 at item %d", i)
		}
	}
}

func TestContentDeterministicAcrossWorkers(t *testing.T) {
	d := denseRandom(t, 40, 20, 0.5, 31)
	features := make([][]float64, 20)
	for i := range features {
		features[i] = []float64{float64(i % 3), float64((i + 1) % 2)}
	}
	opts := GISOptions{Metric: PCC, MinCoRatings: 2, TopN: 8}
	a := BuildGISWithContent(d, features, 0.4, GISOptions{Metric: PCC, MinCoRatings: 2, TopN: 8, Workers: 1})
	opts.Workers = 8
	b := BuildGISWithContent(d, features, 0.4, opts)
	for i := 0; i < 20; i++ {
		na, nb := a.Neighbors(i), b.Neighbors(i)
		if len(na) != len(nb) {
			t.Fatalf("worker counts disagree at item %d", i)
		}
		for k := range na {
			if na[k] != nb[k] {
				t.Fatalf("worker counts disagree at item %d entry %d", i, k)
			}
		}
	}
	requireHolders(t, b, "blended GIS")
	requireHolders(t, b.Refresh(d, []int{2, 5}, 4), "blended GIS refreshed")
}
