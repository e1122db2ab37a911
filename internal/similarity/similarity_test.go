package similarity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cfsf/internal/ratings"
)

// matrixFrom builds a matrix from a dense [user][item] table where 0
// means missing.
func matrixFrom(t *testing.T, table [][]float64) *ratings.Matrix {
	t.Helper()
	b := ratings.NewBuilder(len(table), len(table[0]))
	for u, row := range table {
		for i, r := range row {
			if r != 0 {
				b.MustAdd(u, i, r)
			}
		}
	}
	return b.Build()
}

func TestItemPCCPerfectCorrelation(t *testing.T) {
	// Items 0 and 1 move together across users; expect sim ≈ +1.
	m := matrixFrom(t, [][]float64{
		{1, 2, 0},
		{2, 3, 0},
		{3, 4, 0},
		{4, 5, 0},
	})
	sim, co := ItemPCC(m, 0, 1)
	if co != 4 {
		t.Fatalf("co = %d, want 4", co)
	}
	if !approx(sim, 1, 1e-9) {
		t.Errorf("sim = %g, want 1", sim)
	}
}

func TestItemPCCAntiCorrelation(t *testing.T) {
	m := matrixFrom(t, [][]float64{
		{1, 5},
		{2, 4},
		{4, 2},
		{5, 1},
	})
	sim, _ := ItemPCC(m, 0, 1)
	if !approx(sim, -1, 1e-9) {
		t.Errorf("sim = %g, want -1", sim)
	}
}

func TestItemPCCNoOverlap(t *testing.T) {
	m := matrixFrom(t, [][]float64{
		{3, 0},
		{0, 4},
	})
	sim, co := ItemPCC(m, 0, 1)
	if sim != 0 || co != 0 {
		t.Errorf("disjoint items: sim=%g co=%d, want 0,0", sim, co)
	}
}

func TestItemPCCZeroVariance(t *testing.T) {
	// Item 0 is rated identically by co-raters relative to its mean.
	m := matrixFrom(t, [][]float64{
		{3, 1},
		{3, 5},
	})
	sim, co := ItemPCC(m, 0, 1)
	if co != 2 || sim != 0 {
		t.Errorf("zero-variance item: sim=%g co=%d, want 0,2", sim, co)
	}
}

func TestUserPCCSymmetric(t *testing.T) {
	m := matrixFrom(t, [][]float64{
		{1, 2, 3, 4, 0},
		{2, 3, 4, 5, 1},
		{5, 4, 3, 2, 1},
	})
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			sab, _ := UserPCC(m, a, b)
			sba, _ := UserPCC(m, b, a)
			if !approx(sab, sba, 1e-12) {
				t.Errorf("UserPCC(%d,%d)=%g != UserPCC(%d,%d)=%g", a, b, sab, b, a, sba)
			}
		}
	}
}

func TestCosineBounds(t *testing.T) {
	m := matrixFrom(t, [][]float64{
		{1, 5, 3},
		{4, 2, 5},
		{3, 3, 3},
	})
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			if s, _ := ItemCosine(m, a, b); s < -1-1e-12 || s > 1+1e-12 {
				t.Errorf("ItemCosine(%d,%d) = %g out of [-1,1]", a, b, s)
			}
			if s, _ := UserCosine(m, a, b); s < -1-1e-12 || s > 1+1e-12 {
				t.Errorf("UserCosine(%d,%d) = %g out of [-1,1]", a, b, s)
			}
		}
	}
}

// Property: PCC is always within [-1, 1] and symmetric on random sparse
// matrices.
func TestPCCBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := 2+rng.Intn(8), 2+rng.Intn(8)
		b := ratings.NewBuilder(p, q)
		for u := 0; u < p; u++ {
			for i := 0; i < q; i++ {
				if rng.Float64() < 0.7 {
					b.MustAdd(u, i, float64(1+rng.Intn(5)))
				}
			}
		}
		m := b.Build()
		for a := 0; a < q; a++ {
			for c := a + 1; c < q; c++ {
				s1, co1 := ItemPCC(m, a, c)
				s2, co2 := ItemPCC(m, c, a)
				if co1 != co2 || !approx(s1, s2, 1e-9) {
					return false
				}
				if s1 < -1-1e-9 || s1 > 1+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSignificance(t *testing.T) {
	if got := Significance(0.8, 15, 30); !approx(got, 0.4, 1e-12) {
		t.Errorf("Significance(0.8,15,30) = %g, want 0.4", got)
	}
	if got := Significance(0.8, 40, 30); got != 0.8 {
		t.Errorf("above gamma must pass through, got %g", got)
	}
	if got := Significance(0.8, 5, 0); got != 0.8 {
		t.Errorf("gamma<=0 disables weighting, got %g", got)
	}
}

func TestBuildGISAgainstPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, q := 40, 25
	b := ratings.NewBuilder(p, q)
	for u := 0; u < p; u++ {
		for i := 0; i < q; i++ {
			if rng.Float64() < 0.5 {
				b.MustAdd(u, i, float64(1+rng.Intn(5)))
			}
		}
	}
	m := b.Build()
	opts := GISOptions{Metric: PCC, TopN: 0, MinCoRatings: 2, Workers: 4}
	g := BuildGIS(m, opts)

	for a := 0; a < q; a++ {
		// Reference: brute-force pairwise.
		want := map[int32]float64{}
		for c := 0; c < q; c++ {
			if c == a {
				continue
			}
			sim, co := ItemPCC(m, a, c)
			if co >= 2 && sim > 0 {
				want[int32(c)] = sim
			}
		}
		got := g.Neighbors(a)
		if len(got) != len(want) {
			t.Fatalf("item %d: %d neighbours, want %d", a, len(got), len(want))
		}
		for _, n := range got {
			w, ok := want[n.Index]
			if !ok || !approx(n.Score, w, 1e-9) {
				t.Fatalf("item %d neighbour %d: sim %g, want %g (present=%v)", a, n.Index, n.Score, w, ok)
			}
		}
		// Descending order.
		for i := 1; i < len(got); i++ {
			if got[i-1].Score < got[i].Score {
				t.Fatalf("item %d neighbours not sorted descending", a)
			}
		}
	}
}

func TestBuildGISTopN(t *testing.T) {
	d := denseRandom(t, 30, 20, 0.8, 3)
	g := BuildGIS(d, GISOptions{Metric: PCC, TopN: 5, MinCoRatings: 2})
	for i := 0; i < d.NumItems(); i++ {
		if len(g.Neighbors(i)) > 5 {
			t.Fatalf("item %d has %d neighbours, want <= 5", i, len(g.Neighbors(i)))
		}
	}
	if g.NumItems() != 20 {
		t.Errorf("NumItems = %d, want 20", g.NumItems())
	}
}

func TestBuildGISThreshold(t *testing.T) {
	d := denseRandom(t, 30, 20, 0.8, 3)
	g := BuildGIS(d, GISOptions{Metric: PCC, Threshold: 0.5, MinCoRatings: 2})
	for i := 0; i < d.NumItems(); i++ {
		for _, n := range g.Neighbors(i) {
			if n.Score < 0.5 {
				t.Fatalf("neighbour below threshold: %g", n.Score)
			}
		}
	}
}

func TestBuildGISDeterministicAcrossWorkers(t *testing.T) {
	d := denseRandom(t, 50, 30, 0.6, 5)
	g1 := BuildGIS(d, GISOptions{Metric: PCC, TopN: 10, MinCoRatings: 2, Workers: 1})
	g8 := BuildGIS(d, GISOptions{Metric: PCC, TopN: 10, MinCoRatings: 2, Workers: 8})
	for i := 0; i < d.NumItems(); i++ {
		a, b := g1.Neighbors(i), g8.Neighbors(i)
		if len(a) != len(b) {
			t.Fatalf("item %d: worker counts disagree on neighbour count", i)
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("item %d neighbour %d: %v vs %v", i, k, a[k], b[k])
			}
		}
	}
}

func TestGISSimLookup(t *testing.T) {
	d := denseRandom(t, 30, 10, 0.9, 11)
	g := BuildGIS(d, GISOptions{Metric: PCC, MinCoRatings: 2})
	for i := 0; i < d.NumItems(); i++ {
		for _, n := range g.Neighbors(i) {
			if s, ok := g.Sim(i, int(n.Index)); !ok || s != n.Score {
				t.Fatalf("Sim(%d,%d) = %g,%v, want %g,true", i, n.Index, s, ok, n.Score)
			}
		}
	}
	if _, ok := g.Sim(0, 0); ok {
		t.Error("self-similarity must not be stored")
	}
}

func TestGISCosineMetric(t *testing.T) {
	d := denseRandom(t, 30, 15, 0.8, 13)
	g := BuildGIS(d, GISOptions{Metric: Cosine, MinCoRatings: 2})
	for a := 0; a < d.NumItems(); a++ {
		for _, n := range g.Neighbors(a) {
			want, _ := ItemCosine(d, a, int(n.Index))
			if !approx(n.Score, want, 1e-9) {
				t.Fatalf("cosine GIS (%d,%d) = %g, want %g", a, n.Index, n.Score, want)
			}
		}
	}
}

// TestDefaultTopNIsTheMeasuredBuffer pins the default TopN buffer to the
// value DESIGN §7's sweep ("TopN is a buffer": BenchmarkApplyLedger at
// TopN 100, 110, 120, 130 and 200, then BenchmarkApplyLedgerInterleaved
// at 100, 110, 120 and 200) chose. Moving it re-opens that sweep.
func TestDefaultTopNIsTheMeasuredBuffer(t *testing.T) {
	if got := DefaultGISOptions().TopN; got != 110 {
		t.Fatalf("DefaultGISOptions().TopN = %d, the measured buffer is 110 (DESIGN §7)", got)
	}
}

func TestMetricString(t *testing.T) {
	if PCC.String() != "pcc" || Cosine.String() != "cosine" || Metric(99).String() != "unknown" {
		t.Error("Metric.String() mismatch")
	}
}

func denseRandom(t testing.TB, p, q int, density float64, seed int64) *ratings.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := ratings.NewBuilder(p, q)
	for u := 0; u < p; u++ {
		for i := 0; i < q; i++ {
			if rng.Float64() < density {
				b.MustAdd(u, i, float64(1+rng.Intn(5)))
			}
		}
	}
	return b.Build()
}

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
