package smoothing

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

func fixture(t *testing.T) (*ratings.Matrix, *cluster.Result, *Smoother) {
	t.Helper()
	// 4 users, 3 items. Clusters fixed by hand: {0,1} and {2,3}.
	b := ratings.NewBuilder(4, 3)
	b.MustAdd(0, 0, 4) // user 0: mean 3
	b.MustAdd(0, 1, 2)
	b.MustAdd(1, 0, 5) // user 1: mean 5
	b.MustAdd(2, 1, 1) // user 2: mean 2
	b.MustAdd(2, 2, 3)
	b.MustAdd(3, 2, 4) // user 3: mean 4
	m := b.Build()
	cl := &cluster.Result{
		Assign:  []int{0, 0, 1, 1},
		Members: [][]int{{0, 1}, {2, 3}},
		K:       2,
	}
	return m, cl, New(m, cl)
}

func TestSmootherKeepsObserved(t *testing.T) {
	m, _, s := fixture(t)
	for u := 0; u < m.NumUsers(); u++ {
		for _, e := range m.UserRatings(u) {
			v, orig := s.Rating(u, int(e.Index))
			if !orig {
				t.Fatalf("observed (%d,%d) reported as smoothed", u, e.Index)
			}
			if v != e.Value {
				t.Fatalf("observed (%d,%d) = %g, want %g", u, e.Index, v, e.Value)
			}
		}
	}
}

func TestSmootherEq7(t *testing.T) {
	_, _, s := fixture(t)
	// Cluster 0 deviations: item 0 rated by u0 (4-3=1) and u1 (5-5=0) →
	// Δ = 0.5. Item 1 rated by u0 (2-3=-1) → Δ = -1. Item 2: none.
	if d, ok := s.Deviation(0, 0); !ok || !approx(d, 0.5) {
		t.Errorf("Δ(0,0) = %g,%v, want 0.5,true", d, ok)
	}
	if d, ok := s.Deviation(0, 1); !ok || !approx(d, -1) {
		t.Errorf("Δ(0,1) = %g,%v, want -1,true", d, ok)
	}
	if _, ok := s.Deviation(0, 2); ok {
		t.Error("Δ(0,2) must be unavailable")
	}
	// Smoothed value for user 1 (mean 5) on item 1: 5 + (-1) = 4.
	if v, orig := s.Rating(1, 1); orig || !approx(v, 4) {
		t.Errorf("smoothed (1,1) = %g,%v, want 4,false", v, orig)
	}
	// User 1 on item 2: cluster 0 has no raters → global deviation.
	// Global Δ(item2) = (3-2 + 4-4)/2 = 0.5 → 5 + 0.5 = 5.5.
	if v, orig := s.Rating(1, 2); orig || !approx(v, 5.5) {
		t.Errorf("smoothed (1,2) = %g,%v, want 5.5,false", v, orig)
	}
}

func TestFillMatchesRatingForUnobserved(t *testing.T) {
	m, _, s := fixture(t)
	for u := 0; u < m.NumUsers(); u++ {
		for i := 0; i < m.NumItems(); i++ {
			if _, ok := m.Rating(u, i); ok {
				continue
			}
			want, _ := s.Rating(u, i)
			if got := s.Fill(u, i); !approx(got, want) {
				t.Fatalf("Fill(%d,%d) = %g, want %g", u, i, got, want)
			}
		}
	}
}

func TestSmootherAccessors(t *testing.T) {
	m, cl, s := fixture(t)
	if s.NumClusters() != 2 {
		t.Errorf("NumClusters = %d, want 2", s.NumClusters())
	}
	if s.Matrix() != m {
		t.Error("Matrix() must return the source matrix")
	}
	for u, c := range cl.Assign {
		if s.Cluster(u) != c {
			t.Errorf("Cluster(%d) = %d, want %d", u, s.Cluster(u), c)
		}
	}
}

func TestUserClusterSimBounds(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	cl, err := cluster.Run(d.Matrix, cluster.Options{K: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(d.Matrix, cl)
	for u := 0; u < d.Matrix.NumUsers(); u++ {
		for c := 0; c < cl.K; c++ {
			sim := s.UserClusterSim(u, c)
			if sim < -1-1e-9 || sim > 1+1e-9 {
				t.Fatalf("UserClusterSim(%d,%d) = %g out of [-1,1]", u, c, sim)
			}
		}
	}
}

// refRankClusters is an independent Eq. 9 ranking: every cluster's
// UserClusterSim, then a stable sort by similarity descending, cluster id
// ascending.
func refRankClusters(s *Smoother, u int) ([]int32, []float64) {
	sims := make([]float64, s.NumClusters())
	order := make([]int32, s.NumClusters())
	for c := range sims {
		sims[c] = s.UserClusterSim(u, c)
		order[c] = int32(c)
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := sims[order[a]], sims[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	return order, sims
}

// blockMatrix gives each of groups user groups its own block of items,
// with a stray rating outside it now and then. A user then overlaps few
// clusters' deviations, so most of their Eq. 9 similarities are exactly
// 0 and only the cluster-id tiebreak ranks them.
func blockMatrix(rng *rand.Rand, users, groups, perBlock int) *ratings.Matrix {
	b := ratings.NewBuilder(users, groups*perBlock).SetScale(1, 5)
	for u := 0; u < users; u++ {
		g := u % groups
		for i := 0; i < perBlock; i++ {
			if rng.Float64() < 0.8 {
				b.MustAdd(u, g*perBlock+i, float64(1+rng.Intn(5)))
			}
		}
		if rng.Float64() < 0.3 {
			b.MustAdd(u, rng.Intn(groups*perBlock), float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// TestICluster pins RankClusters to refRankClusters for every user of two
// fixtures: the synthetic one, and a block fixture dense in similarity-0
// ties that only the cluster-id tiebreak orders. One pair of buffers is
// reused across users, as the online phase's pooled scratch is, so a
// ranking that leaked state from the previous user would show.
func TestICluster(t *testing.T) {
	const users, groups, perBlock = 72, 9, 5
	for _, fx := range []struct {
		name string
		m    *ratings.Matrix
		k    int
	}{
		{"synth", synth.MustGenerate(smallSynth()).Matrix, 6},
		{"blocks", blockMatrix(rand.New(rand.NewSource(4)), users, groups, perBlock), groups},
	} {
		t.Run(fx.name, func(t *testing.T) {
			cl, err := cluster.Run(fx.m, cluster.Options{K: fx.k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			s := New(fx.m, cl)
			var order []int32
			var sims []float64
			tied := 0
			for u := 0; u < fx.m.NumUsers(); u++ {
				prevOrder := order
				order, sims = s.RankClusters(u, order, sims)
				if u > 0 && &order[0] != &prevOrder[0] {
					t.Fatalf("user %d: a buffer of capacity %d was reallocated", u, cap(prevOrder))
				}
				wantOrder, wantSims := refRankClusters(s, u)
				if !slices.Equal(order, wantOrder) {
					t.Fatalf("user %d: order %v, want %v", u, order, wantOrder)
				}
				for c := range wantSims {
					if math.Float64bits(sims[c]) != math.Float64bits(wantSims[c]) {
						t.Fatalf("user %d cluster %d: sim %v, want %v", u, c, sims[c], wantSims[c])
					}
				}
				zeros := 0
				for _, v := range sims {
					if v == 0 {
						zeros++
					}
				}
				if zeros >= 2 {
					tied++
				}
			}
			if fx.name == "blocks" && tied < users/2 {
				t.Fatalf("only %d of %d users have tied similarities: fixture lost its ties", tied, users)
			}
		})
	}
}

// Property: on random matrices and clusterings, every smoothed value is
// finite, observed cells keep their values, and Fill agrees with Rating.
func TestSmootherProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := 3+rng.Intn(12), 2+rng.Intn(12)
		k := 1 + rng.Intn(4)
		b := ratings.NewBuilder(p, q)
		for u := 0; u < p; u++ {
			for i := 0; i < q; i++ {
				if rng.Float64() < 0.4 {
					b.MustAdd(u, i, float64(1+rng.Intn(5)))
				}
			}
		}
		m := b.Build()
		cl := &cluster.Result{K: k, Assign: make([]int, p), Members: make([][]int, k)}
		for u := 0; u < p; u++ {
			c := rng.Intn(k)
			cl.Assign[u] = c
			cl.Members[c] = append(cl.Members[c], u)
		}
		s := New(m, cl)
		for u := 0; u < p; u++ {
			for i := 0; i < q; i++ {
				v, orig := s.Rating(u, i)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
				if r, ok := m.Rating(u, i); ok {
					if !orig || v != r {
						return false
					}
				} else {
					if orig || !approx(v, s.Fill(u, i)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func smallSynth() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Users = 80
	cfg.Items = 100
	cfg.MinPerUser = 12
	cfg.MeanPerUser = 25
	cfg.Archetypes = 6
	return cfg
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
