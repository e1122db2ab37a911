package cluster

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// run is Run plus the check every test here makes of what it returns:
// its centroids are the ones Derive rebuilds from the assignment, bit for
// bit — what a model file, which stores only the assignment, loads.
func run(t testing.TB, m *ratings.Matrix, opts Options) (*Result, error) {
	t.Helper()
	res, err := Run(m, opts)
	if err != nil {
		return res, err
	}
	requireDerives(t, m, res)
	return res, nil
}

// requireDerives fails unless Derive, given res's assignment alone,
// rebuilds res's Members, Mean and Count bit for bit.
func requireDerives(t testing.TB, m *ratings.Matrix, res *Result) {
	t.Helper()
	got := &Result{Assign: slices.Clone(res.Assign), K: res.K}
	if err := got.Derive(m.NumItems(), m.UserRatings); err != nil {
		t.Fatalf("Derive: %v", err)
	}
	if !slices.EqualFunc(got.Members, res.Members, slices.Equal[[]int]) {
		t.Fatalf("derived Members %v, Run returned %v", got.Members, res.Members)
	}
	for c := range res.Mean {
		for i := range res.Mean[c] {
			if math.Float64bits(got.Mean[c][i]) != math.Float64bits(res.Mean[c][i]) || got.Count[c][i] != res.Count[c][i] {
				t.Fatalf("centroid %d item %d derives as (%v, %d), Run returned (%v, %d)", c, i,
					got.Mean[c][i], got.Count[c][i], res.Mean[c][i], res.Count[c][i])
			}
		}
	}
	if !slices.EqualFunc(got.centroidMeans(), res.centroidMeans(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatal("derived centroid means diverge from Run's")
	}
}

// TestCappedRepairKeepsCentroidsTheMeanOfTheirMembers: on twinProfiles
// every sweep empties clusters and repairEmpty refills them, moving a
// user out of a donor. A cap that ends the fit right after such a sweep
// must still return each centroid as the mean of its members — the donor
// no longer counting the user it gave up — which run checks against
// Derive.
func TestCappedRepairKeepsCentroidsTheMeanOfTheirMembers(t *testing.T) {
	m := twinProfiles()
	for _, maxIter := range []int{1, 2, 3, 7} {
		opts := Options{K: 6, Seed: 1, MaxIter: maxIter}
		l := newLloyd(m, opts.K, opts)
		for iter := 0; iter < maxIter; iter++ {
			l.sweep(m, opts, (*centroids).recompute)
		}
		if !l.repaired {
			t.Fatalf("cap %d: the last sweep repaired nobody, so the fixture no longer tests the capped repair", maxIter)
		}
		res, err := run(t, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fit().Capped {
			t.Fatalf("cap %d: fit %+v did not hit the cap", maxIter, res.Fit())
		}
	}
}

// TestDeriveRefusesABadAssignment: Derive names the user whose cluster
// is outside [0, K) and refuses a K below 1, rather than panic on them.
func TestDeriveRefusesABadAssignment(t *testing.T) {
	m := blockMatrix(4, 4)
	for _, tc := range []struct {
		res  Result
		want string
	}{
		{Result{Assign: []int{0, 1, 2, 0}, K: 2}, "user 2 assigned to cluster 2"},
		{Result{Assign: []int{0, -1, 0, 0}, K: 2}, "user 1 assigned to cluster -1"},
		{Result{Assign: []int{0, 0, 0, 0}, K: 0}, "K = 0"},
	} {
		if err := tc.res.Derive(m.NumItems(), m.UserRatings); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Derive(%v, K %d): err = %v, want one naming %q", tc.res.Assign, tc.res.K, err, tc.want)
		}
	}
}

// blockMatrix builds users in two obvious taste blocks: block A loves the
// first half of the items, block B loves the second half.
func blockMatrix(p, q int) *ratings.Matrix {
	b := ratings.NewBuilder(p, q)
	for u := 0; u < p; u++ {
		lovesFirst := u < p/2
		for i := 0; i < q; i++ {
			var r float64
			if (i < q/2) == lovesFirst {
				r = 5
			} else {
				r = 1
			}
			// Leave some holes so rows are not identical.
			if (u+i)%5 == 0 {
				continue
			}
			b.MustAdd(u, i, r)
		}
	}
	return b.Build()
}

func TestKMeansSeparatesBlocks(t *testing.T) {
	m := blockMatrix(40, 20)
	res, err := run(t, m, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All users in the same block must share a cluster.
	for u := 1; u < 20; u++ {
		if res.Assign[u] != res.Assign[0] {
			t.Fatalf("block A split: user %d in %d, user 0 in %d", u, res.Assign[u], res.Assign[0])
		}
	}
	for u := 21; u < 40; u++ {
		if res.Assign[u] != res.Assign[20] {
			t.Fatalf("block B split: user %d in %d, user 20 in %d", u, res.Assign[u], res.Assign[20])
		}
	}
	if res.Assign[0] == res.Assign[20] {
		t.Fatal("blocks A and B merged into one cluster")
	}
}

func TestKMeansAssignInRangeAndMembersConsistent(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	res, err := run(t, d.Matrix, Options{K: 7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 7 {
		t.Fatalf("K = %d, want 7", res.K)
	}
	count := 0
	for c, members := range res.Members {
		for _, u := range members {
			if res.Assign[u] != c {
				t.Fatalf("user %d listed in cluster %d but assigned %d", u, c, res.Assign[u])
			}
			count++
		}
	}
	if count != d.Matrix.NumUsers() {
		t.Fatalf("members cover %d users, want %d", count, d.Matrix.NumUsers())
	}
	for u, c := range res.Assign {
		if c < 0 || c >= res.K {
			t.Fatalf("user %d assigned out-of-range cluster %d", u, c)
		}
	}
}

func TestKMeansNoEmptyClusters(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	res, err := run(t, d.Matrix, Options{K: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for c, members := range res.Members {
		if len(members) == 0 {
			t.Errorf("cluster %d is empty", c)
		}
	}
}

func TestKMeansDeterministic(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	a, err := run(t, d.Matrix, Options{K: 5, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(t, d.Matrix, Options{K: 5, Seed: 11, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for u := range a.Assign {
		if a.Assign[u] != b.Assign[u] {
			t.Fatalf("assignment differs across worker counts at user %d", u)
		}
	}
}

func TestKMeansKExceedsUsers(t *testing.T) {
	m := blockMatrix(6, 10)
	res, err := run(t, m, Options{K: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 6 {
		t.Fatalf("K clamped to %d, want 6", res.K)
	}
}

func TestKMeansInvalidK(t *testing.T) {
	m := blockMatrix(6, 10)
	if _, err := run(t, m, Options{K: 0}); err == nil {
		t.Error("K=0 must error")
	}
	if _, err := run(t, m, Options{K: -3}); err == nil {
		t.Error("negative K must error")
	}
}

func TestKMeansCentroidStats(t *testing.T) {
	m := blockMatrix(20, 10)
	res, err := run(t, m, Options{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Recompute centroid means manually from the assignment.
	for c := 0; c < res.K; c++ {
		sum := make([]float64, m.NumItems())
		cnt := make([]int32, m.NumItems())
		for _, u := range res.Members[c] {
			for _, e := range m.UserRatings(u) {
				sum[e.Index] += e.Value
				cnt[e.Index]++
			}
		}
		for i := 0; i < m.NumItems(); i++ {
			if cnt[i] != res.Count[c][i] {
				t.Fatalf("cluster %d item %d count %d, want %d", c, i, res.Count[c][i], cnt[i])
			}
			if cnt[i] > 0 {
				want := sum[i] / float64(cnt[i])
				if diff := res.Mean[c][i] - want; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("cluster %d item %d mean %g, want %g", c, i, res.Mean[c][i], want)
				}
			}
		}
	}
}

func TestKMeansEuclideanMetric(t *testing.T) {
	m := blockMatrix(30, 16)
	res, err := run(t, m, Options{K: 2, Seed: 4, Metric: Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] == res.Assign[29] {
		t.Error("euclidean metric failed to separate opposite blocks")
	}
}

func TestKMeansInertiaNonNegative(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	res, err := run(t, d.Matrix, Options{K: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia < 0 {
		t.Errorf("inertia %g < 0", res.Inertia)
	}
	if res.Iterations < 1 {
		t.Errorf("iterations %d < 1", res.Iterations)
	}
}

func TestMetricStrings(t *testing.T) {
	if PCCDistance.String() != "pcc" || Euclidean.String() != "euclidean" || Metric(42).String() != "unknown" {
		t.Error("Metric.String() mismatch")
	}
}

// TestKMeansRecoverArchetypes checks cluster purity on synthetic data:
// most users of an archetype should land in the same cluster.
func TestKMeansRecoverArchetypes(t *testing.T) {
	cfg := smallSynth()
	cfg.Archetypes = 4
	cfg.Users = 120
	d := synth.MustGenerate(cfg)
	res, err := run(t, d.Matrix, Options{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// For each archetype find its majority cluster; purity = fraction of
	// users in their archetype's majority cluster.
	counts := map[[2]int]int{}
	for u, a := range d.UserArchetype {
		counts[[2]int{a, res.Assign[u]}]++
	}
	pure := 0
	for a := 0; a < 4; a++ {
		best := 0
		for c := 0; c < res.K; c++ {
			if n := counts[[2]int{a, c}]; n > best {
				best = n
			}
		}
		pure += best
	}
	if frac := float64(pure) / float64(cfg.Users); frac < 0.7 {
		t.Errorf("cluster purity %.2f < 0.7", frac)
	}
}

func smallSynth() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Users = 100
	cfg.Items = 150
	cfg.MinPerUser = 15
	cfg.MeanPerUser = 30
	cfg.Archetypes = 8
	return cfg
}
