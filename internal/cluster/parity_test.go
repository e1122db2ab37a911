package cluster

import (
	"math"
	"math/rand"
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// refRun is Run as it was before the distance table: every sweep
// measures every user against every centroid, and every seeding round
// rescans every earlier seed. It shares distance, setFromUser, recompute
// and repairEmpty with Run (their staleness bookkeeping is ignored
// here), so the comparison pins exactly what the table and the carried
// seed distances replaced.
func refRun(m *ratings.Matrix, opts Options) *Result {
	p := m.NumUsers()
	k := opts.K
	if k > p {
		k = p
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 100
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	c := newCentroids(k, m.NumItems(), p)

	c.setFromUser(m, 0, rng.Intn(p))
	d2 := make([]float64, p)
	for cl := 1; cl < k; cl++ {
		var total float64
		for u := 0; u < p; u++ {
			best := math.Inf(1)
			for prev := 0; prev < cl; prev++ {
				if d := c.distance(m, u, prev, opts.Metric); d < best {
					best = d
				}
			}
			if math.IsInf(best, 1) {
				best = 2
			}
			d2[u] = best * best
			total += d2[u]
		}
		pick := 0
		if total > 0 {
			target := rng.Float64() * total
			acc := 0.0
			for u := 0; u < p; u++ {
				acc += d2[u]
				if acc >= target {
					pick = u
					break
				}
			}
		} else {
			pick = rng.Intn(p)
		}
		c.setFromUser(m, cl, pick)
	}

	assign := make([]int, p)
	for i := range assign {
		assign[i] = -1
	}
	dist := make([]float64, p)
	iter := 0
	for ; iter < maxIter; iter++ {
		moved := 0
		for u := 0; u < p; u++ {
			best, bestCl := math.Inf(1), 0
			for cl := 0; cl < k; cl++ {
				if d := c.distance(m, u, cl, opts.Metric); d < best {
					best, bestCl = d, cl
				}
			}
			dist[u] = best
			if math.IsInf(best, 1) {
				dist[u] = 2
			}
			if assign[u] != bestCl {
				assign[u] = bestCl
				moved++
			}
		}
		c.recompute(m, assign)
		c.repairEmpty(m, assign, dist)
		if moved == 0 {
			break
		}
	}
	res := &Result{Assign: assign, Mean: c.mean, Count: c.count, Iterations: iter + 1, K: k}
	for u := range assign {
		res.Inertia += dist[u]
	}
	return res
}

func requireSameClustering(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.K != want.K {
		t.Fatalf("iterations/K = %d/%d, want %d/%d", got.Iterations, got.K, want.Iterations, want.K)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Fatalf("inertia = %v, want %v", got.Inertia, want.Inertia)
	}
	for u := range want.Assign {
		if got.Assign[u] != want.Assign[u] {
			t.Fatalf("assign[%d] = %d, want %d", u, got.Assign[u], want.Assign[u])
		}
	}
	for c := range want.Mean {
		for i := range want.Mean[c] {
			if math.Float64bits(got.Mean[c][i]) != math.Float64bits(want.Mean[c][i]) || got.Count[c][i] != want.Count[c][i] {
				t.Fatalf("centroid %d item %d = (%v, %d), want (%v, %d)", c, i,
					got.Mean[c][i], got.Count[c][i], want.Mean[c][i], want.Count[c][i])
			}
		}
	}
}

// TestCachedSweepsMatchUncachedReference pins Run to refRun bit for bit
// on fixtures that converge, that stop at the MaxIter cap with a user
// still oscillating, and that go through repairEmpty.
func TestCachedSweepsMatchUncachedReference(t *testing.T) {
	ledger := synth.MustGenerate(synth.DefaultConfig()).Matrix
	small := synth.MustGenerate(smallSynth()).Matrix

	// Twelve copies each of two profiles: every sweep sends each user to
	// the lowest-numbered centroid of its profile, so all but two
	// clusters empty out and repairEmpty refills them, sweep after sweep
	// up to the cap.
	b := ratings.NewBuilder(24, 6)
	for u := 0; u < 24; u++ {
		for i := 0; i < 6; i++ {
			v := float64(1 + (i+u%2*3)%5)
			b.MustAdd(u, i, v)
		}
	}
	twins := b.Build()

	cases := []struct {
		name      string
		m         *ratings.Matrix
		opts      Options
		converges bool
	}{
		{"ledger fixture hits MaxIter", ledger, Options{K: 30}, false},
		{"ledger fixture capped early", ledger, Options{K: 30, MaxIter: 3}, false},
		{"small converges", small, Options{K: 5, Seed: 3}, true},
		{"small euclidean", small, Options{K: 7, Seed: 11, Metric: Euclidean}, true},
		{"one worker", small, Options{K: 5, Seed: 3, Workers: 1}, true},
		{"twins need repair", twins, Options{K: 6, Seed: 1}, false},
		{"K exceeds users", twins, Options{K: 40, Seed: 2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := refRun(tc.m, tc.opts)
			got, err := Run(tc.m, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameClustering(t, want, got)
			for c, members := range got.Members {
				if tc.m == twins && len(members) == 0 {
					t.Fatalf("cluster %d is empty: repairEmpty did not run", c)
				}
			}
			maxIter := tc.opts.MaxIter
			if maxIter <= 0 {
				maxIter = 100
			}
			if converged := got.Iterations <= maxIter; converged != tc.converges {
				t.Fatalf("Iterations = %d with cap %d: fixture no longer exercises the intended exit", got.Iterations, maxIter)
			}
		})
	}
}
