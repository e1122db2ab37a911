package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// recomputeAll is recompute as it was before it skipped the centroids
// that are not stale: the same marking, then every centroid zeroed,
// re-accumulated and re-averaged. It is the reference the stale-only
// recompute must match bit for bit.
func (c *centroids) recomputeAll(m *ratings.Matrix, assign []int) {
	for u, cl := range assign {
		if was := c.fitted[u]; was != cl {
			c.stale[cl] = true
			if was >= 0 {
				c.stale[was] = true
			}
			c.fitted[u] = cl
		}
	}
	for cl, seeded := range c.seeded {
		if seeded {
			c.stale[cl], c.seeded[cl] = true, false
		}
	}
	for cl := 0; cl < c.k; cl++ {
		mean, count := c.mean[cl], c.count[cl]
		for i := range mean {
			mean[i], count[i] = 0, 0
		}
	}
	for u, cl := range assign {
		mean, count := c.mean[cl], c.count[cl]
		for _, e := range m.UserRatings(u) {
			mean[e.Index] += e.Value
			count[e.Index]++
		}
	}
	for cl := 0; cl < c.k; cl++ {
		mean, count := c.mean[cl], c.count[cl]
		var sum float64
		n := 0
		for i := range mean {
			if count[i] > 0 {
				mean[i] /= float64(count[i])
				sum += mean[i]
				n++
			}
		}
		if n > 0 {
			c.overall[cl] = sum / float64(n)
		} else {
			c.overall[cl] = 0
		}
	}
}

// refRun is Run as it was before the distance table and the stale-only
// recompute: every sweep measures every user against every centroid and
// rebuilds every centroid, and every seeding round rescans every earlier
// seed. It shares distance, setFromUser and repairEmpty with Run (their
// staleness bookkeeping is ignored here), so the comparison pins exactly
// what the table, the carried seed distances and the skipped rebuilds
// replaced.
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
		c.recomputeAll(m, assign)
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

// twinProfiles is twelve copies each of two profiles: every sweep sends
// each user to the lowest-numbered centroid of its profile, so all but
// two clusters empty out and repairEmpty refills them, sweep after sweep
// up to the cap.
func twinProfiles() *ratings.Matrix {
	b := ratings.NewBuilder(24, 6)
	for u := 0; u < 24; u++ {
		for i := 0; i < 6; i++ {
			v := float64(1 + (i+u%2*3)%5)
			b.MustAdd(u, i, v)
		}
	}
	return b.Build()
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

	twins := twinProfiles()

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

// lloyd is the state of Run's sweep loop, so a test can step it with
// either recompute and look at the centroids in between.
type lloyd struct {
	c      *centroids
	table  []float64
	assign []int
	dist   []float64
}

func newLloyd(m *ratings.Matrix, k int, opts Options) *lloyd {
	p := m.NumUsers()
	l := &lloyd{c: newCentroids(k, m.NumItems(), p), table: make([]float64, p*k), assign: make([]int, p), dist: make([]float64, p)}
	l.c.seedPlusPlus(m, rand.New(rand.NewSource(opts.Seed)), opts)
	for u := range l.assign {
		l.assign[u] = -1
	}
	return l
}

func (l *lloyd) sweep(m *ratings.Matrix, opts Options, recompute func(*centroids, *ratings.Matrix, []int)) (moved int) {
	moved = assignAll(m, l.c, l.table, l.assign, l.dist, opts)
	recompute(l.c, m, l.assign)
	l.c.repairEmpty(m, l.assign, l.dist)
	return moved
}

// TestStaleOnlyRecomputeMatchesFullRebuild steps Run's sweep loop twice
// in lockstep, once with recompute and once with recomputeAll, and
// demands the same centroids, overall means, stale flags, assignment and
// distances after every sweep, then the same Result from Run itself.
func TestStaleOnlyRecomputeMatchesFullRebuild(t *testing.T) {
	ledger := synth.MustGenerate(synth.DefaultConfig()).Matrix
	small := synth.MustGenerate(smallSynth()).Matrix
	type tc struct {
		name string
		m    *ratings.Matrix
		opts Options
	}
	cases := []tc{
		{"twins need repair", twinProfiles(), Options{K: 6, Seed: 1}},
		{"small euclidean", small, Options{K: 7, Seed: 11, Metric: Euclidean}},
	}
	for seed := int64(0); seed < 4; seed++ {
		for _, k := range []int{5, 30} {
			cases = append(cases, tc{fmt.Sprintf("ledger seed %d K %d", seed, k), ledger, Options{K: k, Seed: seed}})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := newLloyd(tc.m, tc.opts.K, tc.opts), newLloyd(tc.m, tc.opts.K, tc.opts)
			skipped, iter := 0, 0
			for ; iter < DefaultMaxIter; iter++ {
				moved := got.sweep(tc.m, tc.opts, (*centroids).recompute)
				if ref := want.sweep(tc.m, tc.opts, (*centroids).recomputeAll); ref != moved {
					t.Fatalf("sweep %d moved %d users, reference %d", iter, moved, ref)
				}
				for cl := 0; cl < tc.opts.K; cl++ {
					if got.c.stale[cl] != want.c.stale[cl] || math.Float64bits(got.c.overall[cl]) != math.Float64bits(want.c.overall[cl]) {
						t.Fatalf("sweep %d centroid %d: stale/overall = %v/%v, reference %v/%v", iter, cl,
							got.c.stale[cl], got.c.overall[cl], want.c.stale[cl], want.c.overall[cl])
					}
					if !got.c.stale[cl] {
						skipped++
					}
					for i := range want.c.mean[cl] {
						if math.Float64bits(got.c.mean[cl][i]) != math.Float64bits(want.c.mean[cl][i]) || got.c.count[cl][i] != want.c.count[cl][i] {
							t.Fatalf("sweep %d centroid %d item %d = (%v, %d), reference (%v, %d)", iter, cl, i,
								got.c.mean[cl][i], got.c.count[cl][i], want.c.mean[cl][i], want.c.count[cl][i])
						}
					}
				}
				for u := range want.assign {
					if got.assign[u] != want.assign[u] || math.Float64bits(got.dist[u]) != math.Float64bits(want.dist[u]) {
						t.Fatalf("sweep %d user %d: assign/dist = %d/%v, reference %d/%v", iter, u,
							got.assign[u], got.dist[u], want.assign[u], want.dist[u])
					}
				}
				if moved == 0 {
					break
				}
			}
			if skipped == 0 && iter > 0 {
				t.Fatalf("no centroid was ever left alone in %d sweeps: the fixture does not exercise the skip", iter+1)
			}

			res, err := Run(tc.m, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := &Result{Assign: want.assign, Mean: want.c.mean, Count: want.c.count, Iterations: iter + 1, K: tc.opts.K}
			for u := range want.assign {
				ref.Inertia += want.dist[u]
			}
			requireSameClustering(t, ref, res)
			for cl, members := range res.Members {
				for _, u := range members {
					if want.assign[u] != cl {
						t.Fatalf("Members[%d] holds user %d, reference assigns it to %d", cl, u, want.assign[u])
					}
				}
			}
		})
	}
}
