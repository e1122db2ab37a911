package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// seed. Like Run, it refits the centroids once more when its last sweep
// repaired. It shares distance, setFromUser and repairEmpty with Run (their
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
	repaired := false
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
		repaired = c.repairEmpty(m, assign, dist)
		if moved == 0 {
			break
		}
	}
	if repaired {
		c.recomputeAll(m, assign)
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
			got, err := run(t, tc.m, tc.opts)
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
	c        *centroids
	table    []float64
	assign   []int
	dist     []float64
	repaired bool // the last sweep's repairEmpty moved someone
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
	l.repaired = l.c.repairEmpty(m, l.assign, l.dist)
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

			if want.repaired {
				want.c.recomputeAll(tc.m, want.assign)
			}
			res, err := run(t, tc.m, tc.opts)
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

func capOf(opts Options) int {
	if opts.MaxIter <= 0 {
		return DefaultMaxIter
	}
	return opts.MaxIter
}

// sweepToCap is Run without the cycle shortcut: the lloyd stepper swept
// until nobody moves or MaxIter sweeps have run, every one of them, and
// the centroids refitted after a last sweep that repaired, as Run does.
func sweepToCap(m *ratings.Matrix, opts Options) *Result {
	k := min(opts.K, m.NumUsers())
	l := newLloyd(m, k, opts)
	iter := 0
	for ; iter < capOf(opts); iter++ {
		if l.sweep(m, opts, (*centroids).recompute) == 0 {
			break
		}
	}
	if l.repaired {
		l.c.recompute(m, l.assign)
	}
	res := &Result{Assign: l.assign, Mean: l.c.mean, Count: l.c.count, Iterations: iter + 1, K: k}
	for u := range l.assign {
		res.Inertia += l.dist[u]
	}
	return res
}

type fixture struct {
	name string
	m    *ratings.Matrix
}

// crowded is 40 users for up to 30 clusters: repairEmpty refills a
// cluster now and then, and with K 30 and seed 2 the assignment after
// one sweep repeats one from two sweeps earlier across such a repair —
// a repeat that proves nothing, because the refilled centroid is one
// user's profile and the donor's still counts that user.
func crowded() *ratings.Matrix {
	cfg := smallSynth()
	cfg.Users, cfg.Seed = 40, 2
	return synth.MustGenerate(cfg).Matrix
}

// TestCycleStopMatchesSweepingToTheCap pins Run, which stops sweeping at
// a proven assignment cycle, to the stepper swept all the way to MaxIter:
// the same Assign, Mean, Count, Iterations and Inertia bit for bit, over
// seeds × K × metric × cap on the ledger fixture, two smaller draws and
// crowded, and on twinProfiles, where repairEmpty moves users in every
// sweep.
func TestCycleStopMatchesSweepingToTheCap(t *testing.T) {
	fixtures := []fixture{{"ledger", synth.MustGenerate(synth.DefaultConfig()).Matrix}, {"crowded", crowded()}}
	for seed := int64(2); seed < 4; seed++ {
		cfg := smallSynth()
		cfg.Seed = seed
		fixtures = append(fixtures, fixture{fmt.Sprintf("small synth %d", seed), synth.MustGenerate(cfg).Matrix})
	}
	type tc struct {
		name string
		m    *ratings.Matrix
		opts Options
	}
	var cases []tc
	caps := []int{0, 7, 100, 250}
	for _, fx := range fixtures {
		for seed := int64(0); seed < 4; seed++ {
			for _, k := range []int{5, 30} {
				for _, metric := range []Metric{PCCDistance, Euclidean} {
					for _, maxIter := range caps {
						cases = append(cases, tc{fmt.Sprintf("%s seed %d K %d %v cap %d", fx.name, seed, k, metric, maxIter),
							fx.m, Options{K: k, Seed: seed, Metric: metric, MaxIter: maxIter}})
					}
				}
			}
		}
	}
	for _, maxIter := range caps {
		cases = append(cases, tc{fmt.Sprintf("twins cap %d", maxIter), twinProfiles(), Options{K: 6, Seed: 1, MaxIter: maxIter}})
	}

	var capped, cut int
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := sweepToCap(tc.m, tc.opts)
			got, err := run(t, tc.m, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameClustering(t, want, got)
			fit := got.Fit()
			switch {
			case fit.Capped != (got.Iterations > capOf(tc.opts)):
				t.Fatalf("fit %+v with %d iterations under cap %d", fit, got.Iterations, capOf(tc.opts))
			case fit.Period > 0 && fit.Swept > fit.From+2*fit.Period-1:
				// The cycle is proven at sweep From+Period; at most
				// Period−1 sweeps follow it.
				t.Fatalf("fit %+v: swept on past the proven cycle", fit)
			case fit.Period == 0 && fit.Swept != min(got.Iterations, capOf(tc.opts)):
				t.Fatalf("fit %+v with %d iterations: without a cycle every sweep runs", fit, got.Iterations)
			}
			if fit.Capped {
				capped++
			}
			if fit.Period > 0 {
				cut++
			}
		})
	}
	t.Logf("%d of %d fits hit the cap, %d of them cut short by a cycle", capped, len(cases), cut)
	if cut == 0 || cut == capped {
		t.Fatalf("%d of %d capped fits were cut short: the grid must hold both kinds", cut, capped)
	}

	// The grid only tests the no-repair clause if some fit repeats an
	// assignment across a repair; crowded with K 30, seed 2 is that fit.
	m, opts := crowded(), Options{K: 30, Seed: 2}
	l := newLloyd(m, opts.K, opts)
	var seen [][]int
	var repaired []bool
	for iter := 0; iter < DefaultMaxIter && l.sweep(m, opts, (*centroids).recompute) > 0; iter++ {
		seen, repaired = append(seen, slices.Clone(l.assign)), append(repaired, l.repaired)
		for p := 2; p < maxPeriod && iter-p >= 0; p++ {
			if slices.Equal(l.assign, seen[iter-p]) && slices.Contains(repaired[iter-p:], true) {
				return
			}
		}
	}
	t.Fatal("crowded no longer repeats an assignment across a repair: the grid does not test the no-repair clause")
}

// TestLedgerFixtureStopsAtItsCycle pins what the shortcut buys on the
// fixture every first boot trains: a fit reported as hitting the cap at
// 101 iterations, as it always has, in at most ten sweeps.
func TestLedgerFixtureStopsAtItsCycle(t *testing.T) {
	res, err := run(t, synth.MustGenerate(synth.DefaultConfig()).Matrix, Options{K: 30})
	if err != nil {
		t.Fatal(err)
	}
	fit := res.Fit()
	t.Log(res.Summary())
	if res.Iterations != DefaultMaxIter+1 || !fit.Capped {
		t.Fatalf("Iterations = %d, fit %+v: the ledger fit must still report the cap (%d)", res.Iterations, fit, DefaultMaxIter+1)
	}
	if fit.Swept > 10 || fit.Period == 0 {
		t.Fatalf("fit %+v: the ledger fixture must stop at its cycle within 10 sweeps", fit)
	}
}
