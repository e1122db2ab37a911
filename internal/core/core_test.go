package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

func smallSynth() synth.Config {
	cfg := synth.DefaultConfig()
	cfg.Users = 120
	cfg.Items = 150
	cfg.MinPerUser = 15
	cfg.MeanPerUser = 30
	cfg.Archetypes = 8
	return cfg
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.M = 20
	cfg.K = 10
	cfg.Clusters = 8
	return cfg
}

func trainSmall(t *testing.T) (*Model, *synth.Dataset) {
	t.Helper()
	d := synth.MustGenerate(smallSynth())
	mod, err := Train(d.Matrix, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return mod, d
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.M = 0 },
		func(c *Config) { c.K = -1 },
		func(c *Config) { c.Clusters = 0 },
		func(c *Config) { c.Lambda = -0.1 },
		func(c *Config) { c.Lambda = 1.1 },
		func(c *Config) { c.Delta = 2 },
		func(c *Config) { c.OriginalWeight = -0.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestTrainRejectsEmptyMatrix(t *testing.T) {
	if _, err := Train(ratings.NewBuilder(0, 0).Build(), DefaultConfig()); err == nil {
		t.Error("empty matrix must error")
	}
}

func TestTrainStatsPopulated(t *testing.T) {
	mod, _ := trainSmall(t)
	st := mod.Stats()
	if st.GISNeighbors <= 0 {
		t.Error("GIS has no neighbours")
	}
	if st.ClusterIters < 1 {
		t.Error("clustering reported no iterations")
	}
	if st.TotalDuration <= 0 {
		t.Error("total duration not recorded")
	}
	if mod.GIS() == nil || mod.Clusters() == nil || mod.Smoother() == nil {
		t.Error("model accessors returned nil")
	}
	if mod.Config().M != 20 {
		t.Error("Config() does not round-trip")
	}
}

func TestPredictionsWithinScale(t *testing.T) {
	mod, d := trainSmall(t)
	m := d.Matrix
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 500; n++ {
		u, i := rng.Intn(m.NumUsers()), rng.Intn(m.NumItems())
		v := mod.Predict(u, i)
		if v < m.MinRating() || v > m.MaxRating() || math.IsNaN(v) {
			t.Fatalf("Predict(%d,%d) = %g outside [%g,%g]", u, i, v, m.MinRating(), m.MaxRating())
		}
	}
}

func TestPredictDetailedComponents(t *testing.T) {
	mod, d := trainSmall(t)
	found := false
	for u := 0; u < 20 && !found; u++ {
		for i := 0; i < 30; i++ {
			p := mod.PredictDetailed(u, i)
			if p.HasSIR && p.HasSUR && p.HasSUIR {
				found = true
				// The fused value must lie inside the clamped hull of the
				// components' fusion; verify Eq. 14 arithmetic directly.
				cfg := mod.Config()
				want := (1-cfg.Delta)*(1-cfg.Lambda)*p.SIR +
					(1-cfg.Delta)*cfg.Lambda*p.SUR +
					cfg.Delta*p.SUIR
				want = clamp(want, d.Matrix.MinRating(), d.Matrix.MaxRating())
				if math.Abs(want-p.Value) > 1e-9 {
					t.Fatalf("Eq14 fusion = %g, PredictDetailed = %g", want, p.Value)
				}
				if p.ItemsUsed > cfg.M || p.UsersUsed > cfg.K {
					t.Fatalf("local matrix %d×%d exceeds M×K %d×%d",
						p.ItemsUsed, p.UsersUsed, cfg.M, cfg.K)
				}
				break
			}
		}
	}
	if !found {
		t.Fatal("no prediction had all three components")
	}
}

func TestPredictOutOfRangeFallsBack(t *testing.T) {
	mod, d := trainSmall(t)
	m := d.Matrix
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {m.NumUsers(), 0}, {0, m.NumItems()}} {
		v := mod.Predict(pair[0], pair[1])
		if math.IsNaN(v) || v < m.MinRating() || v > m.MaxRating() {
			t.Errorf("out-of-range Predict(%d,%d) = %g", pair[0], pair[1], v)
		}
	}
}

func TestPredictBatchMatchesSerial(t *testing.T) {
	mod, d := trainSmall(t)
	rng := rand.New(rand.NewSource(9))
	pairs := make([]Pair, 200)
	for k := range pairs {
		pairs[k] = Pair{rng.Intn(d.Matrix.NumUsers()), rng.Intn(d.Matrix.NumItems())}
	}
	batch := mod.PredictBatch(pairs)
	for k, p := range pairs {
		if got := mod.Predict(p.User, p.Item); got != batch[k] {
			t.Fatalf("batch[%d] = %g, serial = %g", k, batch[k], got)
		}
	}
}

func TestPredictConcurrentSafe(t *testing.T) {
	mod, d := trainSmall(t)
	var wg sync.WaitGroup
	results := make([][]float64, 8)
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 100)
			for k := range out {
				out[k] = mod.Predict(k%d.Matrix.NumUsers(), (k*7)%d.Matrix.NumItems())
			}
			results[g] = out
		}()
	}
	wg.Wait()
	for g := 1; g < 8; g++ {
		for k := range results[g] {
			if results[g][k] != results[0][k] {
				t.Fatalf("goroutine %d diverged at %d: %g vs %g", g, k, results[g][k], results[0][k])
			}
		}
	}
}

func TestCacheDoesNotChangeResults(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	cfg := smallConfig()
	withCache, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableCache = true
	noCache, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 30; u++ {
		for i := 0; i < 10; i++ {
			a, b := withCache.Predict(u, i), noCache.Predict(u, i)
			if a != b {
				t.Fatalf("cache changed Predict(%d,%d): %g vs %g", u, i, a, b)
			}
		}
	}
}

func TestLambdaDeltaExtremes(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	// δ=1: prediction must equal clamped SUIR′ when available.
	cfg := smallConfig()
	cfg.Delta = 1
	mod, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := mod.PredictDetailed(0, 0)
	if p.HasSUIR {
		want := clamp(p.SUIR, d.Matrix.MinRating(), d.Matrix.MaxRating())
		if math.Abs(p.Value-want) > 1e-9 {
			t.Errorf("δ=1 prediction %g, want SUIR %g", p.Value, want)
		}
	}
	// λ=0, δ=0: prediction equals clamped SIR′.
	cfg = smallConfig()
	cfg.Lambda, cfg.Delta = 0, 0
	mod, err = Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p = mod.PredictDetailed(0, 0)
	if p.HasSIR {
		want := clamp(p.SIR, d.Matrix.MinRating(), d.Matrix.MaxRating())
		if math.Abs(p.Value-want) > 1e-9 {
			t.Errorf("λ=0,δ=0 prediction %g, want SIR %g", p.Value, want)
		}
	}
}

func TestRecommendExcludesRatedAndSorted(t *testing.T) {
	mod, d := trainSmall(t)
	u := 5
	recs := mod.Recommend(u, 15)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	rated := map[int]bool{}
	for _, e := range d.Matrix.UserRatings(u) {
		rated[int(e.Index)] = true
	}
	for k, r := range recs {
		if rated[r.Item] {
			t.Fatalf("recommended already-rated item %d", r.Item)
		}
		if k > 0 && recs[k-1].Score < r.Score {
			t.Fatalf("recommendations not sorted: %g before %g", recs[k-1].Score, r.Score)
		}
	}
}

func TestRecommendEdgeCases(t *testing.T) {
	mod, _ := trainSmall(t)
	if recs := mod.Recommend(0, 0); recs != nil {
		t.Error("n=0 must return nil")
	}
	if recs := mod.Recommend(-1, 5); recs != nil {
		t.Error("invalid user must return nil")
	}
	if recs := mod.Recommend(0, 1000000); len(recs) > 150 {
		t.Error("n larger than catalogue must cap at item count")
	}
}

func TestFullUserSearchConsistent(t *testing.T) {
	// Full user search considers a superset of candidates, so its
	// selected neighbours must have similarity >= the iCluster-selected
	// ones (it can only find better candidates).
	d := synth.MustGenerate(smallSynth())
	cfg := smallConfig()
	fast, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FullUserSearch = true
	full, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		fastN := fast.likeMindedUsers(u)
		fullN := full.likeMindedUsers(u)
		if len(fullN) < len(fastN) {
			t.Fatalf("user %d: full search found fewer neighbours (%d < %d)", u, len(fullN), len(fastN))
		}
		if len(fastN) > 0 && len(fullN) > 0 && fullN[0].sim+1e-12 < fastN[0].sim {
			t.Fatalf("user %d: full search best sim %g below iCluster %g", u, fullN[0].sim, fastN[0].sim)
		}
	}
}

func TestDisableSmoothingStillPredicts(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	cfg := smallConfig()
	cfg.DisableSmoothing = true
	mod, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 10; u++ {
		v := mod.Predict(u, u)
		if math.IsNaN(v) || v < 1 || v > 5 {
			t.Fatalf("no-smoothing Predict(%d,%d) = %g", u, u, v)
		}
	}
}

func TestEq10SimBounds(t *testing.T) {
	mod, d := trainSmall(t)
	rng := rand.New(rand.NewSource(17))
	sc := new(lmScratch)
	for n := 0; n < 300; n++ {
		a, b := rng.Intn(d.Matrix.NumUsers()), rng.Intn(d.Matrix.NumUsers())
		if a == b {
			continue
		}
		active := mod.indexActive(a, sc)
		s := active.sim(b)
		active.unindex()
		if s < -1-1e-9 || s > 1+1e-9 || math.IsNaN(s) {
			t.Fatalf("Eq. 10 sim(%d,%d) = %g out of [-1,1]", a, b, s)
		}
	}
}

func TestPairSim(t *testing.T) {
	// Eq. 13: sim_i·sim_u / sqrt(sim_i² + sim_u²).
	if got, want := pairSim(3, 4), 12.0/5.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("pairSim(3,4) = %g, want %g", got, want)
	}
	if pairSim(0, 0) != 0 {
		t.Error("pairSim(0,0) must be 0")
	}
	if pairSim(0.5, 0) != 0 {
		t.Error("pairSim with zero user sim must be 0")
	}
}

// Property: predictions are deterministic and within scale for random
// (user, item) pairs across retrains with the same seed.
func TestPredictDeterministicProperty(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	m1, err := Train(d.Matrix, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(d.Matrix, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(uRaw, iRaw uint16) bool {
		u := int(uRaw) % d.Matrix.NumUsers()
		i := int(iRaw) % d.Matrix.NumItems()
		a, b := m1.Predict(u, i), m2.Predict(u, i)
		return a == b && a >= 1 && a <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSmoothingImprovesSparseAccuracy is the headline behavioural check:
// on a Given-N split, smoothing must reduce MAE versus no smoothing.
func TestSmoothingImprovesSparseAccuracy(t *testing.T) {
	d := synth.MustGenerate(synth.Config{
		Users: 200, Items: 300, Archetypes: 12, Genres: 12, Seed: 5,
		MinPerUser: 20, MeanPerUser: 35, AffinityGain: 2.0,
		ArchetypeSpread: 0.1, UserBiasStd: 0.55, UserScaleStd: 0.35,
		ItemBiasStd: 0.25, NoiseStd: 0.45, JunkProb: 0.03,
		PopularitySkew: 0.8, AffinitySelect: 1.0,
	})
	split, err := ratings.MLSplit(d.Matrix, 120, 80, 10)
	if err != nil {
		t.Fatal(err)
	}
	mae := func(cfg Config) float64 {
		mod, err := Train(split.Matrix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, tg := range split.Targets {
			sum += math.Abs(mod.Predict(tg.User, tg.Item) - tg.Actual)
		}
		return sum / float64(len(split.Targets))
	}
	cfg := smallConfig()
	with := mae(cfg)
	cfg.DisableSmoothing = true
	without := mae(cfg)
	if with >= without {
		t.Errorf("smoothing did not help: MAE %.4f (with) vs %.4f (without)", with, without)
	}
}

// TestDriftDegradesLateTargets asserts the generator property a drift
// experiment depends on: under preference drift, a model trained once
// predicts late targets worse than early ones.
func TestDriftDegradesLateTargets(t *testing.T) {
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.Items = 150, 200
	cfg.MinPerUser, cfg.MeanPerUser = 25, 45
	cfg.Archetypes = 10
	cfg.DriftStd = 1.5
	d := synth.MustGenerate(cfg)
	full := d.Matrix
	split, err := ratings.MLSplitByTime(full, 100, 50, 20)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Train(split.Matrix, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	minT, maxT := int64(math.MaxInt64), int64(0)
	for u := 0; u < full.NumUsers(); u++ {
		for _, ts := range full.UserRatingTimes(u) {
			minT, maxT = min(minT, ts), max(maxT, ts)
		}
	}
	mid := minT + (maxT-minT)/2
	var earlySum, lateSum float64
	var earlyN, lateN int
	for _, tg := range split.Targets {
		fullUser := full.NumUsers() - 50 + (tg.User - 100)
		ts, ok := full.RatingTime(fullUser, tg.Item)
		if !ok {
			t.Fatal("missing target timestamp")
		}
		e := math.Abs(mod.Predict(tg.User, tg.Item) - tg.Actual)
		if ts < mid {
			earlySum += e
			earlyN++
		} else {
			lateSum += e
			lateN++
		}
	}
	if earlyN == 0 || lateN == 0 {
		t.Skip("degenerate time split")
	}
	early, late := earlySum/float64(earlyN), lateSum/float64(lateN)
	if late <= early {
		t.Errorf("late targets (%.4f) not harder than early (%.4f) despite drift", late, early)
	}
}

func TestEvalOnMatchesTargets(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	split, err := ratings.MLSplit(d.Matrix, 80, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Train(split.Matrix, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	preds := mod.EvalOn(split.Targets)
	if len(preds) != len(split.Targets) {
		t.Fatalf("EvalOn returned %d predictions for %d targets", len(preds), len(split.Targets))
	}
	for k, tg := range split.Targets {
		if got := mod.Predict(tg.User, tg.Item); got != preds[k] {
			t.Fatalf("EvalOn[%d] = %g, Predict = %g", k, preds[k], got)
		}
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
