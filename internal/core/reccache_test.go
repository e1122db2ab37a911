package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// Tests for the per-user recommendation cache (reccache.go). The load-
// bearing property is bit-for-bit parity: a cache-enabled model must
// return exactly what a cache-disabled twin (same training, same apply
// stream) returns, on every read — cold, warm, repaired, or rebuilt
// after a carry — under every config variant.

// equalRecs reports bitwise equality: same length, same items, and
// scores equal by bit pattern.
func equalRecs(a, b []Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Item != b[i].Item || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// randomApplyBatch draws a small batch of valid updates against the
// current matrix bounds, occasionally introducing a fresh user or item
// id (the +1 below) so streams exercise catalogue growth.
func randomApplyBatch(rng *rand.Rand, mod *Model) []RatingUpdate {
	m := mod.Matrix()
	ups := make([]RatingUpdate, 1+rng.Intn(6))
	for i := range ups {
		ups[i] = RatingUpdate{
			User:  rng.Intn(m.NumUsers() + 1),
			Item:  rng.Intn(m.NumItems() + 1),
			Value: float64(1 + rng.Intn(5)),
		}
	}
	return ups
}

// TestRecommendCacheParityAcrossApplyStreams is the cache's acceptance
// property (the Recommend analogue of PR 5's Predict parity): on every
// config variant, a cached lineage driven by a random sharded apply
// stream serves — from cold misses, carried entries, lazy repairs and
// repair fallbacks alike — exactly what the cache-disabled lineage
// computes, and a repeat read (a pure cache hit) returns it again. The
// tinyCache variant keeps entries truncated so the repair boundary
// check and its full-recompute fallback are exercised, not just the
// complete-entry path.
func TestRecommendCacheParityAcrossApplyStreams(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	variants := map[string]func(*Config){
		"default":          func(*Config) {},
		"disableSmoothing": func(c *Config) { c.DisableSmoothing = true },
		"fullUserSearch":   func(c *Config) { c.FullUserSearch = true },
		"tinyCache":        func(c *Config) { c.RecommendCacheSize = 5 },
	}
	before := ReadRecCacheStats()
	for name, mutate := range variants {
		mutate := mutate
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig()
			mutate(&cfg)
			cached, err := Train(d.Matrix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfgOff := cfg
			cfgOff.RecommendCacheSize = -1
			exact, err := Train(d.Matrix, cfgOff)
			if err != nil {
				t.Fatal(err)
			}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				shC, shE := NewSharded(cached), NewSharded(exact)
				p := cached.Matrix().NumUsers()
				users := []int{0, rng.Intn(p), rng.Intn(p), p - 1}
				// Warm the cache before the stream so carry + repair run.
				for _, u := range users {
					shC.Model().Recommend(u, 1+rng.Intn(12))
				}
				for round := 0; round < 3; round++ {
					ups := randomApplyBatch(rng, shC.Model())
					var err error
					if shC, err = shC.Apply(ups); err != nil {
						t.Fatal(err)
					}
					if shE, err = shE.Apply(ups); err != nil {
						t.Fatal(err)
					}
					mc, me := shC.Model(), shE.Model()
					for _, u := range users {
						n := 1 + rng.Intn(12)
						first := mc.Recommend(u, n) // repair or miss
						again := mc.Recommend(u, n) // pure hit
						want := me.Recommend(u, n)
						if !equalRecs(first, want) || !equalRecs(again, want) {
							t.Logf("seed %d round %d user %d n %d:\nfirst %v\nagain %v\nwant  %v",
								seed, round, u, n, first, again, want)
							return false
						}
					}
				}
				// Ground truth: the final generation against the
				// pre-optimisation reference implementation.
				u := users[rng.Intn(len(users))]
				if got, want := shC.Model().Recommend(u, 7), refRecommend(shE.Model(), u, 7); !equalRecs(got, want) {
					t.Logf("seed %d reference user %d: got %v want %v", seed, u, got, want)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Error(err)
			}
		})
	}
	// The streams above must actually have exercised the machinery.
	after := ReadRecCacheStats()
	if after.Hits == before.Hits {
		t.Error("apply streams produced no cache hits")
	}
	if after.Carried == before.Carried {
		t.Error("apply streams never carried an entry across a generation")
	}
	if after.Invalidated == before.Invalidated {
		t.Error("apply streams never invalidated an entry")
	}
}

// trainWide trains the cache-enabled/cache-disabled twins the repair
// tests use: a 600-item catalogue with smoothing off, where one small
// batch dirties a few dozen items rather than most of the catalogue
// (with smoothing on, the fill closure alone puts nearly every item on
// every carried entry — the case repairRecEntry hands to the exact
// scan), so carried entries can stay under repair's cut-off.
func trainWide(t *testing.T, mutate func(*Config)) (cached, exact *Model) {
	t.Helper()
	sc := smallSynth()
	sc.Items = 600
	d := synth.MustGenerate(sc)
	cfg := smallConfig()
	cfg.DisableSmoothing = true
	mutate(&cfg)
	cached, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RecommendCacheSize = -1
	exact, err = Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cached, exact
}

// TestRecommendCacheRepairExercised pins the delta-repair path
// deterministically: warm every user, apply one single-user batch, and
// require that at least one unchanged user's entry was carried with the
// batch's items queued as pending — then that reading through the repair
// (and a forced repair-boundary situation under a tiny capacity) matches
// the cache-disabled twin exactly. M selects how the pending items are
// re-scored: through the scan kernel's tile at M=20 (tilePays), through
// per-item Predict at M=5.
func TestRecommendCacheRepairExercised(t *testing.T) {
	for name, tc := range map[string]struct {
		m     int
		tiled bool
	}{"tiled": {20, true}, "merge": {5, false}} {
		tc := tc
		t.Run(name, func(t *testing.T) {
			cached, exact := trainWide(t, func(c *Config) {
				c.M = tc.m
				c.RecommendCacheSize = 5 // truncated entries: boundary check in play
			})
			p := cached.Matrix().NumUsers()
			for u := 0; u < p; u++ {
				cached.Recommend(u, 5)
			}
			ups := []RatingUpdate{{User: 3, Item: 7, Value: 5}, {User: 3, Item: 90, Value: 1}}
			shC, err := NewSharded(cached).Apply(ups)
			if err != nil {
				t.Fatal(err)
			}
			shE, err := NewSharded(exact).Apply(ups)
			if err != nil {
				t.Fatal(err)
			}
			mc, me := shC.Model(), shE.Model()
			if got := mc.recCache[3].Load(); got != nil {
				t.Error("changed user 3 kept a cache entry across the apply")
			}
			carried := 0
			for u := 0; u < p; u++ {
				if e := mc.recCache[u].Load(); e != nil {
					carried++
					if len(e.pending) == 0 {
						t.Fatalf("carried entry of user %d has no pending items", u)
					}
					if 2*len(e.pending) >= mc.m.NumItems() {
						t.Fatalf("user %d: %d of %d items pending; the fixture no longer reaches repair", u, len(e.pending), mc.m.NumItems())
					}
					if got := mc.tilePays(len(e.pending)); got != tc.tiled {
						t.Fatalf("user %d: tilePays(%d) = %v, want %v", u, len(e.pending), got, tc.tiled)
					}
				}
			}
			if carried == 0 {
				t.Fatal("no entry survived a two-item single-user batch; carry proof is vacuous")
			}
			before := ReadRecCacheStats()
			for u := 0; u < p; u++ {
				for _, n := range []int{3, 5, 9} {
					if got, want := mc.Recommend(u, n), me.Recommend(u, n); !equalRecs(got, want) {
						t.Fatalf("user %d n %d: repaired %v want %v", u, n, got, want)
					}
				}
			}
			after := ReadRecCacheStats()
			if after.Repairs == before.Repairs {
				t.Error("no entry was repaired in place")
			}
		})
	}
}

// TestRepairNeverCostsMoreThanColdScan pins the repair cut-off to what
// it is for: a read that finds a carried entry runs SUIR′ for no more
// candidates than the cold read that built the entry did. The exact scan
// prices only the candidates that can reach the selection — for some
// users a dozen of this fixture's 600 — so "less than half the catalogue
// pending" no longer means "cheaper than a scan": a repair is
// attempted only below the count the building scan priced, and a read at
// or above it is one exact scan, the same one a cold read runs.
func TestRepairNeverCostsMoreThanColdScan(t *testing.T) {
	cached, exact := trainWide(t, func(c *Config) { c.RecommendCacheSize = 5 })
	p, q := cached.m.NumUsers(), cached.m.NumItems()
	read := func(m *Model, user int) (recs []Recommendation, d RecCacheStats) {
		b := ReadRecCacheStats()
		recs = m.Recommend(user, 5)
		a := ReadRecCacheStats()
		return recs, RecCacheStats{
			Scans:           a.Scans - b.Scans,
			ScanPriced:      a.ScanPriced - b.ScanPriced,
			Repairs:         a.Repairs - b.Repairs,
			RepairFallbacks: a.RepairFallbacks - b.RepairFallbacks,
		}
	}
	cold := make([]uint64, p)
	for u := range cold {
		_, d := read(cached, u)
		if d.Scans != 1 {
			t.Fatalf("user %d: cold read ran %d passes", u, d.Scans)
		}
		cold[u] = d.ScanPriced
	}

	// A two-item batch leaves 33 items pending and a twelve-item one 100,
	// where the scans that built this fixture's entries priced between 11
	// and 530: both batches land on both sides of the cut-off, and well
	// under half the catalogue.
	small := []RatingUpdate{{User: 3, Item: 7, Value: 5}, {User: 3, Item: 90, Value: 1}}
	var large []RatingUpdate
	for i := 0; i < 12; i++ {
		large = append(large, RatingUpdate{User: 3, Item: 47 * i, Value: float64(1 + i%5)})
	}
	repaired, declined := 0, 0
	for _, ups := range [][]RatingUpdate{small, large} {
		shC, err := NewSharded(cached).Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		shE, err := NewSharded(exact).Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		next := shC.Model()
		for u := range next.recCache {
			e := next.recCache[u].Load()
			if e == nil {
				continue
			}
			got, d := read(next, u)
			if want := shE.Model().Recommend(u, 5); !equalRecs(got, want) {
				t.Fatalf("user %d: got %v want %v", u, got, want)
			}
			switch {
			case d.Repairs == 1:
				repaired++
				if d.ScanPriced >= cold[u] {
					t.Errorf("user %d: the repair priced %d items, the scan that built the entry %d", u, d.ScanPriced, cold[u])
				}
			case d.Scans == 1:
				// Not attempted: one pass, which must be the cold read's.
				declined++
				if uint64(len(e.pending)) < cold[u] || 2*len(e.pending) >= q {
					t.Errorf("user %d: repair declined with %d of %d items pending; the building scan priced %d", u, len(e.pending), q, cold[u])
				}
				next.recCache[u].Store(nil)
				if _, c := read(next, u); d.ScanPriced != c.ScanPriced {
					t.Errorf("user %d: the read priced %d items, a cold read %d", u, d.ScanPriced, c.ScanPriced)
				}
			}
			// Otherwise the repair ran and a re-scored item crossed the
			// cached cut: two passes, the one case that pays for both.
		}
	}
	if repaired == 0 || declined == 0 {
		t.Fatalf("%d entries repaired, %d repairs declined: one side of the cut-off went unexercised", repaired, declined)
	}
}

// TestCarryInvalidationReasons: the four Invalidated* counters name the
// first carry check an entry failed and add up to Invalidated, and a
// single rating kills entries through their like-minded candidates, not
// through anything their own user did: the rater is a candidate of a
// third of this 120-user population, and for most of the rest some
// candidate's cluster moved a fill cell at an item they rated. (On the
// 500-user ledger fixture that last check accounts for 83–99 % of what a
// single rating invalidates.)
func TestCarryInvalidationReasons(t *testing.T) {
	mod, _ := trainSmall(t)
	p := mod.m.NumUsers()
	for u := 0; u < p; u++ {
		mod.Recommend(u, 10)
	}
	before := ReadRecCacheStats()
	if _, err := NewSharded(mod).Apply([]RatingUpdate{{User: 3, Item: 7, Value: 5}}); err != nil {
		t.Fatal(err)
	}
	after := ReadRecCacheStats()
	user := after.InvalidatedUser - before.InvalidatedUser
	walk := after.InvalidatedWalk - before.InvalidatedWalk
	cand := after.InvalidatedCandidate - before.InvalidatedCandidate
	fill := after.InvalidatedCandidateFill - before.InvalidatedCandidateFill
	invalidated := after.Invalidated - before.Invalidated
	carried := after.Carried - before.Carried
	t.Logf("of %d entries: %d carried; invalidated by user %d, walk %d, candidate %d, candidate fill %d", p, carried, user, walk, cand, fill)
	if user+walk+cand+fill != invalidated || invalidated+carried != uint64(p) {
		t.Errorf("reasons sum to %d, invalidated %d, carried %d, entries %d", user+walk+cand+fill, invalidated, carried, p)
	}
	if user != 1 {
		t.Errorf("%d entries invalidated by their own user; only user 3 changed", user)
	}
	if fill == 0 || 10*(cand+fill) < 9*invalidated {
		t.Errorf("candidates account for %d + %d of %d invalidations; expected nearly all", cand, fill, invalidated)
	}
}

// TestRecommendCacheColdOnRebuildPaths verifies the never-stale rule on
// every non-incremental path: the monolithic WithUpdates, a GIS rebuild,
// and a snapshot round-trip each hand out a cold cache (replay after a
// crash therefore serves identical rankings from a cold start — the
// lifecycle test proves that end to end).
func TestRecommendCacheColdOnRebuildPaths(t *testing.T) {
	mod, _ := trainSmall(t)
	p := mod.Matrix().NumUsers()
	for u := 0; u < p; u += 3 {
		mod.Recommend(u, 10)
	}
	assertCold := func(label string, m *Model) {
		t.Helper()
		if m.recCache == nil {
			t.Fatalf("%s: cache slots not allocated", label)
		}
		for u := range m.recCache {
			if m.recCache[u].Load() != nil {
				t.Fatalf("%s: user %d has a warm entry on a rebuilt model", label, u)
			}
		}
	}
	next, err := mod.WithUpdates([]RatingUpdate{{User: 1, Item: 2, Value: 4}})
	if err != nil {
		t.Fatal(err)
	}
	assertCold("WithUpdates", next)
	assertCold("RebuildGIS", NewSharded(mod).RebuildGIS().Model())

	var blob bytes.Buffer
	if err := mod.Save(&blob); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&blob)
	if err != nil {
		t.Fatal(err)
	}
	assertCold("Load", loaded)
	// And the reloaded model still serves the same rankings.
	for u := 0; u < p; u += 7 {
		if got, want := loaded.Recommend(u, 10), mod.Recommend(u, 10); !equalRecs(got, want) {
			t.Fatalf("user %d: loaded model recommends %v, original %v", u, got, want)
		}
	}
}

// TestRecommendCacheCarriedAcrossShardRetrain: RetrainShard keeps the
// matrix and GIS, so entries of users whose smoothing cluster was
// untouched survive, and every post-retrain read matches a cache-free
// recompute of the same model.
func TestRecommendCacheCarriedAcrossShardRetrain(t *testing.T) {
	mod, _ := trainSmall(t)
	sh := NewSharded(mod)
	p := mod.Matrix().NumUsers()
	for u := 0; u < p; u++ {
		mod.Recommend(u, 10)
	}
	for shard := 0; shard < sh.NumShards(); shard++ {
		next, err := sh.RetrainShard(shard)
		if err != nil {
			t.Fatal(err)
		}
		sh = next
	}
	final := sh.Model()
	for u := 0; u < p; u += 5 {
		got := final.Recommend(u, 10)
		want := refRecommend(final, u, 10)
		if !equalRecs(got, want) {
			t.Fatalf("user %d after retrain sweep: got %v want %v", u, got, want)
		}
	}
}

// TestRecommendContract pins the nil/non-nil contract: invalid input
// returns nil; valid input returns a non-nil slice even when every
// unrated item has zero support and the result is empty.
func TestRecommendContract(t *testing.T) {
	mod, _ := trainSmall(t)
	p := mod.Matrix().NumUsers()
	for _, bad := range [][2]int{{-1, 5}, {p, 5}, {0, 0}, {2, -3}} {
		if got := mod.Recommend(bad[0], bad[1]); got != nil {
			t.Errorf("Recommend(%d,%d) = %v, want nil for invalid input", bad[0], bad[1], got)
		}
		if got := mod.RecommendAppend(nil, bad[0], bad[1]); got != nil {
			t.Errorf("RecommendAppend(nil,%d,%d) = %v, want dst unchanged", bad[0], bad[1], got)
		}
	}
	if got := mod.Recommend(0, 5); got == nil {
		t.Error("valid input returned nil")
	}

	// A user who rated the whole catalogue: nothing to recommend, and
	// the result must be non-nil empty rather than nil.
	b := ratings.NewBuilder(2, 2).SetScale(1, 5)
	b.MustAdd(0, 0, 4)
	b.MustAdd(0, 1, 3)
	b.MustAdd(1, 0, 5)
	cfg := DefaultConfig()
	cfg.M, cfg.K, cfg.Clusters = 2, 1, 1
	tiny, err := Train(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := tiny.Recommend(0, 5)
	if got == nil {
		t.Fatal("saturated user: Recommend returned nil, want non-nil empty slice")
	}
	if len(got) != 0 {
		t.Fatalf("saturated user: Recommend returned %v, want empty", got)
	}
	// Twice: the second read serves the (complete, empty) cached entry.
	if got := tiny.Recommend(0, 5); got == nil || len(got) != 0 {
		t.Fatalf("saturated user, cached read: got %v, want non-nil empty", got)
	}
}

// TestRecommendAppendWarmIsAllocationFree is the in-repo version of the
// CI benchmark gate: a warm cached read through caller-owned storage
// must not allocate at all.
func TestRecommendAppendWarmIsAllocationFree(t *testing.T) {
	mod, _ := trainSmall(t)
	mod.Recommend(4, 10) // warm
	dst := make([]Recommendation, 0, 16)
	allocs := testing.AllocsPerRun(200, func() {
		dst = mod.RecommendAppend(dst[:0], 4, 10)
	})
	if allocs != 0 {
		t.Errorf("warm RecommendAppend allocates %.1f times per call, want 0", allocs)
	}
	if len(dst) == 0 {
		t.Error("warm RecommendAppend returned nothing")
	}
}

// TestScratchPoolShedsOversizedBuffers pins the pooled-scratch policy:
// a scratch whose buffers outgrew the current model's need by more than
// 2× — the catalogue Q for the candidate buffer, (K+1)·Q for the scan
// kernel's tile — drops them before returning to the pool instead of
// pinning the high-water mark forever, and keeps ones within 2×.
func TestScratchPoolShedsOversizedBuffers(t *testing.T) {
	const q, k = 300, 10
	big := &recScratch{cands: make([]mathx.Scored, 10_000), tile: make([]localCell, 25*10_000)}
	putRecScratch(big, q, k)
	if big.cands != nil {
		t.Errorf("candidate buffer of cap %d kept for a %d-item catalogue", cap(big.cands), q)
	}
	if big.tile != nil {
		t.Errorf("tile of cap %d kept for a %d×%d model", cap(big.tile), k, q)
	}
	fit := &recScratch{cands: make([]mathx.Scored, 500), tile: make([]localCell, 2*tileCells(k, q))}
	putRecScratch(fit, q, k)
	if fit.cands == nil {
		t.Error("candidate buffer within 2× of the catalogue was dropped")
	}
	if fit.tile == nil {
		t.Error("tile within 2× of (K+1)·Q was dropped")
	}
}

// TestRecommendCacheDisabled: with a negative RecommendCacheSize no
// slots are allocated, reads always take the exact path, and outputs
// still match the reference.
func TestRecommendCacheDisabled(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	cfg := smallConfig()
	cfg.RecommendCacheSize = -1
	mod, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mod.recCache != nil {
		t.Fatal("cache slots allocated although the cache is disabled")
	}
	if got, want := mod.Recommend(5, 8), refRecommend(mod, 5, 8); !equalRecs(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}
