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
// stream) returns, on every read — cold or warm — under every config
// variant.

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
// stream serves — from the cold miss after each apply — exactly what the
// cache-disabled lineage computes, and a repeat read (a pure cache hit)
// returns it again. The tinyCache variant keeps entries truncated, so
// reads for more than the stored prefix take the exact scan and replace
// the entry.
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
				// Warm the cache before the stream: no entry may leak forward.
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
						first := mc.Recommend(u, n) // cold after the apply, unless users repeats u
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
	// The repeat reads above must actually have come from the cache.
	if ReadRecCacheStats().Hits == before.Hits {
		t.Error("apply streams produced no cache hits")
	}
}

// TestRecommendCacheIsPerGeneration pins the one rule the cache has, on
// every path that hands out a model: the successor starts with every
// slot empty, its first read is the exact ranking and its second a
// counted hit, and a reader still holding the predecessor keeps hitting
// the predecessor's entries with the predecessor's ranking. (Replay
// after a crash therefore serves identical rankings from a cold start —
// the lifecycle test proves that end to end.)
func TestRecommendCacheIsPerGeneration(t *testing.T) {
	ups := []RatingUpdate{{User: 1, Item: 2, Value: 4}}
	constructors := []struct {
		name string
		next func(t *testing.T, prev *Model) *Model
	}{
		{"Train", func(t *testing.T, prev *Model) *Model {
			next, err := Train(prev.Matrix(), prev.Config())
			if err != nil {
				t.Fatal(err)
			}
			return next
		}},
		{"Load", func(t *testing.T, prev *Model) *Model {
			var blob bytes.Buffer
			if err := prev.Save(&blob); err != nil {
				t.Fatal(err)
			}
			next, err := Load(&blob)
			if err != nil {
				t.Fatal(err)
			}
			return next
		}},
		{"WithUpdates", func(t *testing.T, prev *Model) *Model {
			next, err := prev.WithUpdates(ups)
			if err != nil {
				t.Fatal(err)
			}
			return next
		}},
		{"ApplyIncremental", func(t *testing.T, prev *Model) *Model {
			next, err := prev.withUpdatesIncremental(ups)
			if err != nil {
				t.Fatal(err)
			}
			return next
		}},
	}
	// One warm predecessor for every row, 600 ratings past its K-means fit.
	trained, _ := trainSmall(t)
	rng := rand.New(rand.NewSource(7))
	drift := make([]RatingUpdate, 600)
	for i := range drift {
		drift[i] = RatingUpdate{User: rng.Intn(trained.m.NumUsers()), Item: rng.Intn(trained.m.NumItems()), Value: float64(1 + rng.Intn(5))}
	}
	sh, err := NewSharded(trained).Apply(drift)
	if err != nil {
		t.Fatal(err)
	}
	prev := sh.Model()
	p := prev.Matrix().NumUsers()
	held := make([][]Recommendation, p)
	for u := range held {
		held[u] = prev.Recommend(u, 10)
	}
	for _, tc := range constructors {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			next := tc.next(t, prev)
			if len(next.recCache) != next.Matrix().NumUsers() {
				t.Fatalf("successor has %d cache slots for %d users", len(next.recCache), next.Matrix().NumUsers())
			}
			for u := range next.recCache {
				if next.recCache[u].Load() != nil {
					t.Fatalf("user %d has a warm entry on a model no read has touched", u)
				}
			}
			for u := 0; u < p; u += 7 {
				before := ReadRecCacheStats()
				first := next.Recommend(u, 10)
				mid := ReadRecCacheStats()
				again := next.Recommend(u, 10)
				after := ReadRecCacheStats()
				if want := refRecommend(next, u, 10); !equalRecs(first, want) || !equalRecs(again, want) {
					t.Fatalf("user %d: first %v again %v want %v", u, first, again, want)
				}
				if mid.Misses-before.Misses != 1 || mid.Hits != before.Hits {
					t.Errorf("user %d: first read of the successor was not one miss", u)
				}
				if after.Hits-mid.Hits != 1 || after.Misses != mid.Misses {
					t.Errorf("user %d: second read of the successor was not one hit", u)
				}
			}
			hits := ReadRecCacheStats().Hits
			for u := range held {
				if got := prev.Recommend(u, 10); !equalRecs(got, held[u]) {
					t.Fatalf("user %d: the predecessor now recommends %v, before the successor was built %v", u, got, held[u])
				}
			}
			if got := ReadRecCacheStats().Hits - hits; got != uint64(p) {
				t.Errorf("%d of %d re-reads of the predecessor were hits", got, p)
			}
		})
	}
}

// TestRecommendAsksForWhatItNeeds pins the miss rule, one read at a time
// against refRecommend: a miss with no entry scans for the n asked and
// stores that prefix; a miss on an entry too short for its n scans once
// at the capacity; an entry never holds more than the capacity, so
// n above it is a scan every time; an entry that holds every candidate
// is complete and serves any n.
func TestRecommendAsksForWhatItNeeds(t *testing.T) {
	small := synth.MustGenerate(smallSynth()).Matrix
	q := small.NumItems()
	// ask is one read: its n, the exact scans it runs, how many of them
	// are re-scans at the capacity, and what the slot holds afterwards —
	// min(holds, offered) items; −1 for no cache.
	type ask struct {
		n              int
		scans, widened uint64
		holds          int
	}
	rows := []struct {
		name      string
		m         *ratings.Matrix
		cacheSize int
		offered   func(int) bool // picks the user by candidate count
		asks      []ask
	}{
		{"default capacity", small, 0, func(o int) bool { return o > defaultRecCacheSize }, []ask{
			{10, 1, 0, 10}, {10, 0, 0, 10}, {3, 0, 0, 10}, // asked one n: one shallow scan
			{50, 1, 1, 128}, {50, 0, 0, 128}, {128, 0, 0, 128}, {1, 0, 0, 128}, // a deeper ask: once, to the capacity
			{129, 1, 0, 128}, {129, 1, 0, 128}, {q + 5, 1, 0, 128}, // above the capacity: never cached
		}},
		{"capacity 5", small, 5, func(o int) bool { return o > 10 }, []ask{
			{3, 1, 0, 3}, {3, 0, 0, 3}, {4, 1, 1, 5}, {5, 0, 0, 5}, {2, 0, 0, 5}, {10, 1, 0, 5}, {10, 1, 0, 5},
		}},
		{"first ask above the capacity", small, 5, func(o int) bool { return o > 10 }, []ask{
			{10, 1, 0, 5}, {5, 0, 0, 5}, {6, 1, 0, 5},
		}},
		{"offered no more than n", loners(), 0, func(o int) bool { return o == 7 }, []ask{
			{10, 1, 0, 10}, {100, 0, 0, 10}, {q + 5, 0, 0, 10},
		}},
		{"offered no more than the capacity", loners(), 0, func(o int) bool { return o == 7 }, []ask{
			{3, 1, 0, 3}, {5, 1, 1, 128}, {q + 5, 0, 0, 128},
		}},
		{"cache off", small, -1, func(o int) bool { return o > 50 }, []ask{
			{10, 1, 0, -1}, {10, 1, 0, -1}, {50, 1, 0, -1},
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mod := pruneFixture(t, row.m, func(c *Config) { c.Clusters, c.RecommendCacheSize = 4, row.cacheSize })
			user, offered := -1, 0
			for u := 0; u < mod.m.NumUsers() && user < 0; u++ {
				if offered = len(eligible(mod, u)); row.offered(offered) {
					user = u
				}
			}
			if user < 0 {
				t.Fatal("the fixture has no user with the candidate count this row needs")
			}
			for i, a := range row.asks {
				before := ReadRecCacheStats()
				got := mod.Recommend(user, a.n)
				after := ReadRecCacheStats()
				if want := refRecommend(mod, user, a.n); !equalRecs(got, want) {
					t.Fatalf("ask %d (n = %d):\n got %v\nwant %v", i, a.n, got, want)
				}
				if scans, widened := after.Scans-before.Scans, after.Widened-before.Widened; scans != a.scans || widened != a.widened {
					t.Fatalf("ask %d (n = %d): %d scans, %d widened; want %d, %d", i, a.n, scans, widened, a.scans, a.widened)
				}
				if a.holds < 0 {
					if mod.recCache != nil {
						t.Fatal("cache slots allocated although the cache is disabled")
					}
					continue
				}
				e := mod.recCache[user].Load()
				if holds := min(a.holds, offered); e == nil || len(e.ranked) != holds || e.complete != (offered <= holds) {
					t.Fatalf("ask %d (n = %d): the slot holds %+v; want %d of %d candidates", i, a.n, e, holds, offered)
				}
			}
		})
	}
}

// TestRecommendPublishKeepsTheDeeperEntry: two misses on one user can
// finish in either order, and the shallow scan's entry must not replace
// the deep one's — nor anything a complete one. Both are prefixes of one
// ranking, so which of them serves a read does not change the answer.
func TestRecommendPublishKeepsTheDeeperEntry(t *testing.T) {
	mod, _ := trainSmall(t)
	const user = 4
	slot := &mod.recCache[user]
	mod.Recommend(user, 10)
	short := slot.Load()
	mod.Recommend(user, 50) // the deeper ask, scanned to the capacity
	deep := slot.Load()
	if len(short.ranked) != 10 || len(deep.ranked) <= 10 {
		t.Fatalf("entries hold %d and %d items; want 10 and more", len(short.ranked), len(deep.ranked))
	}
	mod.publishRec(user, short) // the n = 10 miss that lost the race
	if slot.Load() != deep {
		t.Fatal("a 10-item entry replaced a deeper one")
	}
	slot.Store(short)
	mod.publishRec(user, deep)
	if slot.Load() != deep {
		t.Fatal("a deeper entry did not replace the 10-item one")
	}
	whole := &recEntry{ranked: short.ranked[:3], complete: true}
	slot.Store(whole)
	mod.publishRec(user, deep)
	if slot.Load() != whole {
		t.Fatal("a complete entry was replaced")
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
// 2× — the catalogue Q for the candidate buffer and scoreTop's pricing
// list and score heap, (K+1)·Q for the scan kernel's tile — drops them
// before returning to the pool instead of pinning the high-water mark
// forever, and keeps ones within 2×.
func TestScratchPoolShedsOversizedBuffers(t *testing.T) {
	const q, k = 300, 10
	big := &recScratch{
		cands: make([]mathx.Scored, 10_000), tile: make([]localCell, 25*10_000),
		rest: make([]mathx.Scored, 10_000), best: make([]float64, 10_000),
	}
	putRecScratch(big, q, k)
	if big.cands != nil {
		t.Errorf("candidate buffer of cap %d kept for a %d-item catalogue", cap(big.cands), q)
	}
	if big.tile != nil {
		t.Errorf("tile of cap %d kept for a %d×%d model", cap(big.tile), k, q)
	}
	if big.rest != nil || big.best != nil {
		t.Errorf("pricing list of cap %d, score heap of cap %d kept for a %d-item catalogue", cap(big.rest), cap(big.best), q)
	}
	fit := &recScratch{
		cands: make([]mathx.Scored, 500), tile: make([]localCell, 2*tileCells(k, q)),
		rest: make([]mathx.Scored, 500), best: make([]float64, 2*q),
	}
	putRecScratch(fit, q, k)
	if fit.cands == nil {
		t.Error("candidate buffer within 2× of the catalogue was dropped")
	}
	if fit.tile == nil {
		t.Error("tile within 2× of (K+1)·Q was dropped")
	}
	if fit.rest == nil || fit.best == nil {
		t.Error("pricing list or score heap within 2× of the catalogue was dropped")
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
