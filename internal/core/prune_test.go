package core

import (
	"math"
	"math/rand"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// Tests for the bound-and-prune top-C selection (scoreTop, scan.go). Two
// properties carry it: the bound holds for every item (TestScanBound),
// and the selection built on it returns what pricing every item returns
// (TestPrunedScanParity). Both enumerate users and items instead of
// sampling them, on every fixture but the 500-user ledger one.
//
// Mutations, each of which fails the subtests named (checked by hand when
// the tests were written; repeat after touching scoreTop or
// boundColumns):
//
//   - `>` for `>=` where scoreTop's ordered pass trims a block at the cut
//     (`rest[n].Score > best[0]`: stopping at ub ≤ cut instead of
//     ub < cut): a candidate whose bound equals the cut can tie the worst
//     priced score and beat a higher-bounded one on id, which scores
//     clamped to MinRating do at depth. TestPrunedScanParity fails on
//     clampedTop, default and eight more configs.
//   - raising the cut from fewer than want scores (`best` keeping
//     `max(want-1, 1)`): the cut is the (want−1)-th best score and the
//     want-th item goes unpriced when its bound falls between the two.
//     TestPrunedScanParity fails on clampedTop (one past the tie at
//     MaxRating), loners and twelve configs.
//   - min for max in boundColumns' column reduction (`c.val < col[i]`,
//     starting from +Inf): the bound drops below SUIR′. TestScanBound
//     fails on every config but delta0, TestPrunedScanParity on most
//     configs and on the ledger fixture.
//   - dropping boundColumns' `c.w > 0` filter: zero-weight cells enter
//     the bound — the originals at ε = 0, the fills at ε = 1 — and it
//     stops being the largest cell SUIR′ averages over. TestScanBound
//     fails on originalWeight0 and originalWeight1.
//   - folding bounds (`bounds[f.Index].ub`) instead of exact scores into
//     `best`: candidates between the two are never priced.
//     TestPrunedScanParity fails on every fixture but allFives
//     and the δ = 0 configs, whose bounds are the scores.
//   - pricing every candidate (dropping both `>= best[0]` tests): rankings
//     stay right, the ScanPriced < ScanItems and priced ≤ two-pass
//     assertions fail on every fixture but allFives.
//   - never raising the cut (putting best[0] back after each block):
//     rankings stay right and the scan prices what the two-pass form did,
//     so the ledger subtest's "fewer than two passes" fails.

// checkTopN holds Recommend and RecommendAppend for user to the prefixes
// of full, the user's complete reference ranking, at every n. On a
// cache-disabled model each read is a scan selecting exactly n, and must
// price no more candidates than the two-pass form did.
func checkTopN(t *testing.T, mod *Model, user int, full []Recommendation, ns []int) {
	t.Helper()
	var dst []Recommendation
	ref := newTwoPass(mod, user, full)
	for _, n := range ns {
		want := full[:min(n, len(full))]
		before := ReadRecCacheStats()
		if got := mod.Recommend(user, n); !equalRecs(got, want) {
			t.Fatalf("user %d n %d: Recommend\n got %v\nwant %v", user, n, got, want)
		}
		priced := ReadRecCacheStats().ScanPriced - before.ScanPriced
		if dst = mod.RecommendAppend(dst[:0], user, n); !equalRecs(dst, want) {
			t.Fatalf("user %d n %d: RecommendAppend\n got %v\nwant %v", user, n, dst, want)
		}
		if mod.recCache == nil && priced > uint64(ref.priced(n)) {
			t.Fatalf("user %d n %d: the scan priced %d candidates, two passes price %d", user, n, priced, ref.priced(n))
		}
	}
}

// twoPass counts what PR 16's scoreTop priced for one user: the want
// best-bounded candidates, then every other whose bound reaches the
// smallest exact score among those — the unordered second pass the rising
// cut replaced, kept here as the ceiling it must stay under.
type twoPass struct {
	mod    *Model
	bounds []mathx.Scored  // every candidate's ub, best first, ties by id as scoreTop's by position
	exact  map[int]float64 // item → score
}

func newTwoPass(mod *Model, user int, full []Recommendation) twoPass {
	tp := twoPass{mod: mod, bounds: eligible(mod, user), exact: map[int]float64{}}
	for _, r := range full {
		tp.exact[r.Item] = r.Score
	}
	if mod.tilePays(len(tp.bounds)) {
		s := mod.beginScan(user, len(tp.bounds), new(recScratch))
		colHi := make([]float64, s.q)
		s.boundColumns(colHi)
		slack := mod.suirSlack(len(s.users))
		for k, c := range tp.bounds {
			tp.bounds[k].Score = s.bound(int(c.Index), colHi, slack)
		}
		mathx.SortScoredDesc(tp.bounds)
	}
	return tp
}

func (tp twoPass) priced(want int) int {
	want = min(want, tp.mod.m.NumItems())
	if len(tp.bounds) <= want || !tp.mod.tilePays(len(tp.bounds)) {
		return len(tp.bounds)
	}
	cut := math.Inf(1)
	for _, c := range tp.bounds[:want] {
		cut = min(cut, tp.exact[int(c.Index)])
	}
	priced := want
	for _, c := range tp.bounds[want:] {
		if c.Score >= cut {
			priced++
		}
	}
	return priced
}

// pruneConfigs is the table of model shapes both tests walk, applied on
// top of smallConfig.
var pruneConfigs = map[string]func(*Config){
	"default":          func(*Config) {},
	"disableSmoothing": func(c *Config) { c.DisableSmoothing = true },
	"originalWeight0":  func(c *Config) { c.OriginalWeight = 0 },
	"originalWeight1":  func(c *Config) { c.OriginalWeight = 1 },
	"delta0":           func(c *Config) { c.Delta = 0 },
	"delta1":           func(c *Config) { c.Delta = 1 },
	"lambda0":          func(c *Config) { c.Lambda = 0 },
	"lambda1":          func(c *Config) { c.Lambda = 1 },
	"fullUserSearch":   func(c *Config) { c.FullUserSearch = true },
	"kAbovePopulation": func(c *Config) { c.K = 500 },
	// 64 workers cut this fixture's columns into one-column chunks, most
	// of them without a contributing cell once the fills are gone — what
	// a many-core host does by default. With δ = 0 a bound that is not
	// finite turns 0·bound into NaN.
	"disableSmoothingWide":       func(c *Config) { c.DisableSmoothing, c.Workers = true, 64 },
	"disableSmoothingDelta0Wide": func(c *Config) { c.DisableSmoothing, c.Delta, c.Workers = true, 0, 64 },
	"originalWeight1Delta0Wide":  func(c *Config) { c.OriginalWeight, c.Delta, c.Workers = 1, 0, 64 },
}

// pruneFixture trains m under smallConfig with the cache off, so every
// read below is a scan selecting exactly n, unless mutate says otherwise.
func pruneFixture(t *testing.T, m *ratings.Matrix, mutate func(*Config)) *Model {
	t.Helper()
	cfg := smallConfig()
	cfg.RecommendCacheSize = -1
	mutate(&cfg)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

// allFives is a matrix in which every rating is 5: no row or column has
// variance, so no similarity is positive, every score is the fallback
// (the user's mean, 5 = MaxRating) and only the id tie-break ranks.
func allFives() *ratings.Matrix {
	rng := rand.New(rand.NewSource(5))
	b := ratings.NewBuilder(40, 60).SetScale(1, 5)
	for u := 0; u < 40; u++ {
		for _, i := range rng.Perm(60)[:20] {
			b.MustAdd(u, i, 5)
		}
	}
	return b.Build()
}

// clampedTop is allFives with a few 4s, which gives similarities to work
// with, on a scale of 4.6 to 4.8: most fused scores and all their bounds
// clamp to MaxRating, so ids rank equal scores under equal bounds, and
// the tail clamps to MinRating under bounds that do not, so a candidate
// whose bound equals the cut ties it and wins on id.
func clampedTop() *ratings.Matrix {
	rng := rand.New(rand.NewSource(5))
	b := ratings.NewBuilder(40, 60).SetScale(4.6, 4.8)
	for u := 0; u < 40; u++ {
		for _, i := range rng.Perm(60)[:20] {
			v := 5.0
			if rng.Intn(6) == 0 {
				v = 4
			}
			b.MustAdd(u, i, v)
		}
	}
	return b.Build()
}

// loners is a random matrix with the degenerate rows and columns a scan
// can meet: user 0 rated one item (zero variance, so Eq. 10 finds nobody
// like-minded and SUR′ and SUIR′ are absent for every item), user 1
// rated everything but nine items (fewer candidates than a selection of
// ten), and items 58 and 59 have no rater at all, both among user 1's
// nine.
func loners() *ratings.Matrix {
	rng := rand.New(rand.NewSource(9))
	b := ratings.NewBuilder(40, 60).SetScale(1, 5)
	b.MustAdd(0, 3, 4)
	for i := 0; i < 58; i++ {
		if i%8 != 0 || i == 56 { // leaves 0, 8, …, 48
			b.MustAdd(1, i, float64(1+rng.Intn(5)))
		}
	}
	for u := 2; u < 40; u++ {
		for _, i := range rng.Perm(58)[:18] {
			b.MustAdd(u, i, float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// TestPrunedScanParity: Recommend and RecommendAppend return the
// reference ranking's prefix — same items, same order, same score bits,
// same length — for every user at n ∈ {1, 10, 16, 100, 128, Q, Q+5}, one
// past the leading tie and one short of every candidate, each
// scan pricing no more than two passes would, across the
// config table on trainSmall's matrix and on the hand-built degenerate
// matrices above, and for every 5th user of the 500×1000 ledger fixture.
func TestPrunedScanParity(t *testing.T) {
	// Every user against the complete ranking by Predict, which shares
	// nothing with the scan kernel, and every 8th against refRecommend's
	// pre-optimisation mechanics as well (it re-selects the like-minded
	// set for every item, so it costs ten times as much).
	sweep := func(t *testing.T, mod *Model) {
		t.Helper()
		q := mod.m.NumItems()
		ns := []int{1, 10, 16, 100, 128, q, q + 5}
		for u := 0; u < mod.m.NumUsers(); u++ {
			full := fullRanking(mod, u, func(cands []mathx.Scored) {
				for k := range cands {
					cands[k].Score = mod.Predict(u, int(cands[k].Index))
				}
			})
			if u%8 == 0 && !equalRecs(full, refRecommend(mod, u, q)) {
				t.Fatalf("user %d: ranking by Predict differs from refRecommend", u)
			}
			// One past the tie at the head: the cut sits on the plateau's
			// edge and the last item returned below it. All but one: the
			// deepest selection that still goes through scoreTop, its cut
			// among the scores clamped to MinRating.
			tie := 0
			for tie < len(full) && full[tie].Score == full[0].Score {
				tie++
			}
			checkTopN(t, mod, u, full, append(ns[:len(ns):len(ns)], tie+1, len(full)-1))
		}
	}
	small := synth.MustGenerate(smallSynth()).Matrix
	configs := map[string]func(*Config){
		// pruneFixture's own setting is -1: every read a scan selecting n.
		// With a cache the first read scans for n = 1, n = 10 finds that
		// entry short and scans once at the capacity, and repeats are hits;
		// 16 leaves n ≥ 100 a scan every time, and the default, 128, is
		// within seven of the ≤ 135 candidates a user of this fixture has.
		"recCache16":      func(c *Config) { c.RecommendCacheSize = 16 },
		"defaultRecCache": func(c *Config) { c.RecommendCacheSize = 0 },
	}
	for name, mutate := range pruneConfigs {
		configs[name] = mutate
	}
	for name, mutate := range configs {
		t.Run(name, func(t *testing.T) {
			mod := pruneFixture(t, small, mutate)
			before := ReadRecCacheStats()
			sweep(t, mod)
			after := ReadRecCacheStats()
			if after.ScanPriced-before.ScanPriced >= after.ScanItems-before.ScanItems {
				t.Error("no scan skipped a candidate: the config never reaches the prune")
			}
		})
	}
	t.Run("allFives", func(t *testing.T) {
		sweep(t, pruneFixture(t, allFives(), func(c *Config) { c.Clusters = 4 }))
	})
	t.Run("clampedTop", func(t *testing.T) {
		mod := pruneFixture(t, clampedTop(), func(c *Config) { c.Clusters = 4 })
		clamped := 0
		for _, r := range mod.Recommend(2, 10) {
			if r.Score == mod.m.MaxRating() {
				clamped++
			}
		}
		if clamped < 5 {
			t.Fatalf("%d of user 2's top 10 clamp to MaxRating; the fixture no longer ranks by id", clamped)
		}
		sweep(t, mod)
	})
	t.Run("loners", func(t *testing.T) {
		mod := pruneFixture(t, loners(), func(c *Config) { c.Clusters = 4 })
		if n := len(mod.likeMindedUsers(0)); n != 0 {
			t.Fatalf("user 0 has %d like-minded users; want none", n)
		}
		if got := len(mod.Recommend(1, 10)); got != 7 {
			t.Fatalf("user 1 is offered %d items; want the 7 supported ones of the 9 unrated", got)
		}
		sweep(t, mod)
	})
	t.Run("ledger", func(t *testing.T) {
		// The fixture bench/ serves, default config: n = 10 first is the
		// server's miss (want = 10), 1 a hit on what it stored, 100 the
		// second, deeper ask (one scan at the capacity, 128) and 128 a hit
		// on that. scoreCandidates prices the reference here, a hundred
		// times cheaper than refRecommend on this fixture —
		// TestScanKernelParityWithPredict holds every score it produces to
		// Predict — and every 20th user visited meets refRecommend too, and
		// reads past the cache's capacity. The small fixtures above
		// enumerate; this one visits every 5th user, every 25th under -short
		// (the race detector slows a scan 25×).
		d, err := synth.Generate(synth.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mod, err := Train(d.Matrix, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		q := mod.m.NumItems()
		sc := new(recScratch)
		step := 5
		if testing.Short() {
			step = 25
		}
		var items, priced, ceiling uint64
		for u := 0; u < mod.m.NumUsers(); u += step {
			full := fullRanking(mod, u, func(cands []mathx.Scored) { mod.scoreCandidates(u, cands, sc) })
			before := ReadRecCacheStats()
			checkTopN(t, mod, u, full, []int{10, 1, 100, 128})
			after := ReadRecCacheStats()
			if after.Scans-before.Scans != 2 || after.Widened-before.Widened != 1 {
				t.Fatalf("user %d: %d scans, %d widened; want the ask and one deeper ask", u,
					after.Scans-before.Scans, after.Widened-before.Widened)
			}
			items += after.ScanItems - before.ScanItems
			priced += after.ScanPriced - before.ScanPriced
			ref := newTwoPass(mod, u, full)
			ceiling += uint64(ref.priced(10) + ref.priced(128))
			if u%(20*step) == 0 {
				if !equalRecs(full, refRecommend(mod, u, q)) {
					t.Fatalf("user %d: ranking by scoreCandidates differs from refRecommend", u)
				}
				checkTopN(t, mod, u, full, []int{q + 5})
			}
		}
		if 4*priced >= items {
			t.Errorf("the misses priced %d of %d candidates: the prune is off", priced, items)
		}
		if priced >= ceiling {
			t.Errorf("the misses priced %d candidates, two passes price %d: the cut never rose", priced, ceiling)
		}
	})
}

// eligible lists the items Recommend may return for user, by id: unrated
// by the user and rated by somebody.
func eligible(mod *Model, user int) []mathx.Scored {
	var cands []mathx.Scored
	rated := map[int32]bool{}
	for _, e := range mod.m.UserRatings(user) {
		rated[e.Index] = true
	}
	for i := 0; i < mod.m.NumItems(); i++ {
		if !rated[int32(i)] && len(mod.m.ItemRatings(i)) > 0 {
			cands = append(cands, mathx.Scored{Index: int32(i)})
		}
	}
	return cands
}

// fullRanking is user's complete ranking: every eligible item, scored by
// price, in canonical order.
func fullRanking(mod *Model, user int, price func(cands []mathx.Scored)) []Recommendation {
	cands := eligible(mod, user)
	price(cands)
	mathx.SortScoredDesc(cands)
	return appendRecommendations(nil, cands, len(cands))
}

// TestScanBound is the bound's own property, for every (user, item) of
// every config and of the degenerate matrices: SUIR′ exists exactly when some like-minded cell at the
// item's top-M columns contributes (w > 0), it is then at most the
// largest such cell plus the slack, the bound pass's ub is Eq. 14 fused
// at that bound, and ub ≥ Predict(user, item). The largest cell is
// recomputed here by brute force over the tile, so the kernel's column
// reduction is held to its definition.
func TestScanBound(t *testing.T) {
	small := synth.MustGenerate(smallSynth()).Matrix
	sc := new(recScratch)
	models := map[string]*Model{}
	for name, mutate := range pruneConfigs {
		models[name] = pruneFixture(t, small, mutate)
	}
	for name, m := range map[string]*ratings.Matrix{"allFives": allFives(), "clampedTop": clampedTop(), "loners": loners()} {
		models[name] = pruneFixture(t, m, func(c *Config) { c.Clusters = 4 })
	}
	for name, mod := range models {
		t.Run(name, func(t *testing.T) {
			q := mod.m.NumItems()
			colHi := make([]float64, q)
			tight := 0
			for u := 0; u < mod.m.NumUsers(); u++ {
				s := mod.beginScan(u, q, sc)
				s.boundColumns(colHi)
				slack := mod.suirSlack(len(s.users))
				if slack < 0 || slack > 1e-9 {
					t.Fatalf("user %d: slack %g", u, slack)
				}
				for i := 0; i < q; i++ {
					top := mod.topItems(i)
					hi := math.Inf(-1)
					for n := range s.users {
						for _, it := range top {
							if c := s.tile[n*q+int(it.Index)]; c.w > 0 {
								hi = math.Max(hi, c.val)
							}
						}
					}
					suir, has := s.suirTile(top)
					if has != !math.IsInf(hi, -1) {
						t.Fatalf("user %d item %d: SUIR′ present = %v, largest contributing cell %v", u, i, has, hi)
					}
					if has && suir > hi+slack {
						t.Fatalf("user %d item %d: SUIR′ %v above its bound %v + %g", u, i, suir, hi, slack)
					}
					var p Prediction
					p.SIR, p.HasSIR = s.sirTile(top)
					p.SUR, p.HasSUR = s.surTile(i)
					p.SUIR, p.HasSUIR = hi+slack, has
					mod.fuse(u, i, &p)
					ub := s.bound(i, colHi, slack)
					if ub != p.Value {
						t.Fatalf("user %d item %d: ub %v, Eq. 14 at the brute-force bound %v", u, i, ub, p.Value)
					}
					exact := mod.Predict(u, i)
					if !(ub >= exact) {
						t.Fatalf("user %d item %d: ub %v below Predict %v", u, i, ub, exact)
					}
					if ub == exact {
						tight++
					}
				}
			}
			t.Logf("ub == Predict for %d of %d pairs", tight, mod.m.NumUsers()*q)
		})
	}
}
