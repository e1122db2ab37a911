package core

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// Reference implementations of the online phase, kept deliberately on
// the pre-optimisation mechanics: fresh allocations everywhere, per-call
// copy+sort of the top-M neighbourhood, per-cell Fill via the explicit
// fallback chain, sorted-row merges where production scatters rows into a
// column index, full sort in Recommend. The optimised production path
// (id-sorted mirror, fill memo, read kernels, pooled scratch, heap top-n)
// must be bit-for-bit identical to these. The one intentional behaviour change
// of the PR — capping the like-minded candidate set at
// CandidateFactor×K even mid-cluster — is part of the specification
// here too (refGather).

// refFill is the original Eq. 7 fallback chain, bypassing the memo.
func refFill(mod *Model, u, i int) float64 {
	um := mod.m.UserMean(u)
	c := mod.sm.Cluster(u)
	if d, ok := mod.sm.Deviation(c, i); ok {
		return um + d
	}
	if g, ok := mod.sm.GlobalDeviation(i); ok {
		return um + g
	}
	return um
}

// refSortedTopM is the per-request copy+sort the mirror replaced.
func refSortedTopM(mod *Model, item int) []mathx.Scored {
	items := mod.topItems(item)
	sorted := make([]mathx.Scored, len(items))
	copy(sorted, items)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Index < sorted[b].Index })
	return sorted
}

func refForEachLocalRating(mod *Model, u int, sorted []mathx.Scored, fn func(k int, r float64, original bool, w11 float64)) {
	row := mod.m.UserRatings(u)
	j := 0
	for k := range sorted {
		idx := sorted[k].Index
		for j < len(row) && row[j].Index < idx {
			j++
		}
		if j < len(row) && row[j].Index == idx {
			fn(k, row[j].Value, true, mod.cfg.OriginalWeight)
			continue
		}
		if mod.cfg.DisableSmoothing {
			continue
		}
		fn(k, refFill(mod, u, int(idx)), false, 1-mod.cfg.OriginalWeight)
	}
}

func refSIR(mod *Model, user int, sorted []mathx.Scored) (float64, bool) {
	var num, den float64
	refForEachLocalRating(mod, user, sorted, func(k int, r float64, orig bool, w11 float64) {
		w := w11 * sorted[k].Score
		num += w * r
		den += w
	})
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

func refRatingWithW(mod *Model, u, i int) (val, w11 float64, ok bool) {
	row := mod.m.UserRatings(u)
	lo := sort.Search(len(row), func(x int) bool { return int(row[x].Index) >= i })
	if lo < len(row) && int(row[lo].Index) == i {
		return row[lo].Value, mod.cfg.OriginalWeight, true
	}
	if mod.cfg.DisableSmoothing {
		return 0, 0, false
	}
	return refFill(mod, u, i), 1 - mod.cfg.OriginalWeight, true
}

func refSUR(mod *Model, user, item int, users []likeMinded) (float64, bool) {
	var num, den float64
	for _, lm := range users {
		t := int(lm.user)
		r, w11, ok := refRatingWithW(mod, t, item)
		if !ok {
			continue
		}
		w := w11 * lm.sim
		num += w * (r - mod.m.UserMean(t))
		den += w
	}
	if den <= 0 {
		return 0, false
	}
	return mod.m.UserMean(user) + num/den, true
}

func refSUIR(mod *Model, sorted []mathx.Scored, users []likeMinded) (float64, bool) {
	var num, den float64
	for _, lm := range users {
		sim := lm.sim
		refForEachLocalRating(mod, int(lm.user), sorted, func(k int, r float64, orig bool, w11 float64) {
			ps := pairSim(sorted[k].Score, sim)
			if ps <= 0 {
				return
			}
			w := w11 * ps
			num += w * r
			den += w
		})
	}
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

func refEq10Sim(mod *Model, active, cand int) float64 {
	am := mod.m.UserMean(active)
	cm := mod.m.UserMean(cand)
	rowC := mod.m.UserRatings(cand)
	j := 0
	var num, denA, denC float64
	for _, e := range mod.m.UserRatings(active) {
		for j < len(rowC) && rowC[j].Index < e.Index {
			j++
		}
		var rc, w float64
		if j < len(rowC) && rowC[j].Index == e.Index {
			rc = rowC[j].Value
			w = mod.cfg.OriginalWeight
		} else if mod.cfg.DisableSmoothing {
			continue
		} else {
			rc = refFill(mod, cand, int(e.Index))
			w = 1 - mod.cfg.OriginalWeight
		}
		dc := rc - cm
		da := e.Value - am
		num += w * dc * da
		denC += w * w * dc * dc
		denA += da * da
	}
	if denA == 0 || denC == 0 {
		return 0
	}
	return num / (math.Sqrt(denC) * math.Sqrt(denA))
}

// refRankClusters is the Eq. 9 iCluster order without the production
// ranking: every cluster's UserClusterSim, then a stable sort by
// similarity descending, cluster id ascending.
func refRankClusters(mod *Model, user int) []int32 {
	k := mod.sm.NumClusters()
	sims := make([]float64, k)
	order := make([]int32, k)
	for c := range sims {
		sims[c] = mod.sm.UserClusterSim(user, c)
		order[c] = int32(c)
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := sims[order[a]], sims[order[b]]
		if sa != sb {
			return sa > sb
		}
		return order[a] < order[b]
	})
	return order
}

func refGather(mod *Model, user int) []int {
	var candidates []int
	if mod.cfg.FullUserSearch {
		for u := 0; u < mod.m.NumUsers(); u++ {
			if u != user {
				candidates = append(candidates, u)
			}
		}
		return candidates
	}
	factor := mod.cfg.CandidateFactor
	if factor <= 0 {
		factor = 4
	}
	want := factor * mod.cfg.K
	for _, c := range refRankClusters(mod, user) {
		for _, u := range mod.clusters.Members[c] {
			if u != user {
				candidates = append(candidates, u)
				if len(candidates) == want {
					return candidates
				}
			}
		}
	}
	return candidates
}

func refSelectLikeMinded(mod *Model, user int) []likeMinded {
	top := mathx.NewTopK(mod.cfg.K)
	for _, cand := range refGather(mod, user) {
		if s := refEq10Sim(mod, user, cand); s > 0 {
			top.Push(int32(cand), s)
		}
	}
	scored := top.Sorted()
	out := make([]likeMinded, len(scored))
	for i, s := range scored {
		out[i] = likeMinded{user: s.Index, sim: s.Score}
	}
	return out
}

func refPredictDetailed(mod *Model, user, item int) Prediction {
	var p Prediction
	if user < 0 || user >= mod.m.NumUsers() || item < 0 || item >= mod.m.NumItems() {
		p.Value = mod.fallback(user, item)
		return p
	}
	sorted := refSortedTopM(mod, item)
	users := refSelectLikeMinded(mod, user)
	p.ItemsUsed = len(sorted)
	p.UsersUsed = len(users)
	p.SIR, p.HasSIR = refSIR(mod, user, sorted)
	p.SUR, p.HasSUR = refSUR(mod, user, item, users)
	p.SUIR, p.HasSUIR = refSUIR(mod, sorted, users)
	wSIR := (1 - mod.cfg.Delta) * (1 - mod.cfg.Lambda)
	wSUR := (1 - mod.cfg.Delta) * mod.cfg.Lambda
	wSUIR := mod.cfg.Delta
	var num, den float64
	if p.HasSIR {
		num += wSIR * p.SIR
		den += wSIR
	}
	if p.HasSUR {
		num += wSUR * p.SUR
		den += wSUR
	}
	if p.HasSUIR {
		num += wSUIR * p.SUIR
		den += wSUIR
	}
	if den == 0 {
		p.Value = mod.fallback(user, item)
		return p
	}
	p.Value = mathx.Clamp(num/den, mod.m.MinRating(), mod.m.MaxRating())
	return p
}

// refRecommend is the pre-PR Recommend: rated-set map, -Inf sentinels,
// full sort, truncate, stop at the first -Inf.
func refRecommend(mod *Model, user, n int) []Recommendation {
	if n <= 0 || user < 0 || user >= mod.m.NumUsers() {
		return nil
	}
	rated := make(map[int]bool, len(mod.m.UserRatings(user)))
	for _, e := range mod.m.UserRatings(user) {
		rated[int(e.Index)] = true
	}
	type cand struct {
		item  int
		score float64
	}
	q := mod.m.NumItems()
	cands := make([]cand, q)
	for i := 0; i < q; i++ {
		if rated[i] || len(mod.m.ItemRatings(i)) == 0 {
			cands[i] = cand{i, math.Inf(-1)}
			continue
		}
		cands[i] = cand{i, refPredictDetailed(mod, user, i).Value}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].item < cands[b].item
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]Recommendation, 0, n)
	for _, c := range cands[:n] {
		if math.IsInf(c.score, -1) {
			break
		}
		out = append(out, Recommendation{Item: c.item, Score: c.score})
	}
	return out
}

func parityModels(t *testing.T) map[string]*Model {
	t.Helper()
	d := synth.MustGenerate(smallSynth())
	mods := map[string]*Model{}
	for name, mutate := range map[string]func(*Config){
		"default":          func(*Config) {},
		"disableSmoothing": func(c *Config) { c.DisableSmoothing = true },
		"disableCache":     func(c *Config) { c.DisableCache = true },
		"fullUserSearch":   func(c *Config) { c.FullUserSearch = true },
		"tinyKM":           func(c *Config) { c.K, c.M = 1, 1 },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		mod, err := Train(d.Matrix, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mods[name] = mod
	}
	return mods
}

// samePrediction reports whether a and b agree field by field, every
// float by its bits: == would equate +0 and −0.
func samePrediction(a, b Prediction) bool {
	return math.Float64bits(a.SIR) == math.Float64bits(b.SIR) &&
		math.Float64bits(a.SUR) == math.Float64bits(b.SUR) &&
		math.Float64bits(a.SUIR) == math.Float64bits(b.SUIR) &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.HasSIR == b.HasSIR && a.HasSUR == b.HasSUR && a.HasSUIR == b.HasSUIR &&
		a.ItemsUsed == b.ItemsUsed && a.UsersUsed == b.UsersUsed
}

// sameSelection reports whether got and want name the same like-minded
// users in the same order, every similarity by its bits.
func sameSelection(got, want []likeMinded) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range want {
		if got[k].user != want[k].user || math.Float64bits(got[k].sim) != math.Float64bits(want[k].sim) {
			return false
		}
	}
	return true
}

// TestPredictParityWithReference is the bit-for-bit property test: on
// every config variant, PredictDetailed (mirror + memo + column index +
// pooled scratch) must equal the reference path exactly — every
// component's bits, every flag, every fused value's bits.
func TestPredictParityWithReference(t *testing.T) {
	for name, mod := range parityModels(t) {
		mod := mod
		t.Run(name, func(t *testing.T) {
			p, q := mod.m.NumUsers(), mod.m.NumItems()
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				u := rng.Intn(p+4) - 2 // includes out-of-range users/items
				i := rng.Intn(q+4) - 2
				got := mod.PredictDetailed(u, i)
				want := refPredictDetailed(mod, u, i)
				if !samePrediction(got, want) {
					t.Logf("user %d item %d: got %+v want %+v", u, i, got, want)
					return false
				}
				return math.Float64bits(got.Value) == math.Float64bits(mod.Predict(u, i))
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSelectionParityWithReference holds the active-stationary Eq. 10
// kernel to the merge-form reference: for every user of the ledger
// fixture and of every parity variant, selectLikeMinded picks the users
// refSelectLikeMinded picks, in its order, each similarity bit for bit.
// Under the race detector every 7th user.
func TestSelectionParityWithReference(t *testing.T) {
	mods := parityModels(t)
	ledger, err := Train(ledgerTrain(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mods["ledger"] = ledger
	stride := 1
	if raceEnabled {
		stride = 7
	}
	for name, mod := range mods {
		t.Run(name, func(t *testing.T) {
			for u := 0; u < mod.m.NumUsers(); u += stride {
				if got, want := mod.selectLikeMinded(u), refSelectLikeMinded(mod, u); !sameSelection(got, want) {
					t.Fatalf("user %d: selected %v, reference %v", u, got, want)
				}
			}
		})
	}
}

// TestRecommendParityWithReference pins Recommend's heap selection +
// sorted-row merge to the full-sort reference, bit for bit, across n
// values including n > NumItems.
func TestRecommendParityWithReference(t *testing.T) {
	for name, mod := range parityModels(t) {
		mod := mod
		t.Run(name, func(t *testing.T) {
			q := mod.m.NumItems()
			for _, n := range []int{1, 3, 10, q / 2, q, q + 25} {
				for _, user := range []int{0, 7, mod.m.NumUsers() - 1} {
					got := mod.Recommend(user, n)
					want := refRecommend(mod, user, n)
					if len(got) != len(want) {
						t.Fatalf("user %d n %d: len %d want %d", user, n, len(got), len(want))
					}
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("user %d n %d rank %d: got %+v want %+v", user, n, k, got[k], want[k])
						}
					}
				}
			}
		})
	}
}

// TestRecommendSkipsUnsupportedAndRated verifies the skip-before-predict
// fix semantics: items without any rater and items the user already
// rated never appear, even when n asks for the whole catalogue.
func TestRecommendSkipsUnsupportedAndRated(t *testing.T) {
	mod, _ := trainSmall(t)
	q := mod.m.NumItems()
	empty := map[int]bool{}
	for i := 0; i < q; i++ {
		if len(mod.m.ItemRatings(i)) == 0 {
			empty[i] = true
		}
	}
	user := 3
	rated := map[int]bool{}
	for _, e := range mod.m.UserRatings(user) {
		rated[int(e.Index)] = true
	}
	recs := mod.Recommend(user, q)
	if len(recs) != q-len(rated)-len(empty) {
		t.Errorf("got %d recommendations, want %d (q=%d rated=%d empty=%d)",
			len(recs), q-len(rated)-len(empty), q, len(rated), len(empty))
	}
	for _, r := range recs {
		if rated[r.Item] {
			t.Errorf("rated item %d recommended", r.Item)
		}
		if empty[r.Item] {
			t.Errorf("unsupported item %d recommended", r.Item)
		}
	}
}

// TestGatherCandidatesCapped pins the satellite fix: the candidate set
// never exceeds CandidateFactor×K, even when a single cluster holds
// more users than the cap.
func TestGatherCandidatesCapped(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	cfg := smallConfig()
	cfg.Clusters = 2 // two huge clusters: the first visited exceeds the cap
	cfg.CandidateFactor = 2
	cfg.K = 5
	mod, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.CandidateFactor * cfg.K
	for u := 0; u < mod.m.NumUsers(); u += 7 {
		got := mod.gatherCandidates(u, &lmScratch{})
		if len(got) > want {
			t.Fatalf("user %d: %d candidates, cap is %d", u, len(got), want)
		}
		if len(got) != want {
			t.Fatalf("user %d: %d candidates, expected exactly %d with oversized clusters", u, len(got), want)
		}
	}
}

// TestTopMMirrorMatchesGIS checks the precomputed-neighbourhood
// invariant directly: topM[i] is exactly topItems(i) re-sorted by id,
// and stays correct across an incremental update (mirror regenerated or
// shared only when the GIS prefix is unchanged).
func TestTopMMirrorMatchesGIS(t *testing.T) {
	mod, _ := trainSmall(t)
	check := func(m *Model) {
		t.Helper()
		for i := 0; i < m.m.NumItems(); i++ {
			want := refSortedTopM(m, i)
			got := m.topM[i]
			if len(got) != len(want) {
				t.Fatalf("item %d: mirror len %d want %d", i, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("item %d pos %d: mirror %+v want %+v", i, k, got[k], want[k])
				}
			}
		}
	}
	check(mod)
	next, err := mod.WithUpdates([]RatingUpdate{
		{User: 0, Item: 3, Value: 5},
		{User: 11, Item: 40, Value: 1},
		{User: mod.m.NumUsers(), Item: 2, Value: 4}, // new user
	})
	if err != nil {
		t.Fatal(err)
	}
	check(next)
}

// TestMirrorPatchParity pins buildTopM(prev) to its from-scratch
// definition across chained applies of one rating, sixteen, and one per
// catalogue item: every topM row equals the top-M prefix copied and
// sorted by id, every topM2 row its squares, a row is prev's array
// exactly when the prefix holds the same entries as prev's, and all
// three ways of producing a row — shared, patched, rebuilt — occur.
func TestMirrorPatchParity(t *testing.T) {
	mod, _ := trainSmall(t)
	cur := mod
	rng := rand.New(rand.NewSource(17))
	p, q := mod.m.NumUsers(), mod.m.NumItems()
	var sharedByContent, patched, rebuilt int
	for step, n := range []int{1, 16, 1, q, 16, 1} {
		var ups []RatingUpdate
		for _, i := range rng.Perm(q)[:n] {
			ups = append(ups, RatingUpdate{User: rng.Intn(p), Item: i, Value: float64(1 + rng.Intn(5))})
		}
		if step == 4 {
			ups = append(ups, RatingUpdate{User: 0, Item: q, Value: 4}, RatingUpdate{User: 1, Item: q, Value: 2}) // new item
		}
		prev := cur
		var err error
		if cur, err = cur.Apply(ups); err != nil {
			t.Fatal(err)
		}
		next := cur
		for i := 0; i < next.m.NumItems(); i++ {
			want := refSortedTopM(next, i)
			got := next.topM[i]
			if len(got) != len(want) || len(next.topM2[i]) != len(want) {
				t.Fatalf("step %d item %d: mirror len %d/%d want %d", step, i, len(got), len(next.topM2[i]), len(want))
			}
			for k := range want {
				if got[k] != want[k] || next.topM2[i][k] != want[k].Score*want[k].Score {
					t.Fatalf("step %d item %d pos %d: mirror %+v (sq %v) want %+v", step, i, k, got[k], next.topM2[i][k], want[k])
				}
			}
			if i >= prev.m.NumItems() {
				continue
			}
			was, now := prev.topItems(i), next.topItems(i)
			same := len(was) == len(now)
			for k := 0; same && k < len(was); k++ {
				same = was[k] == now[k]
			}
			aliased := sameScored(prev.topM[i], next.topM[i]) && sameFloats(prev.topM2[i], next.topM2[i])
			if same != aliased {
				t.Fatalf("step %d item %d: prefix content equal=%v but mirror row shared=%v", step, i, same, aliased)
			}
			var left, entered [maxMirrorPatch]mathx.Scored
			nl, ne, ok := prefixDelta(was, now, &left, &entered)
			switch {
			case !ok:
				rebuilt++
			case nl+ne > 0:
				patched++
			case len(was) > 0 && &was[0] != &now[0]:
				sharedByContent++
			}
		}
	}
	if sharedByContent == 0 || patched == 0 || rebuilt == 0 {
		t.Fatalf("sharedByContent=%d patched=%d rebuilt=%d: a path went unexercised", sharedByContent, patched, rebuilt)
	}
}

// sameFloats is sameScored for the topM2 rows: the same array region.
func sameFloats(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestPatchByIDProperty drives prefixDelta + patchByID with random
// pairs of ranked lists over a small id and score range, so ids that
// leave, enter, keep their score, change it, and tie all mix.
func TestPatchByIDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func() []mathx.Scored {
		var l []mathx.Scored
		for _, id := range rng.Perm(40)[:rng.Intn(30)] {
			l = append(l, mathx.Scored{Index: int32(id), Score: float64(1+rng.Intn(4)) / 4})
		}
		mathx.SortScoredDesc(l)
		return l
	}
	byID := func(l []mathx.Scored) []mathx.Scored {
		out := append([]mathx.Scored(nil), l...)
		mathx.SortScoredByIndex(out)
		return out
	}
	patchedRows := 0
	for trial := 0; trial < 2000; trial++ {
		a := draw()
		b := append([]mathx.Scored(nil), a...)
		for k := rng.Intn(6); k > 0 && len(b) > 0; k-- { // nudge a few entries
			b[rng.Intn(len(b))].Score = float64(1+rng.Intn(4)) / 4
		}
		if trial%3 == 0 {
			b = draw()
		}
		mathx.SortScoredDesc(b)
		var left, entered [maxMirrorPatch]mathx.Scored
		nl, ne, ok := prefixDelta(a, b, &left, &entered)
		if !ok {
			continue
		}
		patchedRows++
		got, want := patchByID(byID(a), left[:nl], entered[:ne]), byID(b)
		if len(got) != len(want) {
			t.Fatalf("trial %d: patched len %d want %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d pos %d: %+v want %+v", trial, k, got[k], want[k])
			}
		}
	}
	if patchedRows < 500 {
		t.Fatalf("only %d of 2000 trials were patchable", patchedRows)
	}
}

// scanScores prices the whole catalogue for user through the scan
// kernel, borrowing sc's tile. Rated and unsupported items are included:
// the kernel scores what it is given, eligibility is the caller's.
func scanScores(mod *Model, user int, sc *recScratch) []mathx.Scored {
	cands := make([]mathx.Scored, mod.m.NumItems())
	for i := range cands {
		cands[i].Index = int32(i)
	}
	mod.scoreCandidates(user, cands, sc)
	return cands
}

// scanMatchesPredict reports whether every tiled score of user's scan is
// == both to production Predict and to the pinned reference path.
func scanMatchesPredict(t *testing.T, mod *Model, user int, sc *recScratch) bool {
	t.Helper()
	if !mod.tilePays(mod.m.NumItems()) {
		t.Fatal("a whole-catalogue scan did not take the tile")
	}
	for _, c := range scanScores(mod, user, sc) {
		i := int(c.Index)
		if want := refPredictDetailed(mod, user, i).Value; c.Score != want {
			t.Logf("user %d item %d: scan %v, reference %v", user, i, c.Score, want)
			return false
		}
		if want := mod.Predict(user, i); c.Score != want {
			t.Logf("user %d item %d: scan %v, Predict %v", user, i, c.Score, want)
			return false
		}
	}
	return true
}

// TestScanKernelParityWithPredict is the scan kernel's acceptance
// property: on every config variant the parity suite walks — plus tiny
// K/M and the cache-size extremes — every score a tiled scan produces is
// == to Predict(user, item) on the same model, for every item of the
// catalogue. One scratch is reused across users and variants, so stale
// tile contents from a different model are part of the property.
func TestScanKernelParityWithPredict(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	sc := new(recScratch)
	for name, mutate := range map[string]func(*Config){
		"default":          func(*Config) {},
		"disableSmoothing": func(c *Config) { c.DisableSmoothing = true },
		"disableCache":     func(c *Config) { c.DisableCache = true },
		"fullUserSearch":   func(c *Config) { c.FullUserSearch = true },
		"tinyKM":           func(c *Config) { c.K, c.M = 1, 1 },
		"tinyRecCache":     func(c *Config) { c.RecommendCacheSize = 2 },
		"noRecCache":       func(c *Config) { c.RecommendCacheSize = -1 },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		mod, err := Train(d.Matrix, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				user := rand.New(rand.NewSource(seed)).Intn(mod.m.NumUsers())
				return scanMatchesPredict(t, mod, user, sc)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestScanKernelDegenerateShapes covers the shapes where a tile row or a
// top-M list is empty, and a scratch that is too small for the model.
func TestScanKernelDegenerateShapes(t *testing.T) {
	// User 3 rated a single item, so Eq. 10's active-side variance is zero
	// and nobody is like-minded: the tile is the active user's row alone.
	// Item 4 has one rater and item 5 none, so their top-M rows are empty.
	b := ratings.NewBuilder(4, 6).SetScale(1, 5)
	for _, r := range [][3]int{
		{0, 0, 5}, {0, 1, 3}, {0, 2, 4}, {0, 3, 1},
		{1, 0, 4}, {1, 1, 2}, {1, 2, 5}, {1, 4, 3},
		{2, 0, 1}, {2, 1, 5}, {2, 3, 2}, {2, 2, 2},
		{3, 2, 4},
	} {
		b.MustAdd(r[0], r[1], float64(r[2]))
	}
	cfg := DefaultConfig()
	cfg.M, cfg.K, cfg.Clusters = 3, 2, 2
	tiny, err := Train(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tiny.likeMindedUsers(3)); n != 0 {
		t.Fatalf("user 3 has %d like-minded users; the fixture no longer isolates them", n)
	}
	if len(tiny.topM[4]) != 0 || len(tiny.topM[5]) != 0 {
		t.Fatalf("items 4 and 5 have top-M rows of %d and %d entries; want both empty", len(tiny.topM[4]), len(tiny.topM[5]))
	}
	sc := new(recScratch)
	for u := 0; u < tiny.m.NumUsers(); u++ {
		if !scanMatchesPredict(t, tiny, u, sc) {
			t.Errorf("tiny model, user %d: scan diverged from Predict", u)
		}
	}

	// A catalogue (and population) grown by Apply since the scratch was
	// last used: the tile sized for the old model must be regrown, not
	// indexed past its end or read stale.
	mod, _ := trainSmall(t)
	if !scanMatchesPredict(t, mod, 7, sc) {
		t.Fatal("before growth: scan diverged from Predict")
	}
	p, q := mod.m.NumUsers(), mod.m.NumItems()
	grown, err := mod.Apply([]RatingUpdate{
		{User: 7, Item: q + 2, Value: 4},
		{User: p, Item: 3, Value: 5},
		{User: p, Item: q, Value: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if grown.m.NumItems() <= q {
		t.Fatal("apply did not grow the catalogue")
	}
	if cap(sc.tile) >= tileCells(grown.cfg.K, grown.m.NumItems()) {
		t.Fatal("scratch tile already fits the grown model; the regrow path is not exercised")
	}
	for _, u := range []int{7, p, 0} {
		if !scanMatchesPredict(t, grown, u, sc) {
			t.Errorf("grown model, user %d: scan diverged from Predict", u)
		}
	}
}

// requireAtRest fails unless x is as its pool must hold it: every slot
// −1 and every obs cell but the sink unobserved.
func requireAtRest(t *testing.T, x *colIndex, ctx string) {
	t.Helper()
	for i, s := range x.slot {
		if s != -1 {
			t.Fatalf("%s: slot of column %d is %d, want -1", ctx, i, s)
		}
	}
	for s := 1; s < len(x.obs); s++ {
		if v := x.obs[s]; v == v {
			t.Fatalf("%s: obs cell %d holds %v, want unobserved", ctx, s, v)
		}
	}
}

// TestReadKernelDegenerateShapes runs both read kernels where a side is
// empty — an item with an empty top-M row, an active user with an empty
// row, a FullUserSearch candidate with no ratings — and holds them to
// the merge-form references bit for bit. One column index and one
// selection scratch serve every case, first on a larger catalogue (every
// 7th user) and then on a smaller one, and after every case both must be
// back at rest.
func TestReadKernelDegenerateShapes(t *testing.T) {
	// User 4 rated nothing. User 3 rated a single item, so Eq. 10's
	// active-side variance is zero and nobody is like-minded to them. Item
	// 4 has one rater and item 5 none, so their top-M rows are empty.
	b := ratings.NewBuilder(5, 6).SetScale(1, 5)
	for _, r := range [][3]int{
		{0, 0, 5}, {0, 1, 3}, {0, 2, 4}, {0, 3, 1},
		{1, 0, 4}, {1, 1, 2}, {1, 2, 5}, {1, 4, 3},
		{2, 0, 1}, {2, 1, 5}, {2, 3, 2}, {2, 2, 2},
		{3, 2, 4},
	} {
		b.MustAdd(r[0], r[1], float64(r[2]))
	}
	m := b.Build()
	larger, _ := trainSmall(t)
	x, sc := new(colIndex), &lmScratch{top: mathx.NewTopK(0)}
	check := func(mod *Model, stride int, ctx string) {
		t.Helper()
		for u := 0; u < mod.m.NumUsers(); u += stride {
			if got, want := mod.selectWith(sc, u), refSelectLikeMinded(mod, u); !sameSelection(got, want) {
				t.Fatalf("%s: user %d selects %v, reference %v", ctx, u, got, want)
			}
			requireAtRest(t, &sc.idx, ctx+": selection index")
			for i := 0; i < mod.m.NumItems(); i++ {
				if got, want := mod.predictWith(x, u, i), refPredictDetailed(mod, u, i); !samePrediction(got, want) {
					t.Fatalf("%s: Predict(%d, %d) = %+v, reference %+v", ctx, u, i, got, want)
				}
				requireAtRest(t, x, ctx+": Predict index")
			}
		}
	}
	check(larger, 7, "larger catalogue")
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"default", func(*Config) {}},
		{"fullUserSearch", func(c *Config) { c.FullUserSearch = true }},
		{"disableSmoothing", func(c *Config) { c.DisableSmoothing = true }},
		{"disableSmoothing+fullUserSearch", func(c *Config) { c.DisableSmoothing, c.FullUserSearch = true, true }},
	} {
		cfg := DefaultConfig()
		cfg.M, cfg.K, cfg.Clusters = 3, 2, 2
		tc.mutate(&cfg)
		tiny, err := Train(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tiny.m.UserRatings(4)) != 0 || len(tiny.likeMindedUsers(3)) != 0 {
			t.Fatalf("%s: user 4 has %d ratings and user 3 %d like-minded users; want none of either",
				tc.name, len(tiny.m.UserRatings(4)), len(tiny.likeMindedUsers(3)))
		}
		if len(tiny.topM[4]) != 0 || len(tiny.topM[5]) != 0 {
			t.Fatalf("%s: items 4 and 5 have top-M rows of %d and %d entries; want both empty", tc.name, len(tiny.topM[4]), len(tiny.topM[5]))
		}
		check(tiny, 1, tc.name)
	}
	// Predict's index keeps the larger catalogue's slots (its pool sheds
	// them, putColIndex); the selection scratch sheds its own.
	if len(x.slot) < larger.m.NumItems() {
		t.Fatal("the Predict index did not keep the larger catalogue's slots; the shrink was not exercised")
	}
	if q := m.NumItems(); cap(sc.idx.slot) > 2*q || cap(sc.idx.obs) > 2*(q+1) {
		t.Fatalf("the selection scratch holds %d slots and %d obs cells after a %d-item catalogue", cap(sc.idx.slot), cap(sc.idx.obs), q)
	}
}

// TestGISListsExcludeTheirItem pins what Predict's column index relies
// on: no item's GIS list, nor so its top-M mirror, holds the item itself,
// so slot M (the item's own column) never shares a column with a top-M
// slot. It holds for a trained model, one Apply grew and re-weighted, one
// loaded from its file, and one whose GIS blends in item attributes.
func TestGISListsExcludeTheirItem(t *testing.T) {
	check := func(mod *Model, ctx string) {
		t.Helper()
		for i := 0; i < mod.m.NumItems(); i++ {
			for _, n := range mod.gis.Neighbors(i) {
				if int(n.Index) == i {
					t.Fatalf("%s: item %d's GIS list holds the item", ctx, i)
				}
			}
			for _, n := range mod.topM[i] {
				if int(n.Index) == i {
					t.Fatalf("%s: item %d's top-M row holds the item", ctx, i)
				}
			}
		}
	}
	mod, d := trainSmall(t)
	check(mod, "trained")

	rng := rand.New(rand.NewSource(5))
	p, q := mod.m.NumUsers(), mod.m.NumItems()
	ups := []RatingUpdate{{User: 0, Item: q, Value: 4}, {User: 1, Item: q, Value: 2}}
	for k := 0; k < 64; k++ {
		ups = append(ups, RatingUpdate{User: rng.Intn(p), Item: rng.Intn(q), Value: float64(1 + rng.Intn(5))})
	}
	applied, err := mod.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	check(applied, "applied")

	var buf bytes.Buffer
	if err := applied.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check(loaded, "loaded")

	cfg := smallConfig()
	cfg.ContentBlend = 0.5
	cfg.ItemFeatures = make([][]float64, q)
	for i := range cfg.ItemFeatures {
		cfg.ItemFeatures[i] = []float64{float64(i % 3), float64(i % 5), 1}
	}
	blended, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check(blended, "content-blended")
}
