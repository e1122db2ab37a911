package core

import (
	"math"
	"sync"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Prediction breaks a fused prediction into the paper's components.
type Prediction struct {
	// SIR, SUR, SUIR are the Eq. 12 components computed over the local
	// matrix; the matching Has* flag reports whether the component had
	// any support.
	SIR, SUR, SUIR          float64
	HasSIR, HasSUR, HasSUIR bool
	// Value is the Eq. 14 fusion, clamped to the rating scale.
	Value float64
	// ItemsUsed and UsersUsed are the local matrix dimensions actually
	// available (≤ M and ≤ K).
	ItemsUsed, UsersUsed int
}

// Predict returns the fused CFSF prediction for (user, item), clamped to
// the training matrix's rating scale. It is safe for concurrent use.
func (mod *Model) Predict(user, item int) float64 {
	return mod.PredictDetailed(user, item).Value
}

// PredictDetailed computes the online phase for one (user, item) pair and
// returns the component breakdown.
func (mod *Model) PredictDetailed(user, item int) Prediction {
	var p Prediction
	if user < 0 || user >= mod.m.NumUsers() || item < 0 || item >= mod.m.NumItems() {
		p.Value = mod.fallback(user, item)
		return p
	}

	// topM is the id-sorted mirror of the top-M neighbourhood, built at
	// train/refresh time, so the merge loops below start immediately: no
	// per-request copy or sort.
	sorted := mod.topM[item]
	users := mod.likeMindedUsers(user)
	p.ItemsUsed = len(sorted)
	p.UsersUsed = len(users)

	p.SIR, p.HasSIR = mod.sirLocal(user, sorted)
	p.SUR, p.HasSUR = mod.surLocal(user, item, users)
	p.SUIR, p.HasSUIR = mod.suirLocal(sorted, mod.topM2[item], users)

	mod.fuse(user, item, &p)
	return p
}

// fuse sets p.Value from p's components: Eq. 14 with renormalisation
// over the available components, so a missing component never silently
// pulls the prediction toward 0. Shared by the single-pair path above
// and the scan kernel (scan.go).
func (mod *Model) fuse(user, item int, p *Prediction) {
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
		return
	}
	p.Value = mathx.Clamp(num/den, mod.m.MinRating(), mod.m.MaxRating())
}

// fallback is the cold-start chain: user mean, then item mean, then the
// global mean.
func (mod *Model) fallback(user, item int) float64 {
	if user >= 0 && user < mod.m.NumUsers() && len(mod.m.UserRatings(user)) > 0 {
		return mod.m.UserMean(user)
	}
	if item >= 0 && item < mod.m.NumItems() && len(mod.m.ItemRatings(item)) > 0 {
		return mod.m.ItemMean(item)
	}
	g := mod.m.GlobalMean()
	if g == 0 {
		return (mod.m.MinRating() + mod.m.MaxRating()) / 2
	}
	return g
}

// forEachLocalRating merges user u's sorted row against the id-sorted
// item neighbourhood, yielding every local-matrix cell of u's row: the
// observed rating where one exists, the Eq. 7 smoothed fill otherwise
// (unless smoothing is disabled, in which case missing cells are
// skipped). w11 is the Eq. 11 weight of the cell. This is the
// O(M + |row|) hot path of the online phase.
func (mod *Model) forEachLocalRating(u int, sorted []mathx.Scored, fn func(k int, r float64, original bool, w11 float64)) {
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
		fn(k, mod.sm.Fill(u, int(idx)), false, 1-mod.cfg.OriginalWeight)
	}
}

// sirLocal computes SIR′ (Eq. 12, first line): the w-weighted
// similarity-weighted average of the active user's (smoothed) ratings on
// the top-M similar items. The merge over the id-sorted neighbourhood is
// written out directly (same cell order and arithmetic as
// forEachLocalRating) because closure dispatch dominated the profile of
// the steady-state Predict path.
func (mod *Model) sirLocal(user int, sorted []mathx.Scored) (float64, bool) {
	row := mod.m.UserRatings(user)
	eps := mod.cfg.OriginalWeight
	wSm := 1 - eps
	var flRow []float64
	var um float64
	if !mod.cfg.DisableSmoothing {
		flRow = mod.sm.FillRow(user)
		um = mod.m.UserMean(user)
	}
	var num, den float64
	j := 0
	for _, it := range sorted {
		idx := it.Index
		for j < len(row) && row[j].Index < idx {
			j++
		}
		var r, w11 float64
		if j < len(row) && row[j].Index == idx {
			r = row[j].Value
			w11 = eps
		} else if flRow == nil {
			continue
		} else {
			r = um
			if f := flRow[idx]; f == f {
				r = um + f
			}
			w11 = wSm
		}
		w := w11 * it.Score
		num += w * r
		den += w
	}
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

// surLocal computes SUR′ (Eq. 12, second line): the mean-centred,
// w-weighted average of the like-minded users' (smoothed) ratings on the
// active item, re-anchored at the active user's mean.
func (mod *Model) surLocal(user, item int, users []likeMinded) (float64, bool) {
	var num, den float64
	for _, lm := range users {
		t := int(lm.user)
		r, w11, ok := mod.ratingWithW(t, item)
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

// suirLocal computes SUIR′ (Eq. 12, third line) with the Eq. 13 pair
// weight: ratings that like-minded users gave to similar items. Like
// sirLocal, the per-neighbour merge is written out directly with the
// user's mean and fill row hoisted out of the K×M inner loop; cell
// order and arithmetic match forEachLocalRating exactly. sq is the
// item's topM2 row: Score² per neighbour, precomputed at build time
// with the same multiply Eq. 13 would do here.
//
// Every cell visited contributes: the GIS keeps only positive item sims
// and Eq. 10 selection keeps only positive user sims, so the pair weight
// si·sim/√(si²+sim²) is strictly positive and pairSim's d == 0 guard can
// never fire. The mul and the sqrt are independent, so fusing them into
// one expression keeps each operation and its operands unchanged.
func (mod *Model) suirLocal(sorted []mathx.Scored, sq []float64, users []likeMinded) (float64, bool) {
	eps := mod.cfg.OriginalWeight
	wSm := 1 - eps
	sq = sq[:len(sorted)] // one bounds check here instead of one per cell
	var num, den float64
	for _, lm := range users {
		u := int(lm.user)
		sim := lm.sim
		sim2 := sim * sim // Eq. 13's userSim² hoisted out of the M-cell loop
		row := mod.m.UserRatings(u)
		j := 0
		if mod.cfg.DisableSmoothing {
			// Ablation: observed cells only.
			for k, it := range sorted {
				idx := it.Index
				for j < len(row) && row[j].Index < idx {
					j++
				}
				if j < len(row) && row[j].Index == idx {
					w := eps * (it.Score * sim / math.Sqrt(sq[k]+sim2))
					num += w * row[j].Value
					den += w
				}
			}
			continue
		}
		flRow := mod.sm.FillRow(u)
		um := mod.m.UserMean(u)
		for k, it := range sorted {
			idx := it.Index
			for j < len(row) && row[j].Index < idx {
				j++
			}
			var r, w11 float64
			if j < len(row) && row[j].Index == idx {
				r = row[j].Value
				w11 = eps
			} else {
				r = um
				if f := flRow[idx]; f == f {
					r = um + f
				}
				w11 = wSm
			}
			w := w11 * (it.Score * sim / math.Sqrt(sq[k]+sim2))
			num += w * r
			den += w
		}
	}
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

// pairSim implements Eq. 13.
func pairSim(itemSim, userSim float64) float64 {
	d := math.Sqrt(itemSim*itemSim + userSim*userSim)
	if d == 0 {
		return 0
	}
	return itemSim * userSim / d
}

// likeMindedUsers returns the active user's top-K neighbours per
// Eq. 10–11, using (and filling) the per-user cache.
func (mod *Model) likeMindedUsers(user int) []likeMinded {
	if !mod.cfg.DisableCache {
		if p := mod.neighborCache[user].Load(); p != nil {
			return *p
		}
	}
	sel := mod.selectLikeMinded(user)
	if !mod.cfg.DisableCache {
		mod.neighborCache[user].Store(&sel)
	}
	return sel
}

// lmScratch is the per-request scratch of one like-minded selection:
// the user's Eq. 9 cluster order and similarities, the candidate list,
// the bounded Eq. 10 top-K heap, and the ranking buffer. Instances cycle
// through lmScratchPool; a scratch is owned exclusively by one
// selectLikeMinded call between Get and Put, holds no model state of its
// own (every field is fully overwritten before use), and must never be
// retained past the call that fetched it.
type lmScratch struct {
	order      []int32
	sims       []float64
	candidates []int
	top        *mathx.TopK
	ranked     []mathx.Scored
}

// lmScratchPool recycles like-minded selection scratch across requests
// and across model generations (the scratch is model-independent).
//
//cfsf:guarded-by sync.Pool — each scratch is handed out to exactly one goroutine at a time; contents carry no cross-request state
var lmScratchPool = sync.Pool{
	New: func() any { return &lmScratch{top: mathx.NewTopK(0)} },
}

// selectLikeMinded builds the candidate set in iCluster order (§IV-E2)
// and scores each candidate with Eq. 10, keeping the top K positive
// similarities. The candidate set is capped at CandidateFactor×K even
// mid-cluster: the last visited cluster contributes only up to the cap
// (members come in ascending user id, so the truncation is
// deterministic), which bounds tail latency on models with one huge
// cluster.
func (mod *Model) selectLikeMinded(user int) []likeMinded {
	sc := lmScratchPool.Get().(*lmScratch)
	candidates := mod.gatherCandidates(user, sc)

	top := sc.top
	top.Reset(mod.cfg.K)
	for _, cand := range candidates {
		if s := mod.eq10Sim(user, cand); s > 0 {
			top.Push(int32(cand), s)
		}
	}
	scored := top.AppendSorted(sc.ranked[:0])
	out := make([]likeMinded, len(scored))
	for i, s := range scored {
		out[i] = likeMinded{user: s.Index, sim: s.Score}
	}
	// Same oversized-buffer policy as putRecScratch: the candidate list
	// sizes to the user population (all of it under FullUserSearch), so
	// a pooled scratch must not pin a larger model's high-water mark.
	if cap(candidates) > 2*len(candidates) && cap(candidates) > 4*mod.cfg.K {
		candidates = nil
	}
	sc.candidates = candidates[:0:cap(candidates)]
	sc.ranked = scored[:0]
	lmScratchPool.Put(sc)
	return out
}

// gatherCandidates returns user's like-minded candidate set, built in
// sc's candidate buffer: every other user under FullUserSearch, otherwise
// cluster members in iCluster order, hard-capped at CandidateFactor×K
// (the last cluster visited contributes only up to the cap). The
// iCluster order is ranked here (Eq. 9, smoothing.RankClusters) into
// sc's buffers: the selection this feeds is cached per user, so the
// ranking runs on that cache's miss and is never stored.
func (mod *Model) gatherCandidates(user int, sc *lmScratch) []int {
	buf := sc.candidates[:0]
	if mod.cfg.FullUserSearch {
		for u := 0; u < mod.m.NumUsers(); u++ {
			if u != user {
				buf = append(buf, u)
			}
		}
		return buf
	}
	factor := mod.cfg.CandidateFactor
	if factor <= 0 {
		factor = 4
	}
	want := factor * mod.cfg.K
	sc.order, sc.sims = mod.sm.RankClusters(user, sc.order, sc.sims)
	for _, c := range sc.order {
		for _, u := range mod.clusters.Members[c] {
			if u != user {
				buf = append(buf, u)
				if len(buf) == want {
					return buf
				}
			}
		}
	}
	return buf
}

// eq10Sim computes the w-weighted PCC of Eq. 10 between the active user a
// and candidate u, over the items a rated. The candidate side uses
// smoothed ratings with the Eq. 11 weight; the active side uses only its
// observed ratings (f ranges over I{u_a}). Both rows are sorted, so the
// candidate lookup is a single merge pass.
func (mod *Model) eq10Sim(active, cand int) float64 {
	am := mod.m.UserMean(active)
	cm := mod.m.UserMean(cand)
	rowC := mod.m.UserRatings(cand)
	eps := mod.cfg.OriginalWeight
	wSm := 1 - eps
	// The candidate's fill-memo row replaces per-cell sm.Fill calls; the
	// addend layout makes rc = cm + fill bit-identical to Fill(cand, i).
	var flRow []float64
	if !mod.cfg.DisableSmoothing {
		flRow = mod.sm.FillRow(cand)
	}
	j := 0
	var num, denA, denC float64
	for _, e := range mod.m.UserRatings(active) {
		for j < len(rowC) && rowC[j].Index < e.Index {
			j++
		}
		var rc, w float64
		if j < len(rowC) && rowC[j].Index == e.Index {
			rc = rowC[j].Value
			w = eps
		} else if flRow == nil {
			continue
		} else {
			rc = cm
			if f := flRow[e.Index]; f == f {
				rc = cm + f
			}
			w = wSm
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

// Pair identifies one prediction request in a batch.
type Pair struct {
	User, Item int
}

// PredictBatch predicts every pair in parallel and returns the fused
// values in input order.
func (mod *Model) PredictBatch(pairs []Pair) []float64 {
	out := make([]float64, len(pairs))
	parallel.For(len(pairs), mod.cfg.Workers, func(i int) {
		out[i] = mod.Predict(pairs[i].User, pairs[i].Item)
	})
	return out
}

// Recommendation is one ranked item for a user.
type Recommendation struct {
	Item  int
	Score float64
}

// recScratch is the scratch of one exact Recommend scan: the candidate
// buffer, the exact top-n selector, the ranking buffer, and the scan
// kernel's tile and bound buffers (scan.go). Same ownership rules as
// lmScratch: exclusive between Get and Put, fully overwritten before use,
// never retained past the call — the goroutines a scan fans out to touch
// the tile and the bound buffers only until it returns, which is before
// the Put.
type recScratch struct {
	cands  []mathx.Scored
	sel    mathx.TopSelect
	ranked []mathx.Scored
	// tile is (K+1) rows × Q local-matrix cells, 16 B each: by far the
	// largest buffer here, K+1 times the candidate buffer.
	tile []localCell
	// colHi and bounds are scoreTop's per-column and per-candidate bound
	// state, Q entries each; rest is its bound-ordered list of candidates
	// still to price, at most Q, and best its want best exact scores plus
	// a block's, under 2Q.
	colHi  []float64
	bounds []scanBound
	rest   []mathx.Scored
	best   []float64
}

//cfsf:guarded-by sync.Pool — each scratch is handed out to exactly one goroutine at a time; contents carry no cross-request state
var recScratchPool = sync.Pool{
	New: func() any { return new(recScratch) },
}

// putRecScratch returns a scratch to the pool, first dropping buffers
// that outgrew the current model's need by more than 2×: the candidate,
// ranking and bound buffers size to the catalogue Q and the tile to (K+1)·Q, so
// after serving a large model every pooled scratch would otherwise pin
// that high-water mark forever even when later (smaller) models need a
// fraction of it. A buffer within 2× of the need is kept — steady-state
// growth never reallocates, only a shrink (a different model in the
// same process) sheds memory.
func putRecScratch(sc *recScratch, q, k int) {
	if cap(sc.cands) > 2*q {
		sc.cands = nil
	}
	if cap(sc.ranked) > 2*q {
		sc.ranked = nil
	}
	if cap(sc.tile) > 2*tileCells(k, q) {
		sc.tile = nil
	}
	if cap(sc.colHi) > 2*q {
		sc.colHi = nil
	}
	if cap(sc.bounds) > 2*q {
		sc.bounds = nil
	}
	if cap(sc.rest) > 2*q {
		sc.rest = nil
	}
	if cap(sc.best) > 2*q {
		sc.best = nil
	}
	recScratchPool.Put(sc)
}

// Recommend returns the n items with the highest predicted rating for
// the user, excluding items the user already rated. Ties break by item
// id for determinism.
//
// Contract: invalid input (n <= 0 or a user outside the matrix) returns
// nil; valid input always returns a non-nil slice, possibly empty (every
// unrated item has zero support). Callers can therefore distinguish "bad
// request" from "nothing to recommend" without a separate error value,
// and the HTTP layer renders the empty case as [] rather than null.
//
// The first call for a user runs the exact scan (recommendExact) for the
// n asked and caches that ranking; calls on the same model generation for
// no more than it holds serve from the cache (reccache.go) and are
// allocation-free apart from the returned slice. An entry is only read by
// the generation whose scan built it, so cached and exact paths are
// bit-identical by construction; parity_test.go holds them to that.
func (mod *Model) Recommend(user, n int) []Recommendation {
	if n <= 0 || user < 0 || user >= mod.m.NumUsers() {
		return nil
	}
	capHint := n
	if q := mod.m.NumItems(); capHint > q {
		capHint = q
	}
	return mod.RecommendAppend(make([]Recommendation, 0, capHint), user, n)
}

// RecommendAppend is Recommend writing into caller-owned storage: the
// top-n items are appended to dst and the extended slice returned. On
// invalid input dst is returned unchanged. A caller that reuses dst
// across requests (dst[:0]) makes the warm cached path allocation-free —
// the property the CI benchmark gate holds Recommend to.
func (mod *Model) RecommendAppend(dst []Recommendation, user, n int) []Recommendation {
	if n <= 0 || user < 0 || user >= mod.m.NumUsers() {
		return dst
	}
	cacheCap := 0
	if mod.recCache != nil && user < len(mod.recCache) {
		cacheCap = mod.recCacheCap()
	}
	// A miss scans for what was asked — a list is read from its head, and a
	// narrower selection prices fewer candidates (scoreTop). One that finds
	// an entry too short for its n is a user whose reads page: it scans to
	// the capacity, once, so the entry serves every n an entry can.
	want := n
	if cacheCap > 0 {
		e := mod.recCache[user].Load()
		if e != nil && (e.complete || n <= len(e.ranked)) {
			recCacheHits.Add(1)
			return appendRecommendations(dst, e.ranked, n)
		}
		recCacheMisses.Add(1)
		if e != nil && len(e.ranked) < cacheCap {
			recWidened.Add(1)
			want = max(n, cacheCap)
		}
	}
	sc := recScratchPool.Get().(*recScratch)
	ranked, offered := mod.recommendExact(user, want, sc)
	if cacheCap > 0 {
		keep := ranked[:min(len(ranked), cacheCap)]
		mod.publishRec(user, &recEntry{
			ranked:   append([]mathx.Scored(nil), keep...),
			complete: offered <= len(keep),
		})
	}
	dst = appendRecommendations(dst, ranked, n)
	sc.ranked = ranked[:0]
	putRecScratch(sc, mod.m.NumItems(), mod.cfg.K)
	return dst
}

// appendRecommendations appends the first n entries of a canonical
// ranking to dst as public Recommendation values.
func appendRecommendations(dst []Recommendation, ranked []mathx.Scored, n int) []Recommendation {
	if n > len(ranked) {
		n = len(ranked)
	}
	for _, e := range ranked[:n] {
		dst = append(dst, Recommendation{Item: int(e.Index), Score: e.Score})
	}
	return dst
}

// recommendExact returns the user's top-want ranking in canonical
// order and the number of eligible candidates it was selected from. The
// ranking's backing array belongs to sc; callers copy what they keep and
// return sc to the pool.
//
// Items the user rated and items with no support (no raters at all) are
// skipped before prediction by merging the catalogue against the user's
// id-sorted rating row — no rated-set map, no prediction paid for an
// item that can never be recommended. Of the rest the scan kernel prices
// the ones that can reach the top want (scoreTop) — all of them when
// there are no more than want, or too few for a tile (scoreCandidates) —
// and the exact top-n selection over the priced candidates reproduces
// the full sort's score-desc/id-asc order bit for bit.
func (mod *Model) recommendExact(user, want int, sc *recScratch) (ranked []mathx.Scored, offered int) {
	q := mod.m.NumItems()
	cands := sc.cands[:0]
	row := mod.m.UserRatings(user)
	j := 0
	for i := 0; i < q; i++ {
		for j < len(row) && int(row[j].Index) < i {
			j++
		}
		if (j < len(row) && int(row[j].Index) == i) || len(mod.m.ItemRatings(i)) == 0 {
			continue
		}
		cands = append(cands, mathx.Scored{Index: int32(i)})
	}
	sc.cands = cands
	if want > q {
		want = q
	}
	priced := len(cands)
	if len(cands) > want && mod.tilePays(len(cands)) {
		priced = mod.scoreTop(user, cands, want, sc)
	} else {
		mod.scoreCandidates(user, cands, sc)
	}
	sel := &sc.sel
	sel.Reset(want)
	for _, c := range cands[:priced] {
		sel.Offer(c.Index, c.Score)
	}
	return sel.AppendRanked(sc.ranked[:0]), len(cands)
}

// EvalOn predicts every target of a split and returns predictions in
// target order (a convenience for the evaluation harness and tests).
func (mod *Model) EvalOn(targets []ratings.Target) []float64 {
	pairs := make([]Pair, len(targets))
	for i, t := range targets {
		pairs[i] = Pair{t.User, t.Item}
	}
	return mod.PredictBatch(pairs)
}
