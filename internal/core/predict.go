package core

import (
	"fmt"
	"math"
	"slices"
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
	if user < 0 || user >= mod.m.NumUsers() || item < 0 || item >= mod.m.NumItems() {
		return Prediction{Value: mod.fallback(user, item)}
	}
	x := colIndexPool.Get().(*colIndex)
	p := mod.predictWith(x, user, item, mod.topItems(item))
	putColIndex(x, mod.m.NumItems(), mod.cfg.M+1)
	return p
}

// predictWith is PredictDetailed for an in-range pair over the item's
// top-M list top, summed in top's order. It indexes the item's side in
// x, which it takes and leaves at rest.
func (mod *Model) predictWith(x *colIndex, user, item int, top []mathx.Scored) Prediction {
	var p Prediction
	users := mod.likeMindedUsers(user)
	p.ItemsUsed = len(top)
	p.UsersUsed = len(users)

	x.ready(mod.m.NumItems(), len(top)+1)
	x.index(top)
	x.slot[item] = int32(len(top))
	mod.localSums(x, user, item, top, users, &p)
	x.slot[item] = -1
	x.unindex(top)

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

// Read kernels. Both online-phase loops read many sparse rating rows
// against one set of columns that stays fixed across them: Predict reads
// the active row and K like-minded rows against the item's top-M columns
// and the item itself (item-stationary), and the Eq. 10 selection reads
// every candidate's row against the active user's rated columns
// (active-stationary). Each indexes its fixed side once per request, in
// a colIndex, and scatters each moving row into that index in one pass
// over the row: no cursor merges two sorted rows, and no cell is looked
// up by search. The sums then walk the fixed side in its own order — the
// item's top-M list by GIS score, the active row by item id — with the
// same arithmetic per cell as parity_test.go's references, which look
// each cell up alone and sum in the order they are handed. The scan
// kernel (scan.go) is the user-stationary dual: it materialises the user
// side densely and gathers the item side.

// unobserved marks an obs cell whose column the scattered row has no
// rating for. Ratings are finite (ratings.Builder refuses NaN), so NaN is
// free as the marker, and it tests with one self-comparison.
var unobserved = math.NaN()

// colIndex is a read kernel's per-request index of its stationary side:
// slot[i] is catalogue column i's position among the indexed columns, −1
// where i is not indexed, and obs[s+1] is the rating the row last
// scattered holds at slot s's column, unobserved where it holds none.
// obs[0] is the sink every unindexed column's rating lands in, so a
// scatter stores each entry of its row without a branch (a branch taken
// at random for the ~M/Q of entries that hit cost more than the whole
// rest of the scatter); nothing reads it. At rest — between requests, and
// in its pool — every slot is −1 and every obs cell but the sink
// unobserved: a kernel un-indexes what it indexed, and take returns each
// obs cell to unobserved as it reads it.
type colIndex struct {
	slot []int32
	obs  []float64
}

// colIndexPool recycles Predict's and Explain's column index across
// requests and model generations: 4·Q bytes of slots and 8·(M+2) of obs
// cells (the top-M columns, the item's own, and the sink). The like-minded
// selection keeps its own in lmScratch. Each index is handed out to
// exactly one goroutine at a time, at rest when pooled; every Put goes
// through putColIndex.
var colIndexPool = sync.Pool{
	New: func() any { return new(colIndex) },
}

// putColIndex returns x to its pool, first dropping an array that
// outgrew the current model's need by more than 2×, as putRecScratch
// does: q slots and n of them indexed. Under the race detector it first
// checks that x is at rest.
func putColIndex(x *colIndex, q, n int) {
	if raceEnabled {
		x.checkAtRest("colIndexPool")
	}
	if cap(x.slot) > 2*q {
		x.slot = nil
	}
	if cap(x.obs) > 2*(n+1) {
		x.obs = nil
	}
	colIndexPool.Put(x)
}

// checkAtRest panics, naming pool and the first bad cell, unless x is at
// rest: every slot −1 and every obs cell but the sink unobserved. A kernel
// that pooled an index with a column still indexed would hand the next
// request a stale slot, which ready does not reset. It reads only memory
// its goroutine owns, so it is left uninstrumented: a detector call per
// slot made every race-mode Predict a few percent slower.
//
//go:norace
func (x *colIndex) checkAtRest(pool string) {
	for i, s := range x.slot {
		if s != -1 {
			panic(fmt.Sprintf("%s: put with slot %d indexed at %d, want -1", pool, i, s))
		}
	}
	for s := 1; s < len(x.obs); s++ {
		if v := x.obs[s]; v == v {
			panic(fmt.Sprintf("%s: put with obs cell %d holding %v, want unobserved", pool, s, v))
		}
	}
}

// poison fills s over its whole capacity with v, the sentinel of a buffer
// that is dead once pooled: under the race detector putLMScratch and
// putRecScratch poison every buffer they pool (NaN scores, −1 ids). A read
// of memory that outlived its Put then reads the sentinel, which a test
// sees, and races with the poison's write, which the detector sees.
// Doubling copies keep it to a few range accesses under the detector.
func poison[T any](s []T, v T) {
	s = s[:cap(s)]
	if len(s) == 0 {
		return
	}
	s[0] = v
	for n := 1; n < len(s); n *= 2 {
		copy(s[n:], s[:n])
	}
}

// deadScored is the poison of a pooled []mathx.Scored.
var deadScored = mathx.Scored{Index: -1, Score: math.NaN()}

// ready grows x, at rest, to q columns of which n can be indexed.
func (x *colIndex) ready(q, n int) {
	if k := len(x.slot); k < q {
		x.slot = slices.Grow(x.slot, q-k)[:q]
		for i := k; i < q; i++ {
			x.slot[i] = -1
		}
	}
	if k := len(x.obs); k < n+1 {
		x.obs = slices.Grow(x.obs, n+1-k)[:n+1]
		for s := k; s <= n; s++ {
			x.obs[s] = unobserved
		}
	}
}

// index puts cols[k]'s column at slot k.
func (x *colIndex) index(cols []mathx.Scored) {
	for k, c := range cols {
		x.slot[c.Index] = int32(k)
	}
}

// unindex returns cols' slots to −1.
func (x *colIndex) unindex(cols []mathx.Scored) {
	for _, c := range cols {
		x.slot[c.Index] = -1
	}
}

// scatter writes row's ratings at indexed columns into their obs cells,
// and the rest into the sink.
func (x *colIndex) scatter(row []ratings.Entry) {
	slot, obs := x.slot, x.obs
	for _, e := range row {
		obs[slot[e.Index]+1] = e.Value
	}
}

// take returns obs cell s and leaves it unobserved.
func (x *colIndex) take(s int) float64 {
	v := x.obs[s+1]
	x.obs[s+1] = unobserved
	return v
}

// cellRule is the local-matrix cell rule of one row owner, the one every
// read kernel and Explain apply: an observed rating is the cell, with the
// Eq. 11 weight ε; an unobserved cell is the owner's Eq. 7 fill — mean
// plus the fill memo's addend, or the plain mean where the memo holds
// NaN — with weight 1−ε; under DisableSmoothing it is no cell at all.
type cellRule struct {
	fill  []float64 // the owner's fill-memo row; nil under DisableSmoothing
	mean  float64   // the owner's mean
	eps   float64   // ε, an observed cell's weight
	wFill float64   // 1−ε, a fill's weight
}

// cellsOf returns user u's cell rule.
func (mod *Model) cellsOf(u int) cellRule {
	c := cellRule{mean: mod.m.UserMean(u), eps: mod.cfg.OriginalWeight, wFill: 1 - mod.cfg.OriginalWeight}
	if !mod.cfg.DisableSmoothing {
		c.fill = mod.sm.FillRow(u)
	}
	return c
}

// at returns the cell at column col, where obs is the owner's scattered
// rating there: its value r, its Eq. 11 weight, and whether it is a cell.
// mean + fill is bit-identical to smoothing.Fill, which adds the same
// two operands.
func (c *cellRule) at(obs float64, col int32) (r, w11 float64, ok bool) {
	if obs == obs {
		return obs, c.eps, true
	}
	if c.fill == nil {
		return 0, 0, false
	}
	r = c.mean
	if f := c.fill[col]; f == f {
		r = c.mean + f
	}
	return r, c.wFill, true
}

// localSums is the item-stationary read kernel: with x indexing the
// item's top-M columns at slots 0..m−1 and the item at slot m, it
// scatters the active row once for SIR′ (Eq. 12, first line) and each
// like-minded row once for that user's SUR′ cell (slot m) and SUIR′ cells
// (slots 0..m−1), and sets p's three components. SIR′ and every SUIR′ row
// sum in top's order, SUR′ and SUIR′ by neighbour rank. Eq. 12 sums over
// the set of the M most similar items, so any order of top is the paper's
// prediction; Predict, the scan kernel and Explain all hand it the GIS
// prefix in score order, so they agree bit for bit.
//
// A GIS list never holds its own item (its candidates skip it), so slot m
// shares a column with no top-M slot; TestGISListsExcludeTheirItem pins
// that.
//
// Every SUIR′ cell visited contributes: the GIS keeps only positive item
// sims and Eq. 10 selection keeps only positive user sims, so the Eq. 13
// pair weight si·sim/√(si²+sim²) is strictly positive and pairSim's
// d == 0 guard can never fire. si² is rounded on its own (the conversion
// forbids fusing it into the add), so each cell's operations and operands
// are Eq. 13's.
func (mod *Model) localSums(x *colIndex, user, item int, top []mathx.Scored, users []likeMinded, p *Prediction) {
	m := len(top)

	x.scatter(mod.m.UserRatings(user))
	x.take(m) // the active user's own rating of the item is no cell of its prediction
	c := mod.cellsOf(user)
	var num, den float64
	for k, it := range top {
		r, w11, ok := c.at(x.take(k), it.Index)
		if !ok {
			continue
		}
		w := w11 * it.Score
		num += w * r
		den += w
	}
	if den > 0 {
		p.SIR, p.HasSIR = num/den, true
	}

	var surNum, surDen float64
	num, den = 0, 0
	for _, lm := range users {
		u := int(lm.user)
		x.scatter(mod.m.UserRatings(u))
		c := mod.cellsOf(u)
		sim := lm.sim
		if r, w11, ok := c.at(x.take(m), int32(item)); ok {
			w := w11 * sim
			surNum += w * (r - c.mean)
			surDen += w
		}
		sim2 := sim * sim // Eq. 13's userSim² hoisted out of the M-cell loop
		for k, it := range top {
			r, w11, ok := c.at(x.take(k), it.Index)
			if !ok {
				continue
			}
			si := it.Score
			w := w11 * (si * sim / math.Sqrt(float64(si*si)+sim2))
			num += w * r
			den += w
		}
	}
	if surDen > 0 {
		p.SUR, p.HasSUR = mod.m.UserMean(user)+surNum/surDen, true
	}
	if den > 0 {
		p.SUIR, p.HasSUIR = num/den, true
	}
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
// the active row's column index and centred ratings, the bounded Eq. 10
// top-K heap, and the ranking buffer. Instances cycle
// through lmScratchPool; a scratch is owned exclusively by one
// selectLikeMinded call between Get and Put (putLMScratch), holds no
// model state of its own (every field is fully overwritten before use),
// and must never be retained past the call that fetched it.
type lmScratch struct {
	order      []int32
	sims       []float64
	candidates []int
	idx        colIndex  // the active row's columns; at rest between selections
	da         []float64 // d_a = r − r̄_a per active-row position
	top        *mathx.TopK
	ranked     []mathx.Scored
}

// lmScratchPool recycles like-minded selection scratch across requests
// and across model generations (the scratch is model-independent). Each
// scratch is handed out to exactly one goroutine at a time; its contents
// carry no cross-request state. Every Put goes through putLMScratch.
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
	out := mod.selectWith(sc, user)
	putLMScratch(sc)
	return out
}

// putLMScratch returns sc to its pool. Under the race detector it first
// checks that the column index is at rest and poisons every buffer.
func putLMScratch(sc *lmScratch) {
	if raceEnabled {
		sc.idx.checkAtRest("lmScratchPool")
		poison(sc.order, -1)
		poison(sc.sims, math.NaN())
		poison(sc.candidates, -1)
		poison(sc.da, math.NaN())
		poison(sc.ranked, deadScored)
	}
	lmScratchPool.Put(sc)
}

// selectWith is selectLikeMinded on the scratch sc, which it leaves ready
// for the pool: the index at rest and every buffer within 2× of this
// model's need.
func (mod *Model) selectWith(sc *lmScratch, user int) []likeMinded {
	candidates := mod.gatherCandidates(user, sc)

	top := sc.top
	top.Reset(mod.cfg.K)
	a := mod.indexActive(user, sc)
	for _, cand := range candidates {
		if s := a.sim(cand); s > 0 {
			top.Push(int32(cand), s)
		}
	}
	a.unindex()
	scored := top.AppendSorted(sc.ranked[:0])
	out := make([]likeMinded, len(scored))
	for i, s := range scored {
		out[i] = likeMinded{user: s.Index, sim: s.Score}
	}
	// Same oversized-buffer policy as putRecScratch: the candidate list
	// sizes to the user population (all of it under FullUserSearch), so
	// a pooled scratch must not pin a larger model's high-water mark; the
	// index sizes to the catalogue, and its obs cells and d_a to the active
	// row, at most the catalogue.
	if cap(candidates) > 2*len(candidates) && cap(candidates) > 4*mod.cfg.K {
		candidates = nil
	}
	sc.candidates = candidates[:0:cap(candidates)]
	if q := mod.m.NumItems(); cap(sc.idx.slot) > 2*q || cap(sc.idx.obs) > 2*(q+1) || cap(sc.da) > 2*q {
		sc.idx, sc.da = colIndex{}, nil
	}
	sc.ranked = scored[:0]
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

// activeIndex is the active-stationary read kernel of one like-minded
// selection: the active user's row indexed in its scratch's colIndex,
// slot j for row position j, with d_a hoisted per position. It borrows
// the scratch and must not outlive its Put.
type activeIndex struct {
	mod *Model
	x   *colIndex
	row []ratings.Entry
	da  []float64
	// denA is Σ d_a² over the whole row. With smoothing on every cell
	// contributes to Eq. 10, so each candidate's Σ d_a² is this sum, in
	// the same order; under DisableSmoothing only the candidate's observed
	// cells do, and sim sums its own.
	denA float64
}

// indexActive indexes user's row in sc.
func (mod *Model) indexActive(user int, sc *lmScratch) activeIndex {
	row := mod.m.UserRatings(user)
	x := &sc.idx
	x.ready(mod.m.NumItems(), len(row))
	am := mod.m.UserMean(user)
	da := slices.Grow(sc.da[:0], len(row))[:len(row)]
	var denA float64
	for j, e := range row {
		x.slot[e.Index] = int32(j)
		d := e.Value - am
		da[j] = d
		denA += d * d
	}
	sc.da = da
	return activeIndex{mod: mod, x: x, row: row, da: da, denA: denA}
}

// unindex returns the row's slots to −1.
func (a *activeIndex) unindex() {
	for _, e := range a.row {
		a.x.slot[e.Index] = -1
	}
}

// sim computes the w-weighted PCC of Eq. 10 between the active user and
// candidate cand, over the items the active user rated. The candidate
// side uses its cells under the cell rule, with their Eq. 11 weights; the
// active side uses only its observed ratings (f ranges over I{u_a}).
func (a *activeIndex) sim(cand int) float64 {
	a.x.scatter(a.mod.m.UserRatings(cand))
	c := a.mod.cellsOf(cand)
	sparse := c.fill == nil
	denA := a.denA
	if sparse {
		denA = 0
	}
	da := a.da[:len(a.row)]
	var num, denC float64
	for j, e := range a.row {
		rc, w, ok := c.at(a.x.take(j), e.Index)
		if !ok {
			continue
		}
		dc := rc - c.mean
		num += w * dc * da[j]
		denC += w * w * dc * dc
		if sparse {
			denA += da[j] * da[j]
		}
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

// recScratchPool recycles recScratch across requests. Each scratch is
// handed out to exactly one goroutine at a time; its contents carry no
// cross-request state. Every Put goes through putRecScratch.
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
// same process) sheds memory. Under the race detector it then poisons
// every buffer it keeps.
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
	if raceEnabled {
		nan := math.NaN()
		poison(sc.cands, deadScored)
		poison(sc.ranked, deadScored)
		poison(sc.tile, localCell{val: nan, w: nan})
		poison(sc.colHi, nan)
		poison(sc.bounds, scanBound{ub: nan})
		poison(sc.rest, deadScored)
		poison(sc.best, nan)
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
