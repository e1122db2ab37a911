package core

import (
	"math"
	"slices"
	"time"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
)

// Scan kernel: "score many items for one user". Across such a scan the
// active user is stationary, and with it the like-minded set and every
// cell value and Eq. 11 weight on the user side of the local matrix;
// only the item side (the top-M list) moves. Predict scatters the same
// K sparse rows into a different item's index for every item; the
// kernel instead materialises each like-minded user's row once, densely
// — a tile of K rows × Q cells, plus one row for the active user — so
// SUR′ reads one cell per neighbour and SUIR′ (and SIR′, from the active
// user's row) gathers tile[n][top[k].Index] with no row cursor, top
// being the item's top-M GIS prefix in score order.
//
// The loop nest (neighbour-major, then top-M position in score order)
// and the floating-point expression per cell are Predict's, so a tiled
// score is bit-identical to Predict(user, item). DESIGN.md §9 has the
// layout and the argument; parity_test.go holds the kernel to it.

// localCell is one materialised local-matrix cell of a user's row: what
// the read kernels' cell rule (cellRule.at) gives for that (user, item).
type localCell struct {
	// val is the observed rating, else the Eq. 7 fill UserMean + fill.
	val float64
	// w is the Eq. 11 weight: ε for an original rating, 1−ε for a
	// fill. Zero with val 0 marks a cell absent under DisableSmoothing: a
	// zero weight adds +0 to both Eq. 12 sums, which is bit-identical to
	// Predict skipping the cell (the sums start at +0 and only
	// grow by non-negative weights, so they are never −0).
	w float64
}

// userScan is the user-stationary state of one scan. It borrows its
// tile from a recScratch and must not outlive that scratch's Put.
type userScan struct {
	mod   *Model
	user  int
	users []likeMinded
	// tile holds len(users)+1 rows of q cells: row n belongs to users[n]
	// and the last row to the active user. nil when the scan is too short
	// for a tile to pay and score falls back to Predict.
	tile []localCell
	q    int
}

// tileCells is the tile size, in cells, of a model with k like-minded
// users per active user and q items.
func tileCells(k, q int) int { return (k + 1) * q }

// tilePays reports whether scoring n items for one user is cheaper
// through a tile than through n Predicts. Building the tile
// is (K+1)·Q cell writes and a Predict score walks at least (K+1)·M
// cells, so the tile is paid for once n·M ≥ Q; K cancels.
func (mod *Model) tilePays(n int) bool {
	return n*mod.cfg.M >= mod.m.NumItems()
}

// beginScan readies the user-stationary state for scoring n items,
// borrowing sc's tile when the list is long enough for one to pay.
func (mod *Model) beginScan(user, n int, sc *recScratch) userScan {
	s := userScan{mod: mod, user: user, q: mod.m.NumItems()}
	if mod.tilePays(n) {
		s.users = mod.likeMindedUsers(user)
		// Sized to the model's K rather than this user's neighbour count,
		// so pooled tiles converge on one size (putRecScratch).
		if need := tileCells(mod.cfg.K, s.q); cap(sc.tile) < need {
			sc.tile = make([]localCell, need)
		}
		s.tile = sc.tile[:tileCells(len(s.users), s.q)]
		parallel.For(len(s.users)+1, mod.cfg.Workers, s.fillTileRow)
	}
	return s
}

// endScan books one scan-kernel pass that began at start, was handed
// items candidates and ran SUIR′ for priced of them.
//
// Clock reads: scan duration feeds the RecCacheStats counters only; no clock value reaches a score.
func endScan(start time.Time, items, priced int) {
	recScans.Add(1)
	recScanNanos.Add(uint64(time.Since(start)))
	recScanItems.Add(uint64(items))
	recScanPriced.Add(uint64(priced))
}

// scoreCandidates fills in cands[k].Score = Predict(user, cands[k].Index)
// for every candidate, in parallel. It serves the short lists only: one
// too short to prune (no tile, or no longer than the selection) has
// nothing to skip; the exact scan's long lists go through scoreTop
// instead.
//
// Clock reads: scan duration feeds the RecCacheStats counters only; no clock value reaches a score.
func (mod *Model) scoreCandidates(user int, cands []mathx.Scored, sc *recScratch) {
	start := time.Now()
	s := mod.beginScan(user, len(cands), sc)
	parallel.ForChunked(len(cands), mod.cfg.Workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			cands[k].Score = s.score(int(cands[k].Index))
		}
	})
	endScan(start, len(cands), len(cands))
}

// fillTileRow materialises tile row n: every cell starts as the row
// owner's Eq. 7 fill (or absent under DisableSmoothing) and the owner's
// observed ratings then overwrite theirs.
func (s *userScan) fillTileRow(n int) {
	mod := s.mod
	u := s.user
	if n < len(s.users) {
		u = int(s.users[n].user)
	}
	cells := s.tile[n*s.q : (n+1)*s.q]
	eps := mod.cfg.OriginalWeight
	if mod.cfg.DisableSmoothing {
		clear(cells)
	} else {
		um := mod.m.UserMean(u)
		wSm := 1 - eps
		for i, f := range mod.sm.FillRow(u)[:len(cells)] {
			r := um
			if f == f {
				r = um + f
			}
			cells[i] = localCell{val: r, w: wSm}
		}
	}
	for _, e := range mod.m.UserRatings(u) {
		cells[e.Index] = localCell{val: e.Value, w: eps}
	}
}

// score returns Predict(user, item) for an in-range item.
func (s *userScan) score(item int) float64 {
	if s.tile == nil {
		return s.mod.Predict(s.user, item)
	}
	mod := s.mod
	top := mod.topItems(item)
	var p Prediction
	p.SIR, p.HasSIR = s.sirTile(top)
	p.SUR, p.HasSUR = s.surTile(item)
	p.SUIR, p.HasSUIR = s.suirTile(top)
	mod.fuse(s.user, item, &p)
	return p.Value
}

// Bound-and-prune top-C selection (DESIGN.md §9). SUIR′ is K·M cells with
// a sqrt and a divide each and decides δ of the score; SIR′ and SUR′ are
// M+K cells with neither. The exact scan therefore prices SUIR′ only for
// the candidates whose Eq. 14 score could still reach the selection:
// every candidate gets its exact SIR′ and SUR′ and an upper bound on
// SUIR′, and a candidate whose fused bound falls strictly below the
// worst exact score of `want` already-priced candidates ranks after all
// of them and is never priced.

// scanBound is what the bound pass leaves for one candidate.
type scanBound struct {
	// ub is the Eq. 14 fusion with SUIR′ at its upper bound: score ≤ ub.
	ub float64
	// priced reports that the candidate's Score is its exact score.
	priced bool
}

// suirSlack is what suirTile's rounding can add to a SUIR′ over k
// like-minded users. SUIR′ is num/den over cells with weights w ≥ 0, so
// whenever it exists it is at most the largest value among its
// contributing cells; in floating point, over N ≤ k·M cells of magnitude
// ≤ A, the computed quotient exceeds that by less than (2N+1)·2⁻⁵³·A
// (Higham's γ_N on the two sums plus the division's rounding). The slack
// is four times that. A cell is a rating or a user mean plus an Eq. 8
// deviation — a mean of rating differences — so with ratings on the
// matrix's declared scale (the server rejects others; the factor of four
// is the margin for loaded data that strays) A = max(|min|, |max|) +
// (max − min).
func (mod *Model) suirSlack(k int) float64 {
	lo, hi := mod.m.MinRating(), mod.m.MaxRating()
	return float64(k*mod.cfg.M+2) * 0x1p-50 * (max(math.Abs(lo), math.Abs(hi)) + (hi - lo))
}

// boundColumns fills colHi[i] with the largest contributing cell (w > 0)
// among the like-minded tile rows at column i, −Inf where none
// contributes.
func (s *userScan) boundColumns(colHi []float64) {
	parallel.ForChunked(s.q, s.mod.cfg.Workers, func(lo, hi int) {
		col := colHi[lo:hi]
		for i := range col {
			col[i] = math.Inf(-1)
		}
		for n := range s.users {
			for i, c := range s.tile[n*s.q+lo : n*s.q+hi] {
				if c.w > 0 && c.val > col[i] {
					col[i] = c.val
				}
			}
		}
	})
}

// bound returns item's Eq. 14 score with SUIR′ at its upper bound: the
// largest colHi across the item's top-M columns, plus slack. With no
// contributing cell in any of those columns suirTile's den is 0 and
// SUIR′ is absent, so the bound is the exact score. fuse is
// non-decreasing in SUIR′ in floating point too — a product with δ ≥ 0,
// sums, a division by the same positive den and a clamp are each
// monotone — so the score suirTile's value fuses to is ≤ the bound.
func (s *userScan) bound(item int, colHi []float64, slack float64) float64 {
	top := s.mod.topItems(item)
	var p Prediction
	p.SIR, p.HasSIR = s.sirTile(top)
	p.SUR, p.HasSUR = s.surTile(item)
	hi := math.Inf(-1)
	for _, it := range top {
		if v := colHi[it.Index]; v > hi {
			hi = v
		}
	}
	if !math.IsInf(hi, -1) {
		p.SUIR, p.HasSUIR = hi+slack, true
	}
	s.mod.fuse(s.user, item, &p)
	return p.Value
}

// scoreTop prices every candidate that can rank among the user's want
// best, moves those to the front of cands and returns how many there
// are; each carries Score = Predict(user, Index). It needs a tile and
// more candidates than want (recommendExact sends shorter lists through
// scoreCandidates).
//
// The want candidates with the best bounds are priced first; cut is the
// want-th best exact score so far. The rest are priced in blocks, best
// bound first, and cut rises after each block; the pass stops at the
// first ub < cut. Such a candidate scores strictly below want priced
// candidates, so under mathx.Precedes it ranks after all of them
// whatever its id: it is not in the top want, its score is never
// needed, and neither is any later one's (their bounds are no higher).
//
// Clock reads: scan duration feeds the RecCacheStats counters only; no clock value reaches a score.
func (mod *Model) scoreTop(user int, cands []mathx.Scored, want int, sc *recScratch) int {
	start := time.Now()
	s := mod.beginScan(user, len(cands), sc)
	// Sized to the catalogue rather than this list, like the tile.
	if cap(sc.colHi) < s.q {
		sc.colHi = make([]float64, s.q)
	}
	if cap(sc.bounds) < s.q {
		sc.bounds = make([]scanBound, s.q)
	}
	colHi, bounds := sc.colHi[:s.q], sc.bounds[:len(cands)]
	s.boundColumns(colHi)
	slack := mod.suirSlack(len(s.users))
	workers := mod.cfg.Workers
	parallel.ForChunked(len(cands), workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			bounds[k] = scanBound{ub: s.bound(int(cands[k].Index), colHi, slack)}
		}
	})
	// price runs the exact score for a block of candidate positions and
	// folds the scores into best, the want best exact scores so far in
	// ascending order: best[0] is the cut.
	best := sc.best[:0]
	price := func(block []mathx.Scored) {
		parallel.ForChunked(len(block), workers, func(lo, hi int) {
			for _, f := range block[lo:hi] {
				cands[f.Index].Score = s.score(int(cands[f.Index].Index))
				bounds[f.Index].priced = true
			}
		})
		for _, f := range block {
			best = append(best, cands[f.Index].Score)
		}
		slices.Sort(best)
		best = best[:copy(best, best[len(best)-want:])]
	}

	sel := &sc.sel
	sel.Reset(want)
	for k := range bounds {
		sel.Offer(int32(k), bounds[k].ub)
	}
	price(sel.AppendRanked(sc.ranked[:0])) // candidate positions, not item ids
	rest := sc.rest[:0]
	for k := range bounds {
		if b := bounds[k]; !b.priced && b.ub >= best[0] {
			rest = append(rest, mathx.Scored{Index: int32(k), Score: b.ub})
		}
	}
	mathx.SortScoredDesc(rest)
	sc.rest = rest
	// A block is as wide as the selection, so a deep scan fans out as the
	// first pass does, and at least 16: re-reading the cut more often than
	// that stops saving SUIR′s (58.8 against 58.9 priced of 907 at want =
	// 10) and costs a fan-out each time.
	block := max(want, 16)
	for {
		n := 0
		for n < min(block, len(rest)) && rest[n].Score >= best[0] {
			n++
		}
		if n == 0 {
			break
		}
		price(rest[:n])
		rest = rest[n:]
	}
	sc.best = best

	priced := 0
	for k := range cands {
		if bounds[k].priced {
			cands[priced] = cands[k]
			priced++
		}
	}
	endScan(start, len(cands), priced)
	return priced
}

// sirTile is localSums' SIR′ with the scatter replaced by a gather from
// the active user's own tile row.
func (s *userScan) sirTile(top []mathx.Scored) (float64, bool) {
	cells := s.tile[len(s.users)*s.q:]
	var num, den float64
	for _, it := range top {
		c := cells[it.Index]
		w := c.w * it.Score
		num += w * c.val
		den += w
	}
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}

// surTile is localSums' SUR′ with each neighbour's cell read from its
// tile row.
func (s *userScan) surTile(item int) (float64, bool) {
	mod := s.mod
	var num, den float64
	for n, lm := range s.users {
		c := s.tile[n*s.q+item]
		w := c.w * lm.sim
		num += w * (c.val - mod.m.UserMean(int(lm.user)))
		den += w
	}
	if den <= 0 {
		return 0, false
	}
	return mod.m.UserMean(s.user) + num/den, true
}

// suirTile is localSums' SUIR′ with the per-neighbour scatter replaced by
// a branch-free gather from the neighbour's tile row. Neighbour order,
// top-M order and the per-cell arithmetic are localSums' exactly.
func (s *userScan) suirTile(top []mathx.Scored) (float64, bool) {
	var num, den float64
	for n, lm := range s.users {
		sim := lm.sim
		sim2 := sim * sim
		cells := s.tile[n*s.q : (n+1)*s.q]
		for _, it := range top {
			c := cells[it.Index]
			si := it.Score
			w := c.w * (si * sim / math.Sqrt(float64(si*si)+sim2))
			num += w * c.val
			den += w
		}
	}
	if den <= 0 {
		return 0, false
	}
	return num / den, true
}
