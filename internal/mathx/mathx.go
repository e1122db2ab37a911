// Package mathx provides small numeric helpers shared by the CFSF
// implementation: clamping, running statistics, top-k selection and
// co-iteration over sorted sparse vectors.
package mathx

import (
	"math"
	"slices"
	"sort"
)

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ClampInt limits v to the closed interval [lo, hi].
func ClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Welford accumulates mean and variance in a single numerically stable pass.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations seen.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean, or 0 if no observations were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance, or 0 for fewer than two
// observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Scored is a generic (index, score) pair used for ranking.
type Scored struct {
	Index int32
	Score float64
}

// TopK keeps the k highest-scored items pushed into it. It is a bounded
// min-heap: O(n log k) for n pushes. The zero value is not usable; create
// one with NewTopK.
type TopK struct {
	k    int
	heap []Scored // min-heap on Score
}

// NewTopK returns a TopK that retains the k largest scores.
func NewTopK(k int) *TopK {
	if k < 0 {
		k = 0
	}
	return &TopK{k: k, heap: make([]Scored, 0, k)}
}

// Push offers one candidate to the heap.
func (t *TopK) Push(index int32, score float64) {
	if t.k == 0 {
		return
	}
	if len(t.heap) < t.k {
		t.heap = append(t.heap, Scored{index, score})
		t.up(len(t.heap) - 1)
		return
	}
	if score <= t.heap[0].Score {
		return
	}
	t.heap[0] = Scored{index, score}
	t.down(0)
}

// Len returns the number of retained items.
func (t *TopK) Len() int { return len(t.heap) }

// Reset empties the heap and sets a new retention bound. It keeps the
// backing array, which lets callers pool a TopK across requests instead
// of allocating one per call.
func (t *TopK) Reset(k int) {
	if k < 0 {
		k = 0
	}
	t.k = k
	t.heap = t.heap[:0]
}

// Sorted returns the retained items ordered by descending score, breaking
// ties by ascending index so results are deterministic.
func (t *TopK) Sorted() []Scored {
	return t.AppendSorted(nil)
}

// AppendSorted appends the retained items to dst in the same order
// Sorted uses (score descending, ties by ascending index) and returns
// the extended slice. With a pooled dst it is the allocation-free form
// of Sorted.
func (t *TopK) AppendSorted(dst []Scored) []Scored {
	n := len(dst)
	dst = append(dst, t.heap...)
	SortScoredDesc(dst[n:])
	return dst
}

func (t *TopK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.heap[p].Score <= t.heap[i].Score {
			break
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

func (t *TopK) down(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && t.heap[l].Score < t.heap[s].Score {
			s = l
		}
		if r < n && t.heap[r].Score < t.heap[s].Score {
			s = r
		}
		if s == i {
			return
		}
		t.heap[i], t.heap[s] = t.heap[s], t.heap[i]
		i = s
	}
}

// Precedes reports whether a ranks strictly before b in the canonical
// ranking order: higher score first, ties broken by ascending index.
// Every ranked list in the repo (GIS neighbour lists, like-minded
// selections, recommendations) uses this total order so that equal
// inputs always produce bit-identical rankings.
func Precedes(a, b Scored) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

// SortScoredDesc sorts list in place into the canonical ranking order
// (score descending, ties by ascending index).
func SortScoredDesc(list []Scored) {
	slices.SortFunc(list, func(a, b Scored) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return int(a.Index - b.Index)
	})
}

// SortScoredByIndex sorts list in place by ascending index. Rankings
// re-sorted this way support binary search and linear merges against
// other id-sorted rows.
func SortScoredByIndex(list []Scored) {
	slices.SortFunc(list, func(a, b Scored) int { return int(a.Index - b.Index) })
}

// SelectTopScored returns the top-n entries of list in the canonical
// ranking order, exactly as if the whole list had been sorted with
// SortScoredDesc and truncated; n <= 0 means unbounded (full sort).
// For n << len(list) the bounded-heap selection is O(len·log n) instead
// of O(len·log len). list is not modified; the result is freshly
// allocated.
func SelectTopScored(list []Scored, n int) []Scored {
	if n <= 0 || len(list) <= n {
		out := make([]Scored, len(list))
		copy(out, list)
		SortScoredDesc(out)
		return out
	}
	// Bounded selection keeping the n best under Precedes; the heap keeps
	// the *worst* retained entry at the root so it can be evicted in O(log n).
	heap := make([]Scored, n)
	copy(heap, list[:n])
	for i := n/2 - 1; i >= 0; i-- {
		siftWorstDown(heap, i)
	}
	for _, e := range list[n:] {
		if Precedes(e, heap[0]) {
			heap[0] = e
			siftWorstDown(heap, 0)
		}
	}
	SortScoredDesc(heap)
	return heap
}

// siftWorstDown restores the "worst retained entry at the root" heap
// property under the Precedes order, starting from position i.
func siftWorstDown(heap []Scored, i int) {
	n := len(heap)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && Precedes(heap[w], heap[l]) {
			w = l
		}
		if r < n && Precedes(heap[w], heap[r]) {
			w = r
		}
		if w == i {
			return
		}
		heap[i], heap[w] = heap[w], heap[i]
		i = w
	}
}

// TopSelect streams candidates one Offer at a time and retains the k
// best under the canonical ranking order — the incremental form of
// SelectTopScored for callers that produce scores on the fly (e.g.
// Recommend). Unlike TopK it never drops score-ties, so its output is
// bit-for-bit the sorted-and-truncated ranking. The zero value is
// usable after Reset; Reset keeps the backing array so a TopSelect can
// live in a sync.Pool.
type TopSelect struct {
	k int
	h []Scored // once full: "worst retained at root" heap under Precedes
}

// Reset empties the selector and sets the retention bound to k.
func (t *TopSelect) Reset(k int) {
	if k < 0 {
		k = 0
	}
	t.k = k
	t.h = t.h[:0]
}

// Offer submits one candidate.
func (t *TopSelect) Offer(index int32, score float64) {
	if t.k == 0 {
		return
	}
	e := Scored{index, score}
	if len(t.h) < t.k {
		t.h = append(t.h, e)
		if len(t.h) == t.k {
			for i := t.k/2 - 1; i >= 0; i-- {
				siftWorstDown(t.h, i)
			}
		}
		return
	}
	if Precedes(e, t.h[0]) {
		t.h[0] = e
		siftWorstDown(t.h, 0)
	}
}

// Len returns the number of retained candidates.
func (t *TopSelect) Len() int { return len(t.h) }

// AppendRanked appends the retained candidates to dst in the canonical
// ranking order and returns the extended slice. The selector still owns
// its internal state and may be Reset and reused afterwards.
func (t *TopSelect) AppendRanked(dst []Scored) []Scored {
	n := len(dst)
	dst = append(dst, t.h...)
	SortScoredDesc(dst[n:])
	return dst
}

// ArgsortDesc returns the indices of scores ordered by descending value,
// ties broken by ascending index.
func ArgsortDesc(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if scores[ia] != scores[ib] {
			return scores[ia] > scores[ib]
		}
		return ia < ib
	})
	return idx
}

// AlmostEqual reports whether a and b differ by no more than eps.
func AlmostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

// Resized returns a copy of s that is n ≥ len(s) long, zero past s's
// values. At n == len(s) it is slices.Clone, which does not zero a fresh
// array of a pointer-free type before copying into it: the copy-on-write
// structures copy their per-user and per-item slices with it on every
// write.
func Resized[S ~[]E, E any](s S, n int) S {
	if n == len(s) {
		return slices.Clone(s)
	}
	out := make(S, n)
	copy(out, s)
	return out
}
