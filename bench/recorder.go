package main

import (
	"math"
	"sort"
	"time"
)

// recorder keeps every sample and sorts once at the end, so a quantile
// is a value that was measured — obs.Histogram interpolates inside
// buckets, which quantises a median to the bucket grid. One recorder
// belongs to one goroutine; merge them after the goroutines have ended.
type recorder struct {
	samples []float64
	sorted  bool
}

func (r *recorder) add(d time.Duration, unit time.Duration) {
	r.samples = append(r.samples, float64(d)/float64(unit))
	r.sorted = false
}

func (r *recorder) merge(o *recorder) {
	r.samples = append(r.samples, o.samples...)
	r.sorted = false
}

func (r *recorder) n() int { return len(r.samples) }

// quantile returns the nearest-rank q-quantile, 0 when empty.
func (r *recorder) quantile(q float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Float64s(r.samples)
		r.sorted = true
	}
	rank := int(math.Ceil(q * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	return r.samples[rank-1]
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// deepestPercentile returns the deepest percentile of tailLadder that
// has at least minBeyond of n samples beyond it; ok is false when even
// the median does not.
func deepestPercentile(n int) (q float64, ok bool) {
	for _, p := range tailLadder {
		if beyond := n - int(math.Ceil(p*float64(n))); beyond >= minBeyond {
			q, ok = p, true
		}
	}
	return q, ok
}

// median of a few values (set-up and recovery trials): the middle one,
// or the mean of the two middle ones.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
