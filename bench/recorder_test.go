package main

import (
	"testing"
	"time"
)

func TestDeepestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // 9 beyond the median
		{20, 0.5, true},
		{99, 0.5, true}, // p90 would leave 9
		{100, 0.9, true},
		{199, 0.9, true}, // p95 would leave 9
		{200, 0.95, true},
		{1000, 0.99, true},
		{9999, 0.99, true},
		{10000, 0.999, true},
	} {
		got, ok := deepestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("deepestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuantileIsASample(t *testing.T) {
	var r recorder
	for v := 100; v >= 1; v-- {
		r.add(time.Duration(v)*time.Millisecond, time.Millisecond)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.95: 95, 0.999: 100, 1: 100, 0: 1} {
		if got := r.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// The median of 1..n is (n+1)/2 for every n, even or odd.
func TestMedianSweep(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	for n := 1; n <= 400; n++ {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = float64((i*7919)%n + 1) // a permutation of 1..n whenever 7919 does not divide n
		}
		if got, want := median(vs), float64(n+1)/2; got != want {
			t.Errorf("median of 1..%d = %v, want %v", n, got, want)
		}
	}
}
