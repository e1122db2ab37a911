package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cfsf/internal/ratings"
)

// TestUDataGolden pins the u.data bytes of four generator configurations
// by sha256: the ledger fixture every benchmark trains on, a drifting
// draw, the MovieLens-100K shape, and a configuration whose selection
// weights overflow to +Inf so that many keys tie at 0 and the
// tie-breaking full sort decides the order. A change to the generator's
// streams, to how items are picked from them, or to WriteUData moves one.
func TestUDataGolden(t *testing.T) {
	drift := DefaultConfig()
	drift.DriftStd, drift.Seed = 0.6, 7
	ml100k := DefaultConfig()
	ml100k.Users, ml100k.Items, ml100k.MinPerUser, ml100k.MeanPerUser, ml100k.Archetypes, ml100k.Seed = 943, 1682, 20, 106, 16, 3
	ties := DefaultConfig()
	ties.Users, ties.AffinitySelect = 60, 1000
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"ledger", DefaultConfig(), "617f64361c2d41ff87b1c8e32682186d647bfd4bd6e37f1ae7de052cf0058418"},
		{"drift", drift, "437092eade4577c4e344fdef061bcfc54c983d10bbc970656d176da2a6bde7eb"},
		{"943x1682", ml100k, "dd9063f5b7518d27d3eaae345d86fcfd61c40d87f2dc279504696979f9153579"},
		{"ties", ties, "686508954a8ef557a6260f437cc4e27323191c61aaccb6ef762dbfa49ad6f6d9"},
	} {
		var buf bytes.Buffer
		if err := ratings.WriteUData(&buf, MustGenerate(tc.cfg).Matrix); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: u.data sha256 %s, want %s — generator output changed", tc.name, got, tc.want)
		}
	}
}

// TestSmallestKeysMatchesFullSort holds smallestKeys to what Generate did
// before it selected: sort.Slice over the identity permutation, of which
// only the first n entries are read. Distinct keys must take the
// selection; ties, signed zeros and NaNs where they could decide the order
// must take the full sort.
func TestSmallestKeysMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, keys []float64, n int, wantFull bool) {
		t.Helper()
		want := make([]int, len(keys))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
		order := make([]int, len(keys))
		for i := range order {
			order[i] = i
		}
		full := smallestKeys(order, keys, n)
		for k := 0; k < n; k++ {
			if order[k] != want[k] {
				t.Fatalf("%s (n %d of %d): order[%d] = %d, full sort has %d", name, n, len(keys), k, order[k], want[k])
			}
		}
		if full != wantFull {
			t.Fatalf("%s (n %d of %d): full sort = %v, want %v", name, n, len(keys), full, wantFull)
		}
	}
	for _, size := range []int{1, 2, 3, 10, 1000} {
		for _, n := range []int{0, 1, size / 2, size - 1, size} {
			keys := make([]float64, size)
			for i := range keys {
				keys[i] = -math.Log(1-rng.Float64()) / rng.Float64()
			}
			check("distinct", keys, n, false)
			if n == 0 || size < 2 {
				continue
			}
			// A tie at the cut: the n-th and (n+1)-th smallest keys equal.
			tied := append([]float64(nil), keys...)
			sorted := make([]int, size)
			for i := range sorted {
				sorted[i] = i
			}
			sort.Slice(sorted, func(a, b int) bool { return keys[sorted[a]] < keys[sorted[b]] })
			if n < size {
				tied[sorted[n]] = tied[sorted[n-1]]
				check("tie at the cut", tied, n, true)
			}
			// A tie beyond the cut decides nothing.
			if n+2 < size {
				beyond := append([]float64(nil), keys...)
				beyond[sorted[n+2]] = beyond[sorted[n+1]]
				check("tie beyond the cut", beyond, n, false)
			}
		}
	}
	// A user whose weights overflowed: every affine item keys at ±0.
	zeros := make([]float64, 50)
	for i := range zeros {
		zeros[i] = rng.Float64() + 1
		if i%3 == 0 {
			zeros[i] = math.Copysign(0, float64(i%2)-0.5)
		}
	}
	check("signed zeros", zeros, 10, true)
	nan := append([]float64(nil), zeros...)
	for i := range nan {
		if nan[i] == 0 {
			nan[i] = 1 + float64(i)
		}
	}
	check("no ties", nan, 10, false)
	nan[49] = math.NaN()
	check("a NaN anywhere", nan, 10, true)
}
