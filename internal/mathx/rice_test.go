package mathx

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// riceBits is the length in bits of vals' Rice code under parameter k,
// one value at a time.
func riceBits(vals []uint64, k uint) uint64 {
	var n uint64
	for _, v := range vals {
		if q := v >> k; q >= riceEscape {
			n += riceEscape + 64
		} else {
			n += q + 1 + uint64(k)
		}
	}
	return n
}

// readRice reads n values from c through a RiceReader and requires the
// code to end there. On a fault it returns the values read before it —
// n of them for what is left after the last — and the fault.
func readRice(c RiceCode, n int) ([]uint64, error) {
	r, err := c.Reader(n)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, n)
	for len(out) < n {
		v, err := r.Next()
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, r.End()
}

// decodeRice is readRice that fails the test on a fault.
func decodeRice(t *testing.T, c RiceCode, n int) []uint64 {
	t.Helper()
	out, err := readRice(c, n)
	if err != nil {
		t.Fatalf("value %d: %v", len(out), err)
	}
	return out
}

// TestRiceRoundTripsEveryK: at every k, a column holding 0, 2^k − 1, 2^k,
// the last value coded in unary and the first escaped (quotients 31 and
// 32), and MaxUint64 comes back whole, from a code forced to that k and
// from the one EncodeRice picks, whose length is what riceParam says.
func TestRiceRoundTripsEveryK(t *testing.T) {
	for k := uint(0); k <= MaxRiceK; k++ {
		vals := []uint64{0, 1<<k - 1, 1 << k, math.MaxUint64, 7}
		if k+5 < 64 {
			vals = append(vals, riceEscape<<k-1, riceEscape<<k, riceEscape<<k+1)
		}
		w := newRiceWriter(riceBits(vals, k))
		for _, v := range vals {
			w.code(v, k)
		}
		forced := RiceCode{K: uint8(k), Bits: w.bytes()}
		if want := (riceBits(vals, k) + 7) / 8; uint64(len(forced.Bits)) != want {
			t.Fatalf("k = %d: %d bytes, want %d", k, len(forced.Bits), want)
		}
		if got := decodeRice(t, forced, len(vals)); !slices.Equal(got, vals) {
			t.Fatalf("k = %d: %v, want %v", k, got, vals)
		}
		c := EncodeRice(vals)
		pk, size := riceParam(vals)
		if uint(c.K) != pk || uint64(len(c.Bits)) != (size+7)/8 || size != riceBits(vals, pk) {
			t.Fatalf("EncodeRice: k = %d, %d bytes; riceParam: k = %d, %d bits, recount %d", c.K, len(c.Bits), pk, size, riceBits(vals, pk))
		}
		if got := decodeRice(t, c, len(vals)); !slices.Equal(got, vals) {
			t.Fatalf("EncodeRice at k = %d: %v, want %v", c.K, got, vals)
		}
	}
	if c := EncodeRice(nil); c.K != 0 || len(c.Bits) != 0 {
		t.Fatalf("the empty column: k = %d, %d bytes", c.K, len(c.Bits))
	}
}

// TestRiceParamIsTheMinimum: on random columns of several shapes,
// riceParam's k gives the fewest bits of any k in [0, 63], the smallest
// such k, and its bit count is exact.
func TestRiceParamIsTheMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() uint64{
		"small gaps":   func() uint64 { return uint64(rng.ExpFloat64() * 4) },
		"byte values":  func() uint64 { return uint64(rng.Intn(256)) },
		"wide":         func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) },
		"full width":   rng.Uint64,
		"mostly zero":  func() uint64 { return uint64(rng.Intn(20) / 19 * rng.Intn(1<<20)) },
		"time deltas":  func() uint64 { return DeltaCode(0, rng.Int63n(2e7)-1e7) },
		"one constant": func() uint64 { return 1 << 40 },
	}
	for name, draw := range shapes {
		for trial := 0; trial < 20; trial++ {
			vals := make([]uint64, 1+rng.Intn(400))
			for i := range vals {
				vals[i] = draw()
			}
			k, size := riceParam(vals)
			best, bestK := riceBits(vals, 0), uint(0)
			for kk := uint(1); kk <= MaxRiceK; kk++ {
				if n := riceBits(vals, kk); n < best {
					best, bestK = n, kk
				}
			}
			if k != bestK || size != best {
				t.Fatalf("%s trial %d: riceParam gives k = %d (%d bits), brute force k = %d (%d bits)", name, trial, k, size, bestK, best)
			}
			if got := decodeRice(t, EncodeRice(vals), len(vals)); !slices.Equal(got, vals) {
				t.Fatalf("%s trial %d: the column did not round-trip", name, trial)
			}
		}
	}
}

// TestDeltaCodeRoundTrips: time deltas zigzag and wrap, so the extremes of
// int64 and a 0 amid timestamps around 1e9 all come back, through a Rice
// code, from a running previous value starting at 0.
func TestDeltaCodeRoundTrips(t *testing.T) {
	times := []int64{1e9, 1e9 + 17, 0, 1e9 - 3, math.MinInt64, math.MaxInt64, math.MinInt64, -1, 0, 1e9, 1e9}
	codes := make([]uint64, len(times))
	prev := int64(0)
	for i, v := range times {
		codes[i], prev = DeltaCode(prev, v), v
	}
	if DeltaCode(5, 5) != 0 || DeltaCode(5, 4) != 1 || DeltaCode(5, 6) != 2 {
		t.Fatalf("small steps code as %d %d %d, want 0 1 2", DeltaCode(5, 5), DeltaCode(5, 4), DeltaCode(5, 6))
	}
	got := decodeRice(t, EncodeRice(codes), len(codes))
	prev = 0
	for i, z := range got {
		if v := DeltaDecode(prev, z); v != times[i] {
			t.Fatalf("time %d: %d, want %d", i, v, times[i])
		}
		prev = times[i]
	}
}

// TestRiceReaderRefuses: a code that runs past the bytes, a quotient
// past 64 bits, an escape holding a value its quotient codes, a k past 63,
// bytes left over and nonzero pad bits are each refused, at the value at
// fault, and so are a read past the values asked for and an End before
// they are read.
func TestRiceReaderRefuses(t *testing.T) {
	three := EncodeRice([]uint64{1, 2, 3, 0}) // 10 bits at k = 0: six pad bits
	for _, tc := range []struct {
		name string
		c    RiceCode
		n    int
	}{
		{"no bytes", RiceCode{}, 1},
		{"a unary run past the bytes", RiceCode{Bits: []byte{0xff}}, 1},
		{"low bits past the bytes", RiceCode{K: 9, Bits: []byte{0}}, 1},
		{"an escape past the bytes", RiceCode{Bits: []byte{0xff, 0xff, 0xff, 0xff, 1}}, 1},
		{"a quotient past 64 bits", RiceCode{K: 63, Bits: []byte{0x03, 0, 0, 0, 0, 0, 0, 0, 0}}, 1},
		{"an escape of a small value", RiceCode{Bits: []byte{0xff, 0xff, 0xff, 0xff, 5, 0, 0, 0, 0, 0, 0, 0}}, 1},
		{"k past 63", RiceCode{K: 64, Bits: []byte{0}}, 1},
		{"bytes left over", RiceCode{Bits: append(slices.Clone(three.Bits), 0)}, 4},
		{"nonzero pad bits", RiceCode{K: three.K, Bits: append(slices.Clone(three.Bits[:len(three.Bits)-1]), three.Bits[len(three.Bits)-1]|0x80)}, 4},
		{"a value past a long run of sound ones", RiceCode{Bits: append(make([]byte, 20), 0xff)}, 161},
	} {
		want := tc.n - 1
		if tc.name == "bytes left over" || tc.name == "nonzero pad bits" {
			want = tc.n
		}
		if tc.name == "k past 63" {
			want = 0
		}
		if got, err := readRice(tc.c, tc.n); err == nil || len(got) != want {
			t.Errorf("%s: refused at value %d (%v), want a refusal at value %d", tc.name, len(got), err, want)
		}
	}
	if got := decodeRice(t, three, 4); !slices.Equal(got, []uint64{1, 2, 3, 0}) {
		t.Fatalf("the sound code decodes to %v", got)
	}
	r, _ := three.Reader(4)
	if err := r.End(); err == nil {
		t.Fatal("End before any value was read passed")
	}
	for i := 0; i < 4; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("a fifth value of four was read")
	}
	if got := (RiceCode{K: 2, Bits: make([]byte, 3)}).MaxValues(); got != 8 {
		t.Fatalf("MaxValues of 24 bits at k = 2: %d, want 8", got)
	}
}

// FuzzRice: any bytes under any k decode to values or to a refusal, never
// a panic and never a read past their len × 8 bits; what decodes
// re-encodes under that k to the same bytes, and EncodeRice round-trips
// the values.
func FuzzRice(f *testing.F) {
	f.Add(uint8(2), []byte{0x5a, 0x00})
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(23), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(63), []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(70), []byte{0})
	f.Fuzz(func(t *testing.T, k uint8, b []byte) {
		c := RiceCode{K: k, Bits: b}
		if k > MaxRiceK || len(b) > 1<<12 {
			if _, err := c.Reader(1); k > MaxRiceK && err == nil {
				t.Fatalf("k = %d accepted", k)
			}
			return
		}
		d := riceDecoder{b: b, k: uint(k)}
		var vals []uint64
		for len(vals) <= c.MaxValues() {
			v, err := d.one()
			if d.bit() > 8*len(b) || d.next > len(b) {
				t.Fatalf("read to bit %d, byte %d, of %d bytes", d.bit(), d.next, len(b))
			}
			if err != nil {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) > c.MaxValues() {
			t.Fatalf("%d values from %d bytes at k = %d, past MaxValues %d", len(vals), len(b), k, c.MaxValues())
		}
		// The reader's block decoding agrees with one value at a time on
		// every value, and on where the stream fails.
		got, err := readRice(c, len(vals)+1)
		if err == nil || !slices.Equal(got, vals) {
			t.Fatalf("the reader stops after %d values (%v), one at a time after %d", len(got), err, len(vals))
		}
		if got := decodeRice(t, EncodeRice(vals), len(vals)); !slices.Equal(got, vals) {
			t.Fatalf("EncodeRice did not round-trip %v", vals)
		}
		// When the values end the stream, they re-encode under k to it
		// exactly.
		if _, err := readRice(c, len(vals)); err == nil {
			w := newRiceWriter(riceBits(vals, uint(k)))
			for _, v := range vals {
				w.code(v, uint(k))
			}
			if !slices.Equal(w.bytes(), b) {
				t.Fatalf("%v at k = %d re-encodes to %x, not %x", vals, k, w.bytes(), b)
			}
		}
	})
}
