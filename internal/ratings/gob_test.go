package ratings

import (
	"bytes"
	"encoding/gob"
	"slices"
	"strings"
	"testing"
)

func TestMatrixGobRoundTrip(t *testing.T) {
	b := NewBuilder(4, 6)
	b.SetScale(1, 10)
	b.MustAdd(0, 0, 7)
	b.MustAdd(0, 5, 2)
	b.MustAdd(3, 2, 9.5)
	orig := b.Build()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig); err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.NumUsers() != 4 || back.NumItems() != 6 || back.NumRatings() != 3 {
		t.Fatalf("dims/nnz mismatch: %d×%d/%d", back.NumUsers(), back.NumItems(), back.NumRatings())
	}
	if back.MinRating() != 1 || back.MaxRating() != 10 {
		t.Errorf("scale [%g,%g], want [1,10]", back.MinRating(), back.MaxRating())
	}
	for u := 0; u < 4; u++ {
		for i := 0; i < 6; i++ {
			a, aok := orig.Rating(u, i)
			c, cok := back.Rating(u, i)
			if aok != cok || a != c {
				t.Fatalf("(%d,%d): %g,%v vs %g,%v", u, i, a, aok, c, cok)
			}
		}
	}
	// Derived statistics must be rebuilt too.
	if back.GlobalMean() != orig.GlobalMean() {
		t.Errorf("global mean %g, want %g", back.GlobalMean(), orig.GlobalMean())
	}
}

func TestMatrixGobEmpty(t *testing.T) {
	orig := NewBuilder(2, 3).Build()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig); err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.NumUsers() != 2 || back.NumItems() != 3 || back.NumRatings() != 0 {
		t.Error("empty matrix did not round-trip")
	}
}

func TestMatrixGobDecodeGarbage(t *testing.T) {
	var m Matrix
	if err := m.GobDecode([]byte("garbage")); err == nil {
		t.Error("garbage must error")
	}
}

// TestMatrixGobKeepsTimes: a timed matrix round-trips with every
// timestamp in place (version 1 of the wire had no Times and dropped
// them without a word), and an untimed one stays untimed.
func TestMatrixGobKeepsTimes(t *testing.T) {
	b := NewBuilder(4, 6)
	for _, r := range []struct {
		u, i int
		ts   int64
	}{{0, 0, 1000}, {0, 5, 1005}, {3, 2, 0}, {3, 4, 1034}} { // user 3 mixes a zero timestamp in
		if err := b.AddWithTime(r.u, r.i, float64(1+r.i%5), r.ts); err != nil {
			t.Fatal(err)
		}
	}
	orig := b.Build()
	data, err := orig.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if !back.HasTimes() {
		t.Fatal("timed matrix decoded without timestamps")
	}
	for u := 0; u < orig.NumUsers(); u++ {
		got, want := back.UserRatingTimes(u), orig.UserRatingTimes(u)
		if !slices.Equal(got, want) || len(got) != len(back.UserRatings(u)) {
			t.Fatalf("user %d: timestamps %v for %d ratings, want %v", u, got, len(back.UserRatings(u)), want)
		}
	}

	untimed := NewBuilder(2, 2)
	untimed.MustAdd(1, 1, 3)
	data, err = untimed.Build().GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var plain Matrix
	if err := plain.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if plain.HasTimes() {
		t.Fatal("untimed matrix decoded with timestamps")
	}
}

// TestMatrixGobVersions: a version-1 stream still decodes (untimed), a
// version from the future is refused by number, and timestamps that do
// not line up with the triples are refused.
func TestMatrixGobVersions(t *testing.T) {
	encode := func(w matrixWire) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	w := matrixWire{Version: 1, NumUsers: 2, NumItems: 3, MinRating: 1, MaxRating: 5,
		Users: []int32{0, 1}, Items: []int32{2, 0}, Values: []float64{4, 2}}
	var v1 Matrix
	if err := v1.GobDecode(encode(w)); err != nil {
		t.Fatalf("version 1: %v", err)
	}
	if v1.NumRatings() != 2 || v1.HasTimes() {
		t.Fatalf("version 1 decoded to %d ratings, HasTimes %v", v1.NumRatings(), v1.HasTimes())
	}

	w.Version = matrixWireVersion + 1
	var m Matrix
	if err := m.GobDecode(encode(w)); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("version %d: err = %v, want a refusal naming the version", w.Version, err)
	}
	w.Version, w.Times = matrixWireVersion, []int64{7}
	if err := m.GobDecode(encode(w)); err == nil {
		t.Fatal("one timestamp for two triples was accepted")
	}
}
