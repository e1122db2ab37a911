package mathx

import (
	"encoding/binary"
	"math"
	"testing"
)

// appendGap appends the gap code of id, the next id of an ascending
// sequence after prev (-1 before the first), as version 2 model files
// were written.
func appendGap(dst []byte, prev, id int32) []byte {
	return binary.AppendUvarint(dst, uint64(id-prev-1))
}

// TestGapRoundTrip: ascending ids, the first at 0, gaps of one byte and
// of several, come back from their gap code whole, each taking the bytes
// its code does, and the last one fits a limit one above it.
func TestGapRoundTrip(t *testing.T) {
	ids := []int32{0, 1, 5, 127, 128, 255, 1 << 16, 1<<20 + 3, math.MaxInt32 - 1}
	var b []byte
	prev := int32(-1)
	for _, id := range ids {
		b = appendGap(b, prev, id)
		prev = id
	}
	prev = -1
	off := 0
	for k, want := range ids {
		id, n := NextGap(b[off:], prev, math.MaxInt32)
		if n <= 0 || id != want {
			t.Fatalf("entry %d: id %d (%d bytes), want %d", k, id, n, want)
		}
		off += n
		prev = id
	}
	if off != len(b) {
		t.Fatalf("%d of %d bytes read", off, len(b))
	}
	if n := len(appendGap(nil, 4, 5)) + len(appendGap(nil, -1, 127)); n != 2 {
		t.Fatalf("two one-byte gaps took %d bytes", n)
	}
}

// TestNextGapRefuses: a code that runs past its bytes reads as 0 bytes,
// and an id at the limit or past it — after the last id, or from a code
// that overflows 64 bits — or past the int32 ids as -1.
func TestNextGapRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		b     []byte
		prev  int32
		limit int
		want  int
	}{
		{"no bytes", nil, -1, 10, 0},
		{"a continuation byte last", []byte{0x80}, -1, 10, 0},
		{"the limit itself", []byte{10}, -1, 10, -1},
		{"past the limit after an id", []byte{0}, 9, 10, -1},
		{"a limit of zero", []byte{0}, -1, 0, -1},
		{"a two-byte gap past the limit", []byte{0x80, 0x01}, 0, 100, -1},
		{"a code past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, -1, 10, -1},
		{"past the int32 ids under a wider limit", []byte{5}, math.MaxInt32 - 2, math.MaxInt, -1},
	} {
		if id, n := NextGap(tc.b, tc.prev, tc.limit); n != tc.want {
			t.Errorf("%s: id %d, n %d; want n %d", tc.name, id, n, tc.want)
		}
	}
}
