package mathx

import (
	"math"
	"testing"
)

// TestGapIDRefuses: a gap places the id prev + 1 + gap, and refuses an id
// at the limit or past it — after the last id, under a limit of zero, from
// a gap past 64 bits' worth of ids — or past the int32 ids.
func TestGapIDRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		gap   uint64
		prev  int32
		limit int
		want  int32 // -1: refused
	}{
		{"the first id", 0, -1, 10, 0},
		{"the last id below the limit", 3, 5, 10, 9},
		{"the limit itself", 10, -1, 10, -1},
		{"past the limit after an id", 0, 9, 10, -1},
		{"a limit of zero", 0, -1, 0, -1},
		{"the largest gap", math.MaxUint64, -1, 10, -1},
		{"past the int32 ids under a wider limit", 5, math.MaxInt32 - 2, math.MaxInt, -1},
	} {
		id, ok := GapID(tc.prev, tc.gap, tc.limit)
		if got := map[bool]int32{true: id, false: -1}[ok]; got != tc.want {
			t.Errorf("%s: id %d, ok %v; want %d", tc.name, id, ok, tc.want)
		}
	}
}
