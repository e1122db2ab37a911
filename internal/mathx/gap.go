package mathx

import "math"

// The gap code stores an ascending sequence of distinct ids as the
// difference of each from the one before it, less one — the first as the
// id itself — so ids that sit close together cost little and a repeated
// or out-of-order id cannot be written. Model files Rice-code the gaps of
// matrix rows (rice.go).

// GapID is the id a gap places after prev (-1 before the first):
// prev + 1 + gap. ok is false when that id would be limit or more, or
// past the int32 ids hold.
func GapID(prev int32, gap uint64, limit int) (id int32, ok bool) {
	if room := min(limit, math.MaxInt32) - 1 - int(prev); room <= 0 || gap >= uint64(room) {
		return 0, false
	}
	return prev + 1 + int32(gap), true
}
