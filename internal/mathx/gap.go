package mathx

import (
	"encoding/binary"
	"math"
)

// The gap code stores an ascending sequence of distinct ids, each as
// uvarint(id − previous − 1), the first as uvarint(id): ids that sit
// close together cost a byte each, and a repeated or out-of-order id
// cannot be written. Version 2 model files store GIS id sets and matrix
// rows in it. Nothing writes it any more — version 3 files Rice-code the
// same gaps (rice.go) — and NextGap reads the version 2 files.

// NextGap decodes the id after prev (-1 before the first) from the gap
// code at the start of b and returns it with the bytes its code took:
// n is 0 when the code runs past b, and -1 when the id would be limit or
// more.
func NextGap(b []byte, prev int32, limit int) (id int32, n int) {
	var gap uint64
	if len(b) > 0 && b[0] < 0x80 {
		gap, n = uint64(b[0]), 1 // the common one-byte gap, without the call
	} else if gap, n = binary.Uvarint(b); n < 0 {
		return 0, -1 // a code past 64 bits passes any limit
	} else if n == 0 {
		return 0, 0
	}
	id, ok := GapID(prev, gap, limit)
	if !ok {
		return 0, -1
	}
	return id, n
}

// GapID is the id a gap places after prev (-1 before the first):
// prev + 1 + gap. ok is false when that id would be limit or more, or
// past the int32 ids hold.
func GapID(prev int32, gap uint64, limit int) (id int32, ok bool) {
	if room := min(limit, math.MaxInt32) - 1 - int(prev); room <= 0 || gap >= uint64(room) {
		return 0, false
	}
	return prev + 1 + int32(gap), true
}
