package mathx

import "encoding/binary"

// The gap code stores an ascending sequence of distinct ids, each as
// uvarint(id − previous − 1), the first as uvarint(id): ids that sit
// close together cost a byte each, and a repeated or out-of-order id
// cannot be written. Model files store GIS id sets and matrix rows in it.

// AppendGap appends the gap code of id, the next id of an ascending
// sequence after prev (-1 before the first).
func AppendGap(dst []byte, prev, id int32) []byte {
	return binary.AppendUvarint(dst, uint64(id-prev-1))
}

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
	if room := limit - 1 - int(prev); room <= 0 || gap >= uint64(room) {
		return 0, -1
	}
	return prev + 1 + int32(gap), n
}
