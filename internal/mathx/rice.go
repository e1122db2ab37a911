package mathx

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// A Rice code with parameter k writes an unsigned integer v as its
// quotient v >> k in unary — that many one bits, then a zero — followed
// by its k low bits. A column of small, similar values (gaps between
// ascending ids, indexes into a short table, deltas between close
// timestamps) costs a few bits a value where a byte code costs at least
// eight. Model files store every integer column in it, one k per column
// stored beside it (RiceCode).
//
// Bits are packed least significant first: bit i of the stream is bit
// i%8 of byte i/8, and the bits after the last code, up to the byte
// boundary, are zero. A quotient of riceEscape or more is written as
// riceEscape one bits followed by the raw 64 bits of v, so no value —
// and no corrupt stream — asks a reader for an unbounded unary run.

// MaxRiceK is the largest parameter a Rice code may carry: a 64-bit
// value has at most 63 low bits below a nonzero quotient bit.
const MaxRiceK = 63

// riceEscape is the quotient from which a value is written raw.
const riceEscape = 32

// RiceCode is one column of unsigned integers in a Rice code: its
// parameter and its bits. The number of values is not stored; the reader
// knows it from elsewhere.
type RiceCode struct {
	K    uint8
	Bits []byte
}

// MaxValues bounds how many values c can hold: every code takes at least
// K+1 bits.
func (c RiceCode) MaxValues() int {
	return len(c.Bits) * 8 / (int(c.K) + 1)
}

// EncodeRice writes vals as a Rice code under the parameter that makes
// it shortest (riceParam).
//
// Its loop is riceWriter.code's common case — a code of at most 32 bits,
// one put — on local variables, which the compiler keeps in registers; it
// hands any other code to the writer.
func EncodeRice(vals []uint64) RiceCode {
	k, size := riceParam(vals)
	w := newRiceWriter(size)
	buf, pos, acc, n := w.buf, 0, uint64(0), uint(0)
	mask := uint64(1)<<k - 1
	for _, v := range vals {
		if q := v >> k; q < riceEscape && q+1+uint64(k) <= 32 {
			acc |= (1<<q - 1 | (v&mask)<<(q+1)) << n
			n += uint(q) + 1 + k
			if n >= 32 {
				binary.LittleEndian.PutUint64(buf[pos:], acc)
				pos += int(n >> 3)
				acc >>= n &^ 7
				n &= 7
			}
			continue
		}
		w.pos, w.acc, w.n = pos, acc, n
		w.code(v, k)
		pos, acc, n = w.pos, w.acc, w.n
	}
	w.pos, w.acc, w.n = pos, acc, n
	return RiceCode{K: uint8(k), Bits: w.bytes()}
}

// riceParam returns the k in [0, MaxRiceK] under which vals' Rice code
// is shortest, the smaller k on a tie, and that code's length in bits.
//
// A value of bit length L costs 1+k bits plus its quotient when L ≤ k+5,
// and riceEscape+64 bits (an escape) otherwise. Its quotient v >> k
// reads only bits at or above k, and with L ≤ k+5 those lie among the
// top six bits of v. So one pass counting, per bit length, how often
// each of the top six bits is set gives every k's exact length without a
// pass per k.
func riceParam(vals []uint64) (k uint, size uint64) {
	// hist[h][L][t]: values of bit length L whose top six bits are t, in
	// two tables filled by alternate values, so that a run of one value
	// (small gaps are the common case) does not wait on its own
	// increments.
	var hist [2][65][64]uint32
	i := 0
	for ; i+1 < len(vals); i += 2 {
		v0, v1 := vals[i], vals[i+1]
		l0, l1 := bits.Len64(v0), bits.Len64(v1)
		hist[0][l0][v0>>max(l0-6, 0)]++
		hist[1][l1][v1>>max(l1-6, 0)]++
	}
	if i < len(vals) {
		l := bits.Len64(vals[i])
		hist[0][l][vals[i]>>max(l-6, 0)]++
	}
	var count [65]uint64  // count[L]: values of bit length L
	var set [65][6]uint64 // set[L][j]: of those, how many have bit max(L-6, 0)+j set
	for l := range hist[0] {
		for t := range hist[0][l] {
			n := uint64(hist[0][l][t]) + uint64(hist[1][l][t])
			count[l] += n
			for j := 0; t>>j != 0; j++ {
				if t>>j&1 != 0 {
					set[l][j] += n
				}
			}
		}
	}
	size = ^uint64(0)
	for kk := 0; kk <= MaxRiceK; kk++ {
		var c uint64
		for l, n := range count {
			if n == 0 {
				continue
			}
			if l >= kk+6 {
				c += n * (riceEscape + 64)
				continue
			}
			c += n * uint64(1+kk)
			for j, s := range set[l] {
				if b := max(l-6, 0) + j; b >= kk {
					c += s << (b - kk)
				}
			}
		}
		if c < size {
			k, size = uint(kk), c
		}
	}
	return k, size
}

// riceWriter packs bits least significant first into buf. Once acc holds
// 32 bits or more, a put stores all eight of its bytes and moves on by
// the whole bytes among them; buf has room for every bit to be written
// and a word more, so no put checks where buf ends.
type riceWriter struct {
	buf []byte
	pos int    // the byte acc starts at
	acc uint64 // the bits from byte pos on, n of them
	n   uint   // below 32 between puts
}

// newRiceWriter returns a writer with room for size bits.
func newRiceWriter(size uint64) riceWriter {
	return riceWriter{buf: make([]byte, size/8+8)}
}

// put appends the low n ≤ 32 bits of x; x holds no bit above them.
func (w *riceWriter) put(x uint64, n uint) {
	w.acc |= x << w.n
	w.n += n
	if w.n >= 32 {
		binary.LittleEndian.PutUint64(w.buf[w.pos:], w.acc)
		w.pos += int(w.n >> 3)
		w.acc >>= w.n &^ 7
		w.n &= 7
	}
}

// code appends v's Rice code at parameter k.
func (w *riceWriter) code(v uint64, k uint) {
	q := v >> k
	low := v & (1<<k - 1)
	if q >= riceEscape {
		w.put(1<<riceEscape-1, riceEscape)
		w.put(v&(1<<32-1), 32)
		w.put(v>>32, 32)
		return
	}
	w.put(1<<q-1, uint(q)+1)
	w.put(low&(1<<32-1), min(k, 32))
	w.put(low>>32, k-min(k, 32))
}

// bytes returns the stream, its last byte zero-padded.
func (w *riceWriter) bytes() []byte {
	binary.LittleEndian.PutUint64(w.buf[w.pos:], w.acc)
	end := w.pos + int(w.n+7)/8
	return w.buf[:end:end]
}

// Check refuses a K past MaxRiceK, which no writer picks.
func (c RiceCode) Check() error {
	if c.K > MaxRiceK {
		return fmt.Errorf("Rice parameter k = %d, past %d", c.K, MaxRiceK)
	}
	return nil
}

// RiceReader reads a RiceCode's values in order. It decodes them a block
// at a time into a buffer of its own (riceDecoder.decode), so that the
// decoding loop runs on registers and Next is a buffer read.
type RiceReader struct {
	d    riceDecoder
	left int // values not yet decoded
	buf  [256]uint64
	i, n int   // buf[i:n] are decoded and not yet read
	err  error // the fault at the value after buf[n-1]
}

// Reader returns a reader of c's first n values. It refuses a K past
// MaxRiceK.
func (c RiceCode) Reader(n int) (*RiceReader, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	return &RiceReader{d: riceDecoder{b: c.Bits, k: uint(c.K)}, left: n}, nil
}

// Next reads the next value. It refuses a code that runs past the bytes,
// a quotient too wide for 64 bits, an escape holding a value its quotient
// codes (the writer codes it in unary), and a read past the n values the
// reader was made for.
func (r *RiceReader) Next() (uint64, error) {
	if r.i < r.n {
		r.i++
		return r.buf[r.i-1], nil
	}
	return r.fill()
}

// fill decodes the next block and reads its first value, or returns the
// fault at that value.
func (r *RiceReader) fill() (uint64, error) {
	switch {
	case r.err != nil:
		return 0, r.err
	case r.left == 0:
		return 0, fmt.Errorf("a read past the values of the code")
	}
	got, err := r.d.decode(r.buf[:min(len(r.buf), r.left)])
	r.i, r.n, r.left, r.err = 0, got, r.left-got, err
	if got == 0 {
		return 0, err
	}
	r.i = 1
	return r.buf[0], nil
}

// End refuses, once every value is read, bytes left over after the last
// and nonzero pad bits after it.
func (r *RiceReader) End() error {
	if r.i < r.n || r.left > 0 {
		return fmt.Errorf("%d values left unread", r.n-r.i+r.left)
	}
	return r.d.end()
}

// riceDecoder decodes a RiceCode's values in order, never reading past
// its bytes: a code that would is refused. The bits from the next one on
// sit in acc, least significant first, refilled a word at a time.
type riceDecoder struct {
	b    []byte
	k    uint
	next int    // the byte that refills acc next
	acc  uint64 // the bits from the next one to read, nacc of them valid
	nacc uint
}

// decode reads the next len(dst) values into dst, or those before a
// fault, and returns how many it read and the fault one found, if any.
// Its loops are one's common case — the whole code within the bits
// loaded — on local variables, which the compiler keeps in registers:
// after each refill the inner loop decodes codes until the next one does
// not fit, so the load sits outside the chain from one code to the next.
// It hands a code that does not fit a fresh refill either to one.
func (d *riceDecoder) decode(dst []uint64) (int, error) {
	b, k, mask := d.b, d.k, uint64(1)<<d.k-1
	next, acc, nacc := d.next, d.acc, d.nacc
	for i := 0; i < len(dst); {
		if next+8 <= len(b) {
			acc |= binary.LittleEndian.Uint64(b[next:]) << nacc
			next += int(63-nacc) >> 3
			nacc |= 56
		}
		start := i
		for ; i < len(dst); i++ {
			q := uint(bits.TrailingZeros64(^acc))
			n := q + 1 + k
			if q >= riceEscape || n > nacc {
				break
			}
			dst[i] = uint64(q)<<k | acc>>(q+1)&mask
			acc >>= n // a shift by 64 clears
			nacc -= n
		}
		if i > start || i == len(dst) {
			continue
		}
		d.next, d.acc, d.nacc = next, acc, nacc
		v, err := d.one()
		if err != nil {
			return i, err
		}
		dst[i] = v
		i++
		next, acc, nacc = d.next, d.acc, d.nacc
	}
	d.next, d.acc, d.nacc = next, acc, nacc
	return len(dst), nil
}

// refill tops acc up to at least 56 valid bits, or to every bit left.
// While eight bytes remain it loads them whole and takes the bytes that
// fit, so acc may hold bits past nacc: they are the stream's next bits,
// and the next refill ORs them in again.
func (d *riceDecoder) refill() {
	if d.next+8 <= len(d.b) {
		d.acc |= binary.LittleEndian.Uint64(d.b[d.next:]) << d.nacc
		d.next += int(63-d.nacc) >> 3
		d.nacc |= 56
		return
	}
	for d.nacc <= 56 && d.next < len(d.b) {
		d.acc |= uint64(d.b[d.next]) << d.nacc
		d.next++
		d.nacc += 8
	}
}

// bit is the position of the next bit to read.
func (d *riceDecoder) bit() int { return 8*d.next - int(d.nacc) }

// take reads the next n ≤ 32 bits, or reports that the stream ends first.
func (d *riceDecoder) take(n uint) (uint64, bool) {
	if d.nacc < n {
		d.refill()
		if d.nacc < n {
			return 0, false
		}
	}
	v := d.acc & (1<<n - 1)
	d.acc >>= n
	d.nacc -= n
	return v, true
}

// one reads the next value. It refuses a code that runs past the bytes,
// a quotient too wide for 64 bits, and an escape holding a value whose
// quotient is below riceEscape (which the writer codes in unary).
func (d *riceDecoder) one() (uint64, error) {
	at := d.bit()
	if d.nacc < 56 {
		d.refill()
	}
	q := uint(bits.TrailingZeros64(^d.acc))
	if q >= riceEscape {
		return d.escape(at)
	}
	if q >= d.nacc { // refill left every bit there is in acc
		return 0, d.pastEnd(at)
	}
	d.acc >>= q + 1
	d.nacc -= q + 1
	if q<<d.k>>d.k != q {
		return 0, fmt.Errorf("the code at bit %d has a quotient of %d past 64 bits at k = %d", at, q, d.k)
	}
	if d.k <= d.nacc { // the low bits are in acc already: the common case
		low := d.acc & (1<<d.k - 1)
		d.acc >>= d.k
		d.nacc -= d.k
		return uint64(q)<<d.k | low, nil
	}
	lo, ok1 := d.take(min(d.k, 32))
	hi, ok2 := d.take(d.k - min(d.k, 32))
	if !ok1 || !ok2 {
		return 0, d.pastEnd(at)
	}
	return uint64(q)<<d.k | hi<<32 | lo, nil
}

// escape reads an escaped value: riceEscape one bits, then 64 raw bits.
func (d *riceDecoder) escape(at int) (uint64, error) {
	_, ok := d.take(riceEscape)
	lo, ok1 := d.take(32)
	hi, ok2 := d.take(32)
	if !ok || !ok1 || !ok2 {
		return 0, d.pastEnd(at)
	}
	v := hi<<32 | lo
	if v>>d.k < riceEscape {
		return 0, fmt.Errorf("the escape at bit %d holds %d, a value its quotient codes", at, v)
	}
	return v, nil
}

func (d *riceDecoder) pastEnd(at int) error {
	return fmt.Errorf("the code at bit %d runs past the %d bytes", at, len(d.b))
}

// end refuses bytes left over after the last value read and nonzero pad
// bits after it.
func (d *riceDecoder) end() error {
	pos := d.bit()
	if used := (pos + 7) / 8; used < len(d.b) {
		return fmt.Errorf("%d bytes left over after the last code", len(d.b)-used)
	}
	if sh := pos & 7; sh != 0 && d.b[len(d.b)-1]>>sh != 0 {
		return fmt.Errorf("nonzero pad bits after the last code")
	}
	return nil
}

// DeltaCode is v's difference from prev, zigzagged so that a small step
// either way is a small value: 0, -1, 1, -2, … code as 0, 1, 2, 3, ….
// The difference wraps in uint64 arithmetic, so every pair round-trips
// through DeltaDecode.
func DeltaCode(prev, v int64) uint64 {
	d := uint64(v) - uint64(prev)
	return d<<1 ^ uint64(int64(d)>>63)
}

// DeltaDecode is the v whose DeltaCode after prev is z.
func DeltaDecode(prev int64, z uint64) int64 {
	return int64(uint64(prev) + (z>>1 ^ -(z & 1)))
}
