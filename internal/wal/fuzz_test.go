package wal

import (
	"bytes"
	"testing"

	"cfsf/internal/core"
)

// FuzzWALDecode feeds the record decoder arbitrary (and corrupted)
// bytes: it must never panic, and anything it accepts must survive an
// encode/decode round trip unchanged — which means the CRC, length, and
// every payload field were validated, never fabricated. Current-format
// frames must additionally re-encode byte-for-byte; legacy (pre-shard)
// frames re-encode to the wider current layout, so for them only the
// decoded Record is compared.
func FuzzWALDecode(f *testing.F) {
	seed := func(rec Record) []byte { return appendRecord(nil, rec) }
	f.Add(seed(Record{Type: RecordRating, Seq: 1, Update: core.RatingUpdate{User: 3, Item: 7, Value: 4.5, Time: 99}, Shard: 4}))
	f.Add(seed(Record{Type: RecordBatchCommit, Seq: 2, Covered: 1, Shard: -1}))
	f.Add(seed(Record{Type: RecordCheckpoint, Seq: 3, Covered: 2}))
	f.Add(legacyFrame(Record{Type: RecordRating, Seq: 4, Update: core.RatingUpdate{User: 1, Item: 2, Value: 3.5, Time: 6}}))
	f.Add(legacyFrame(Record{Type: RecordBatchCommit, Seq: 5, Covered: 4}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A valid rating with one flipped payload byte (CRC must catch it).
	r := seed(Record{Type: RecordRating, Seq: 9, Update: core.RatingUpdate{User: 1, Item: 2, Value: 3, Time: 4}})
	r[len(r)-1] ^= 0x01
	f.Add(r)
	f.Add(seed(Record{Type: RecordRetrain, Seq: 10, Covered: 8}))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := decodeRecord(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if n <= frameHeaderSize || n > len(data) {
			t.Fatalf("accepted record consumed %d of %d bytes", n, len(data))
		}
		round := appendRecord(nil, rec)
		rec2, n2, err := decodeRecord(round)
		if err != nil || n2 != len(round) || rec2 != rec {
			t.Fatalf("re-encoded record does not round-trip: %+v -> %x -> %+v (%v)", rec, round, rec2, err)
		}
		if len(round) == n && !bytes.Equal(round, data[:n]) {
			t.Fatalf("same-size record does not re-encode to its own bytes:\n in  %x\n out %x", data[:n], round)
		}
	})
}
