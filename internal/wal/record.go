// Package wal is an append-only, segmented write-ahead log for the
// serving layer's incoming ratings. Every record is length-prefixed and
// CRC32-guarded, segments rotate by size, and Open truncates a torn tail
// (a record cut short by a crash mid-append) so recovery is clean. The
// log stores three record kinds and decodes a fourth:
//
//   - RecordRating: one core.RatingUpdate, appended by /rate before the
//     update is queued for application (write-ahead discipline);
//   - RecordBatchCommit: written after a micro-batch of ratings has been
//     folded into the serving model, recording the last rating sequence
//     the batch covered — replay regroups ratings into exactly the
//     batches the live process applied, which is what makes recovery
//     bit-for-bit identical to the uninterrupted run;
//   - RecordRetrain: written before a retrain starts, recording the
//     applied watermark it is taken at — replay (boot and followers
//     alike) re-runs the offline phase on the matrix at that watermark;
//   - RecordCheckpoint: the snapshot watermark builds up to 5504ac4
//     journaled after each snapshot. Nothing read it, so it is no longer
//     written; logs that hold it still open and replay.
//
// The binary layout of one record frame is
//
//	uint32  body length (big endian)
//	uint32  CRC32-IEEE of body (big endian)
//	body:   1 byte record type | uint64 sequence | payload
//
// and every segment file starts with an 8-byte magic plus the sequence
// number the segment begins at (which also names the file).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"cfsf/internal/core"
)

// Type discriminates the record kinds stored in the log.
type Type uint8

const (
	// RecordRating carries one rating update.
	RecordRating Type = 1
	// RecordBatchCommit marks that every rating with sequence <= Covered
	// has been applied to the serving model, and that the ratings since
	// the previous commit formed one application batch.
	RecordBatchCommit Type = 2
	// RecordCheckpoint marked that a snapshot covering every rating with
	// sequence <= Covered was durable on disk. Only old logs hold it.
	RecordCheckpoint Type = 3
	// RecordRetrain marks that the model folding exactly the ratings with
	// sequence <= Covered was replaced by a full offline retrain on its
	// own matrix and configuration.
	RecordRetrain Type = 4
)

// Record is one decoded log entry.
type Record struct {
	Type Type
	// Seq is the record's own position in the log (1-based, assigned at
	// append, strictly increasing across all record types).
	Seq uint64
	// Update is the rating payload; valid when Type == RecordRating.
	Update core.RatingUpdate
	// Covered is the last rating sequence a commit or checkpoint spans, or
	// the applied watermark a retrain is taken at; unused by RecordRating.
	Covered uint64
	// Shard is a routing field the frame keeps for old logs: builds up to
	// 5504ac4 journaled the shard of Update.User with each rating, and
	// builds before 390be92 the shard a commit's batch was applied on
	// with each commit. -1 means "unsharded": what the lifecycle journals
	// now, and what records written before sharding existed (32-byte
	// rating / 8-byte commit payloads) decode with.
	Shard int
}

const (
	frameHeaderSize = 8 // length + crc
	bodyHeaderSize  = 9 // type + seq
	// Payload sizes. Ratings and batch commits grew an int64 shard id when
	// the model was sharded; decode discriminates versions by length, and
	// the pre-shard sizes remain decodable so old logs replay unchanged.
	ratingPayloadV1  = 32      // user, item, value, time
	ratingPayload    = 40      // + shard
	coveredPayloadV1 = 8       // covered
	commitPayload    = 16      // covered + shard
	checkpointPay    = 8       // covered (checkpoints and retrains are shard-agnostic)
	maxBody          = 1 << 16 // far above any legal body; caps corrupt lengths
	ratingBodySize   = bodyHeaderSize + ratingPayload
	maxEncodedRecord = frameHeaderSize + ratingBodySize
)

var (
	// errShort reports that the buffer ends before the record does: at a
	// clean end-of-log this is simply "no more records", inside a file it
	// is a torn tail.
	errShort = errors.New("wal: truncated record")
	// errCorrupt reports a structurally broken record (bad CRC, bad
	// type, bad length). A torn tail usually surfaces as errShort, but a
	// crash that tore inside the frame header can also surface here.
	errCorrupt = errors.New("wal: corrupt record")
)

// appendRecord encodes rec onto buf and returns the extended slice.
func appendRecord(buf []byte, rec Record) []byte {
	var payload []byte
	switch rec.Type {
	case RecordRating:
		var p [ratingPayload]byte
		binary.BigEndian.PutUint64(p[0:], uint64(int64(rec.Update.User)))
		binary.BigEndian.PutUint64(p[8:], uint64(int64(rec.Update.Item)))
		binary.BigEndian.PutUint64(p[16:], math.Float64bits(rec.Update.Value))
		binary.BigEndian.PutUint64(p[24:], uint64(rec.Update.Time))
		binary.BigEndian.PutUint64(p[32:], uint64(int64(rec.Shard)))
		payload = p[:]
	case RecordBatchCommit:
		var p [commitPayload]byte
		binary.BigEndian.PutUint64(p[0:], rec.Covered)
		binary.BigEndian.PutUint64(p[8:], uint64(int64(rec.Shard)))
		payload = p[:]
	case RecordCheckpoint, RecordRetrain:
		var p [checkpointPay]byte
		binary.BigEndian.PutUint64(p[0:], rec.Covered)
		payload = p[:]
	default:
		panic(fmt.Sprintf("wal: unknown record type %d", rec.Type))
	}

	body := make([]byte, 0, bodyHeaderSize+len(payload))
	body = append(body, byte(rec.Type))
	body = binary.BigEndian.AppendUint64(body, rec.Seq)
	body = append(body, payload...)

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

// decodeRecord decodes the first record in buf, returning it and the
// number of bytes consumed. errShort means buf ends before the record
// does; errCorrupt means the bytes cannot be a record at all.
func decodeRecord(buf []byte) (Record, int, error) {
	if len(buf) < frameHeaderSize {
		return Record{}, 0, errShort
	}
	bodyLen := int(binary.BigEndian.Uint32(buf[0:4]))
	if bodyLen < bodyHeaderSize || bodyLen > maxBody {
		return Record{}, 0, fmt.Errorf("%w: body length %d", errCorrupt, bodyLen)
	}
	if len(buf) < frameHeaderSize+bodyLen {
		return Record{}, 0, errShort
	}
	body := buf[frameHeaderSize : frameHeaderSize+bodyLen]
	if crc := crc32.ChecksumIEEE(body); crc != binary.BigEndian.Uint32(buf[4:8]) {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch", errCorrupt)
	}

	rec := Record{Type: Type(body[0]), Seq: binary.BigEndian.Uint64(body[1:9]), Shard: -1}
	payload := body[bodyHeaderSize:]
	switch rec.Type {
	case RecordRating:
		if len(payload) != ratingPayload && len(payload) != ratingPayloadV1 {
			return Record{}, 0, fmt.Errorf("%w: rating payload %d bytes", errCorrupt, len(payload))
		}
		rec.Update = core.RatingUpdate{
			User:  int(int64(binary.BigEndian.Uint64(payload[0:]))),
			Item:  int(int64(binary.BigEndian.Uint64(payload[8:]))),
			Value: math.Float64frombits(binary.BigEndian.Uint64(payload[16:])),
			Time:  int64(binary.BigEndian.Uint64(payload[24:])),
		}
		if len(payload) == ratingPayload {
			rec.Shard = int(int64(binary.BigEndian.Uint64(payload[32:])))
		}
	case RecordBatchCommit:
		if len(payload) != commitPayload && len(payload) != coveredPayloadV1 {
			return Record{}, 0, fmt.Errorf("%w: covered payload %d bytes", errCorrupt, len(payload))
		}
		rec.Covered = binary.BigEndian.Uint64(payload[0:])
		if len(payload) == commitPayload {
			rec.Shard = int(int64(binary.BigEndian.Uint64(payload[8:])))
		}
	case RecordCheckpoint, RecordRetrain:
		if len(payload) != checkpointPay {
			return Record{}, 0, fmt.Errorf("%w: covered payload %d bytes", errCorrupt, len(payload))
		}
		rec.Covered = binary.BigEndian.Uint64(payload[0:])
	default:
		return Record{}, 0, fmt.Errorf("%w: unknown type %d", errCorrupt, body[0])
	}
	return rec, frameHeaderSize + bodyLen, nil
}
