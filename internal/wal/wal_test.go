package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfsf/internal/core"
)

func mustOpen(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func upd(i int) core.RatingUpdate {
	return core.RatingUpdate{User: i, Item: i * 2, Value: float64(i%5) + 0.5, Time: int64(1000 + i)}
}

// smallSeg returns options with tiny segments so a handful of appends
// rotates several times.
func smallSeg() Options { return Options{SegmentBytes: 256} }

// fillBatches appends n singleton batches (rating + commit), returning
// the last rating sequence.
func fillBatches(t *testing.T, w *WAL, n int) uint64 {
	t.Helper()
	var last uint64
	for i := 1; i <= n; i++ {
		seq, err := w.AppendRating(upd(i), i%3)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
		if _, err := w.AppendBatchCommit(seq, i%3); err != nil {
			t.Fatal(err)
		}
	}
	return last
}

func collect(t *testing.T, w *WAL, afterSeq uint64) []Record {
	t.Helper()
	var recs []Record
	if err := w.Replay(afterSeq, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		seq, err := w.AppendRating(upd(i), i)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if _, err := w.AppendBatchCommit(3, 7); err != nil {
		t.Fatal(err)
	}
	if seq, err := w.AppendRetrain(3); err != nil || seq != 5 {
		t.Fatalf("AppendRetrain = seq %d, %v, want seq 5", seq, err)
	}

	recs := collect(t, w, 0)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i := 0; i < 3; i++ {
		r := recs[i]
		if r.Type != RecordRating || r.Seq != uint64(i+1) || r.Update != upd(i+1) || r.Shard != i+1 {
			t.Errorf("record %d = %+v, want rating %+v at seq %d shard %d", i, r, upd(i+1), i+1, i+1)
		}
	}
	if recs[3].Type != RecordBatchCommit || recs[3].Covered != 3 || recs[3].Shard != 7 {
		t.Errorf("commit record = %+v", recs[3])
	}
	if recs[4] != (Record{Type: RecordRetrain, Seq: 5, Covered: 3, Shard: -1}) {
		t.Errorf("retrain record = %+v", recs[4])
	}

	if got := collect(t, w, 3); len(got) != 2 {
		t.Errorf("replay after seq 3 yielded %d records, want 2", len(got))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	for i := 1; i <= 4; i++ {
		if _, err := w.AppendRating(upd(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	st := w2.Stats()
	if st.Records != 4 || st.LastSeq != 4 || st.TornBytes != 0 {
		t.Fatalf("reopen stats = %+v", st)
	}
	seq, err := w2.AppendRating(upd(5), -1)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("continued seq = %d, want 5", seq)
	}
	if recs := collect(t, w2, 0); len(recs) != 5 {
		t.Fatalf("replayed %d records after reopen, want 5", len(recs))
	}
	w2.Close()
}

// TestTornTailEveryOffset is the crash-recovery matrix: N records, then
// the file truncated at every byte offset inside the final record; Open
// must drop exactly the torn record and replay the other N−1, and the
// log must accept appends again afterwards.
func TestTornTailEveryOffset(t *testing.T) {
	const n = 5
	for _, last := range []struct {
		name   string
		append func(w *WAL) (uint64, error)
	}{
		{"rating", func(w *WAL) (uint64, error) { return w.AppendRating(upd(n), n) }},
		{"retrain", func(w *WAL) (uint64, error) { return w.AppendRetrain(n - 1) }},
	} {
		t.Run(last.name, func(t *testing.T) {
			master := t.TempDir()
			w := mustOpen(t, master, Options{})
			for i := 1; i < n; i++ {
				if _, err := w.AppendRating(upd(i), i); err != nil {
					t.Fatal(err)
				}
			}
			lastStart := int(w.size)
			if _, err := last.append(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(master, segName(1)))
			if err != nil {
				t.Fatal(err)
			}

			for cut := lastStart + 1; cut < len(data); cut++ {
				dir := t.TempDir()
				torn := make([]byte, cut)
				copy(torn, data[:cut])
				if err := os.WriteFile(filepath.Join(dir, segName(1)), torn, 0o644); err != nil {
					t.Fatal(err)
				}

				var logged []string
				w, err := Open(dir, Options{Logf: func(f string, a ...any) {
					logged = append(logged, f)
				}})
				if err != nil {
					t.Fatalf("cut at %d: open: %v", cut, err)
				}
				st := w.Stats()
				if st.Records != n-1 || st.LastSeq != n-1 {
					t.Fatalf("cut at %d: records=%d lastSeq=%d, want %d/%d", cut, st.Records, st.LastSeq, n-1, n-1)
				}
				if want := int64(cut - lastStart); st.TornBytes != want {
					t.Errorf("cut at %d: torn bytes = %d, want %d", cut, st.TornBytes, want)
				}
				if len(logged) == 0 {
					t.Errorf("cut at %d: torn tail not logged", cut)
				}
				recs := collect(t, w, 0)
				if len(recs) != n-1 {
					t.Fatalf("cut at %d: replayed %d, want %d", cut, len(recs), n-1)
				}
				for i, r := range recs {
					if r.Update != upd(i+1) {
						t.Fatalf("cut at %d: record %d = %+v", cut, i, r)
					}
				}
				// The log keeps working: the next append takes the seq of the
				// record that was torn away.
				seq, err := w.AppendRating(upd(99), -1)
				if err != nil {
					t.Fatal(err)
				}
				if seq != n {
					t.Errorf("cut at %d: append seq = %d, want %d", cut, seq, n)
				}
				w.Close()
			}
		})
	}
}

// TestRetrainRecordFrame: the fourth record kind round-trips through the
// exported frame codec, and its payload is exactly one sequence — a type
// 4 frame of any other length is corruption, not a newer layout.
func TestRetrainRecordFrame(t *testing.T) {
	want := Record{Type: RecordRetrain, Seq: 41, Covered: 37, Shard: -1}
	frame := AppendFrame(nil, want)
	got, n, err := DecodeFrame(frame)
	if err != nil || n != len(frame) || got != want {
		t.Fatalf("round trip = %+v (%d of %d bytes, %v), want %+v", got, n, len(frame), err, want)
	}

	// A commit's 16-byte payload under the retrain type, CRC intact.
	long := AppendFrame(nil, Record{Type: RecordBatchCommit, Seq: 41, Covered: 37, Shard: 2})
	body := long[frameHeaderSize:]
	body[0] = byte(RecordRetrain)
	binary.BigEndian.PutUint32(long[4:8], crc32.ChecksumIEEE(body))
	if _, _, err := DecodeFrame(long); !errors.Is(err, errCorrupt) {
		t.Fatalf("16-byte retrain payload: err = %v, want errCorrupt", err)
	}
}

// TestTornSegmentHeader covers a crash during segment creation itself:
// the file exists but its 16-byte header is incomplete.
func TestTornSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("CFSF"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := mustOpen(t, dir, Options{})
	st := w.Stats()
	if st.Records != 0 || st.TornBytes != 4 {
		t.Fatalf("stats after torn header = %+v", st)
	}
	if seq, err := w.AppendRating(upd(1), -1); err != nil || seq != 1 {
		t.Fatalf("append after header rewrite: seq=%d err=%v", seq, err)
	}
	w.Close()
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	// Each rating frame is ~49 bytes; a 100-byte segment cap forces a
	// rotation roughly every other record.
	w := mustOpen(t, dir, Options{SegmentBytes: 100})
	const n = 10
	for i := 1; i <= n; i++ {
		if _, err := w.AppendRating(upd(i), i); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Segments < 3 {
		t.Fatalf("segments = %d, want rotation to have produced several", st.Segments)
	}
	if recs := collect(t, w, 0); len(recs) != n {
		t.Fatalf("replayed %d, want %d", len(recs), n)
	}

	removed, err := w.Prune(uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	if removed != st.Segments-1 {
		t.Errorf("pruned %d segments, want %d (all but active)", removed, st.Segments-1)
	}
	if got := w.Stats().Segments; got != 1 {
		t.Errorf("segments after prune = %d, want 1", got)
	}
	// Pruning below the covered point keeps replay working for the tail.
	if _, err := w.AppendRating(upd(n+1), -1); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, w, 0)
	if len(recs) == 0 || recs[len(recs)-1].Seq != uint64(n+1) {
		t.Fatalf("replay after prune = %d records (last %+v)", len(recs), recs[len(recs)-1])
	}
	w.Close()

	// Reopen across the prune gap: segments now start past seq 1.
	w2 := mustOpen(t, dir, Options{SegmentBytes: 100})
	if w2.LastSeq() != uint64(n+1) {
		t.Errorf("reopened lastSeq = %d, want %d", w2.LastSeq(), n+1)
	}
	w2.Close()
}

func TestAvailableFrom(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	if got := w.AvailableFrom(); got != 1 {
		t.Fatalf("fresh log AvailableFrom = %d, want 1", got)
	}
	last := fillBatches(t, w, 15)
	if got := w.AvailableFrom(); got != 1 {
		t.Fatalf("unpruned AvailableFrom = %d, want 1", got)
	}
	// Pruning advances it, to a segment start no later than covered+1.
	if _, err := w.Prune(last); err != nil {
		t.Fatal(err)
	}
	pruned := w.AvailableFrom()
	if pruned <= 1 || pruned > last+1 {
		t.Fatalf("post-prune AvailableFrom = %d, want in (1, %d]", pruned, last+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir, smallSeg())
	defer w2.Close()
	if got := w2.AvailableFrom(); got != pruned {
		t.Fatalf("reopened AvailableFrom = %d, want %d", got, pruned)
	}
}

// TestOpenRefusesCompactedBase: a base-*.cwal left by a build that still
// compacted may hold acknowledged ratings no snapshot covers, so Open
// refuses the directory by the file's name alone and touches nothing.
func TestOpenRefusesCompactedBase(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	fillBatches(t, w, 3)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(dir, "base-0000000000000009.cwal")
	if err := os.WriteFile(base, []byte("not even a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, smallSeg())
	if err == nil {
		t.Fatal("Open accepted a directory holding a compacted base")
	}
	for _, want := range []string{base, "compaction was removed in this build", "stop the previous build cleanly", "move the file away"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	if _, serr := os.Stat(base); serr != nil {
		t.Errorf("refused Open removed the base: %v", serr)
	}
	// The documented way out: with the file gone the directory opens.
	if err := os.Remove(base); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir, smallSeg())
	defer w2.Close()
	if got := len(collect(t, w2, 0)); got != 6 {
		t.Fatalf("replayed %d records after the base was moved away, want 6", got)
	}
}

// TestCorruptionBeforeTailFailsOpen: a flipped byte in a sealed segment
// is unrecoverable corruption, not a torn tail, and must fail loudly.
func TestCorruptionBeforeTailFailsOpen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SegmentBytes: 100})
	for i := 1; i <= 6; i++ {
		if _, err := w.AppendRating(upd(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if w.Stats().Segments < 2 {
		t.Fatal("test needs at least two segments")
	}
	w.Close()

	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderSize+frameHeaderSize+3] ^= 0xFF // corrupt first record's body
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentBytes: 100}); err == nil {
		t.Fatal("open succeeded on a corrupt sealed segment")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %v does not mention corruption", err)
	}
}

func TestAppendRatingsBatch(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	ups := []core.RatingUpdate{upd(1), upd(2), upd(3), upd(4)}
	shards := []int{2, 0, 2, 5}
	seqs, err := w.AppendRatings(ups, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs = %v, want consecutive from 1", seqs)
		}
	}
	if _, err := w.AppendBatchCommit(4, -1); err != nil {
		t.Fatal(err)
	}
	recs := collect(t, w, 0)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i := 0; i < 4; i++ {
		r := recs[i]
		if r.Type != RecordRating || r.Update != ups[i] || r.Shard != shards[i] {
			t.Errorf("record %d = %+v, want %+v shard %d", i, r, ups[i], shards[i])
		}
	}

	if _, err := w.AppendRatings(ups, shards[:2]); err == nil {
		t.Error("length-mismatched batch accepted")
	}
	if seqs, err := w.AppendRatings(nil, nil); err != nil || seqs != nil {
		t.Errorf("empty batch = %v, %v", seqs, err)
	}
	// The batch is one frame group; a following single append continues
	// the sequence.
	if seq, err := w.AppendRating(upd(9), 1); err != nil || seq != 6 {
		t.Errorf("append after batch: seq=%d err=%v", seq, err)
	}
	w.Close()

	w2 := mustOpen(t, dir, Options{})
	if w2.LastSeq() != 6 {
		t.Errorf("reopened lastSeq = %d, want 6", w2.LastSeq())
	}
	w2.Close()
}

// legacyFrame encodes a record in the pre-shard layout: 32-byte rating
// payloads and 8-byte commit payloads, exactly what logs written before
// the sharding refactor contain.
func legacyFrame(rec Record) []byte {
	var payload []byte
	switch rec.Type {
	case RecordRating:
		var p [ratingPayloadV1]byte
		binary.BigEndian.PutUint64(p[0:], uint64(int64(rec.Update.User)))
		binary.BigEndian.PutUint64(p[8:], uint64(int64(rec.Update.Item)))
		binary.BigEndian.PutUint64(p[16:], math.Float64bits(rec.Update.Value))
		binary.BigEndian.PutUint64(p[24:], uint64(rec.Update.Time))
		payload = p[:]
	case RecordBatchCommit, RecordCheckpoint:
		var p [coveredPayloadV1]byte
		binary.BigEndian.PutUint64(p[0:], rec.Covered)
		payload = p[:]
	}
	body := append([]byte{byte(rec.Type)}, binary.BigEndian.AppendUint64(nil, rec.Seq)...)
	body = append(body, payload...)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// TestLegacyLogReplays: a log written before shard ids existed must open
// and replay cleanly, with every record reporting Shard = -1.
func TestLegacyLogReplays(t *testing.T) {
	dir := t.TempDir()
	var data []byte
	data = append(data, segMagic[:]...)
	data = binary.BigEndian.AppendUint64(data, 1)
	data = append(data, legacyFrame(Record{Type: RecordRating, Seq: 1, Update: upd(1)})...)
	data = append(data, legacyFrame(Record{Type: RecordRating, Seq: 2, Update: upd(2)})...)
	data = append(data, legacyFrame(Record{Type: RecordBatchCommit, Seq: 3, Covered: 2})...)
	data = append(data, legacyFrame(Record{Type: RecordCheckpoint, Seq: 4, Covered: 2})...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}

	w := mustOpen(t, dir, Options{})
	st := w.Stats()
	if st.Records != 4 || st.LastSeq != 4 || st.TornBytes != 0 {
		t.Fatalf("legacy open stats = %+v", st)
	}
	recs := collect(t, w, 0)
	if len(recs) != 4 {
		t.Fatalf("replayed %d legacy records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Shard != -1 {
			t.Errorf("legacy record %d decoded shard %d, want -1", i, r.Shard)
		}
	}
	if recs[0].Update != upd(1) || recs[1].Update != upd(2) || recs[2].Covered != 2 {
		t.Errorf("legacy payloads mangled: %+v", recs[:3])
	}
	// New-format appends continue the legacy log in place.
	if seq, err := w.AppendRating(upd(3), 4); err != nil || seq != 5 {
		t.Fatalf("append after legacy log: seq=%d err=%v", seq, err)
	}
	recs = collect(t, w, 4)
	if len(recs) != 1 || recs[0].Shard != 4 {
		t.Fatalf("mixed-format tail = %+v", recs)
	}
	w.Close()
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "Interval": SyncInterval, "NEVER": SyncNever} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}
