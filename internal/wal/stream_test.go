package wal

import (
	"errors"
	"testing"
	"time"
)

// drainCursor pulls frames until the cursor reports caught-up, decoding
// every frame back into records.
func drainCursor(t *testing.T, c *Cursor) []Record {
	t.Helper()
	var recs []Record
	for {
		buf, n, err := c.Next(nil, 1<<20)
		if err != nil {
			t.Fatalf("cursor next: %v", err)
		}
		if n == 0 {
			return recs
		}
		got := decodeAll(t, buf)
		if len(got) != n {
			t.Fatalf("chunk decoded %d records, cursor reported %d", len(got), n)
		}
		recs = append(recs, got...)
	}
}

func decodeAll(t *testing.T, buf []byte) []Record {
	t.Helper()
	var recs []Record
	for len(buf) > 0 {
		rec, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode frame at tail %d: %v", len(buf), err)
		}
		recs = append(recs, rec)
		buf = buf[n:]
	}
	return recs
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCursorMatchesReplayEveryAfterSeq is the boundary matrix: over a
// pruned log with several sealed segments and a live tail, every single
// starting position either streams the exact record sequence Replay
// delivers or refuses with ErrRebootstrap — and which of the two happens
// is fully determined by the published floor (AvailableFrom). Segment
// seams, the pruned boundary, and the log end all fall out of the
// exhaustive sweep.
func TestCursorMatchesReplayEveryAfterSeq(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	defer w.Close()

	fillBatches(t, w, 12)
	if _, err := w.Prune(9); err != nil {
		t.Fatal(err)
	}
	// Keep growing after the prune so the cursor crosses sealed segments →
	// active segment.
	fillBatches(t, w, 8)

	af, last := w.AvailableFrom(), w.LastSeq()
	if af <= 1 {
		t.Fatal("prune did not move the log's start; matrix would be vacuous")
	}
	for after := uint64(0); after <= last; after++ {
		cur, err := w.NewCursor(after)
		if after+1 < af {
			if !errors.Is(err, ErrRebootstrap) {
				t.Fatalf("after=%d (af=%d): err = %v, want ErrRebootstrap", after, af, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("after=%d: NewCursor: %v", after, err)
		}
		got := drainCursor(t, cur)
		want := collect(t, w, after)
		if !sameRecords(got, want) {
			t.Fatalf("after=%d: cursor delivered %d records, replay %d (or contents differ)", after, len(got), len(want))
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// One past the end is not a valid position: a follower claiming a
	// future sequence has a divergent log and must re-bootstrap.
	if _, err := w.NewCursor(last + 1); !errors.Is(err, ErrRebootstrap) {
		t.Fatalf("cursor beyond end: err = %v, want ErrRebootstrap", err)
	}
}

// TestCursorFollowsMidStreamAppends exercises the tail-follow handshake:
// arm the append signal, confirm the cursor is caught up, append, and
// the armed channel plus a fresh Next deliver exactly the new records.
func TestCursorFollowsMidStreamAppends(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	defer w.Close()
	fillBatches(t, w, 3)

	cur, err := w.NewCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if got := drainCursor(t, cur); len(got) == 0 {
		t.Fatal("initial drain delivered nothing")
	}

	sig, lastAtArm := w.AppendSignal()
	if cur.NextSeq() != lastAtArm+1 {
		t.Fatalf("drained cursor at %d, log end %d", cur.NextSeq(), lastAtArm)
	}
	if buf, n, err := cur.Next(nil, 1<<20); err != nil || n != 0 || len(buf) != 0 {
		t.Fatalf("caught-up cursor returned n=%d err=%v", n, err)
	}

	seq, err := w.AppendRating(upd(99), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatchCommit(seq, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendRetrain(seq); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig:
	case <-time.After(2 * time.Second):
		t.Fatal("append signal never fired")
	}
	got := drainCursor(t, cur)
	if len(got) != 3 || got[0].Type != RecordRating || got[0].Seq != seq || got[1].Type != RecordBatchCommit ||
		got[2] != (Record{Type: RecordRetrain, Seq: seq + 2, Covered: seq, Shard: -1}) {
		t.Fatalf("tail records = %+v, want the appended rating, commit and retrain record", got)
	}
}

// TestCursorPruneRaceRebootstraps races a live stream against a prune
// that removes covered segments out from under an un-started position:
// the very next read refuses with ErrRebootstrap, never a silent gap.
func TestCursorPruneRaceRebootstraps(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	defer w.Close()
	covered := fillBatches(t, w, 10)

	cur, err := w.NewCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, err := w.Prune(covered); err != nil {
		t.Fatal(err)
	}
	if af := w.AvailableFrom(); af <= 1 {
		t.Fatalf("test setup: prune kept the log start (available from %d)", af)
	}
	if _, _, err := cur.Next(nil, 1<<20); !errors.Is(err, ErrRebootstrap) {
		t.Fatalf("post-prune next: err = %v, want ErrRebootstrap", err)
	}
}

// TestCursorStreamsAcrossRotation starts a cursor, then appends enough
// to rotate segments several times mid-stream; the cursor must deliver
// every record exactly once across the seams.
func TestCursorStreamsAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	defer w.Close()
	fillBatches(t, w, 2)

	cur, err := w.NewCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	got := drainCursor(t, cur)

	// Rotations happen while the cursor holds an open handle on the
	// then-active segment.
	fillBatches(t, w, 15)
	got = append(got, drainCursor(t, cur)...)

	want := collect(t, w, 0)
	if !sameRecords(got, want) {
		t.Fatalf("streamed %d records across rotations, replay has %d (or contents differ)", len(got), len(want))
	}
}
