package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfsf/internal/core"
)

// smallSeg returns options with tiny segments so a handful of appends
// rotates several times.
func smallSeg() Options { return Options{SegmentBytes: 256} }

// fillBatches appends n singleton batches (rating + commit) and a
// checkpoint covering all of them, returning the last rating sequence.
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
	if _, err := w.AppendCheckpoint(last); err != nil {
		t.Fatal(err)
	}
	return last
}

func baseFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), basePrefix) && strings.HasSuffix(e.Name(), baseSuffix) {
			names = append(names, e.Name())
		}
	}
	return names
}

func TestCompactFoldsSegmentsAndReplayIsIdentical(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	last := fillBatches(t, w, 20)
	ckptSeq := w.LastSeq()

	before := collect(t, w, 0)
	segsBefore := w.Stats().Segments
	if segsBefore < 3 {
		t.Fatalf("want several segments, got %d", segsBefore)
	}

	// Horizon 0: nothing below it, so compaction must preserve every
	// rating and commit — replay must be byte-identical record-for-record.
	st, err := w.Compact(last, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsFolded == 0 {
		t.Fatal("no segments folded")
	}
	if st.DroppedCells != 0 || st.DroppedCommits != 0 {
		t.Fatalf("horizon 0 dropped records: %+v", st)
	}
	after := collect(t, w, 0)
	if len(after) != len(before) {
		t.Fatalf("replay length changed: %d != %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("record %d changed: %+v != %+v", i, before[i], after[i])
		}
	}

	// The log still appends and reopens cleanly after compaction.
	if _, err := w.AppendRating(upd(99), 0); err != nil {
		t.Fatal(err)
	}
	wantLast := ckptSeq + 1
	if got := w.LastSeq(); got != wantLast {
		t.Fatalf("LastSeq after compact+append = %d, want %d", got, wantLast)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir, smallSeg())
	defer w2.Close()
	again := collect(t, w2, 0)
	if len(again) != len(before)+1 {
		t.Fatalf("reopened replay has %d records, want %d", len(again), len(before)+1)
	}
	if got := w2.Stats(); got.BaseToSeq == 0 || got.BaseRecords == 0 {
		t.Fatalf("reopened stats lost the base: %+v", got)
	}
}

func TestCompactDedupesBelowHorizon(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	// Write the same cell many times across many batches.
	var last uint64
	for i := 0; i < 12; i++ {
		seq, err := w.AppendRating(core.RatingUpdate{User: 1, Item: 2, Value: float64(i % 5)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
		if _, err := w.AppendBatchCommit(seq, 0); err != nil {
			t.Fatal(err)
		}
		if i == 5 { // a retrain record in the zone that loses its commits
			if _, err := w.AppendRetrain(seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := w.AppendCheckpoint(last); err != nil {
		t.Fatal(err)
	}
	horizon := w.LastSeq() // everything so far is below the retained point
	// Seal the tail with distinct-cell filler so every write of the hot
	// cell is in a foldable segment (the active segment never folds).
	for i := 0; i < 20; i++ {
		if _, err := w.AppendRating(upd(i+10), 0); err != nil {
			t.Fatal(err)
		}
		if i == 3 { // and one above the horizon, still inside what folds
			if _, err := w.AppendRetrain(last); err != nil {
				t.Fatal(err)
			}
		}
	}

	st, err := w.Compact(w.LastSeq(), horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedCells != 11 {
		t.Fatalf("dropped %d superseded cells, want 11", st.DroppedCells)
	}
	if st.DroppedCommits != 12 {
		t.Fatalf("dropped %d below-horizon commits, want 12", st.DroppedCommits)
	}
	recs := collect(t, w, 0)
	// Survivors below the horizon: the final write of the hot cell, the
	// latest checkpoint and the retrain record (compaction never folds
	// one: it is model state, not bookkeeping); the filler above the
	// horizon, its retrain record included, is untouched.
	var hotRatings, commits, ckpts int
	var keptValue float64
	var retrains []Record
	for i, r := range recs {
		if i > 0 && r.Seq <= recs[i-1].Seq {
			t.Fatalf("record %d: seq %d after %d", i, r.Seq, recs[i-1].Seq)
		}
		switch r.Type {
		case RecordRetrain:
			retrains = append(retrains, r)
		case RecordRating:
			if r.Update.User == 1 && r.Update.Item == 2 {
				hotRatings++
				keptValue = r.Update.Value
			}
		case RecordBatchCommit:
			commits++
		case RecordCheckpoint:
			ckpts++
		}
	}
	if hotRatings != 1 || ckpts != 1 {
		t.Fatalf("survivors: %d hot ratings, %d checkpoints (want 1, 1); commits=%d", hotRatings, ckpts, commits)
	}
	if keptValue != float64(11%5) {
		t.Fatalf("kept value %g, want the last writer %g", keptValue, float64(11%5))
	}
	if len(retrains) != 2 || retrains[0].Seq > horizon || retrains[0].Covered != retrains[0].Seq-2 ||
		retrains[1].Seq <= horizon || retrains[1].Covered != last {
		t.Fatalf("retrain records after compaction = %+v, want one either side of horizon %d, payloads intact", retrains, horizon)
	}

	// Replay from the horizon must see only the filler appended above it.
	for _, r := range collect(t, w, horizon) {
		if r.Type == RecordRating && r.Update.User == 1 && r.Update.Item == 2 {
			t.Fatal("hot-cell record above the horizon")
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactTimestampPresenceGuard(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	// Timed write superseded by an untimed one: both must survive a
	// below-horizon dedupe, or replay would lose timestamp presence.
	if _, err := w.AppendRating(core.RatingUpdate{User: 1, Item: 2, Value: 3, Time: 777}, 0); err != nil {
		t.Fatal(err)
	}
	seq, err := w.AppendRating(core.RatingUpdate{User: 1, Item: 2, Value: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatchCommit(seq, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendCheckpoint(seq); err != nil {
		t.Fatal(err)
	}
	horizon := w.LastSeq()
	// Force a rotation so the records are in a sealed, foldable segment
	// (filler cells are distinct from the hot cell).
	for i := 0; i < 8; i++ {
		if _, err := w.AppendRating(upd(i+10), 0); err != nil {
			t.Fatal(err)
		}
	}

	st, err := w.Compact(w.LastSeq(), horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedCells != 0 {
		t.Fatalf("dropped a timed write superseded by an untimed one: %+v", st)
	}
	var vals []float64
	for _, r := range collect(t, w, 0) {
		if r.Type == RecordRating && r.Update.User == 1 && r.Update.Item == 2 {
			vals = append(vals, r.Update.Value)
		}
	}
	if len(vals) != 2 || vals[0] != 3 || vals[1] != 4 {
		t.Fatalf("cell history = %v, want [3 4]", vals)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactWithinBatchDedupeAboveHorizon(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	// One batch writing the same cell twice, above the horizon: the
	// earlier write is dead (the matrix builder keeps the later
	// duplicate), the batch commit must survive.
	if _, err := w.AppendRating(core.RatingUpdate{User: 5, Item: 6, Value: 1}, 1); err != nil {
		t.Fatal(err)
	}
	seq, err := w.AppendRating(core.RatingUpdate{User: 5, Item: 6, Value: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatchCommit(seq, 1); err != nil {
		t.Fatal(err)
	}
	// A cross-batch duplicate above the horizon must NOT be deduped.
	seq2, err := w.AppendRating(core.RatingUpdate{User: 5, Item: 6, Value: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatchCommit(seq2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendCheckpoint(seq2); err != nil {
		t.Fatal(err)
	}
	ckptSeq := w.LastSeq()
	for i := 0; i < 8; i++ { // seal the segment with distinct cells
		if _, err := w.AppendRating(upd(i+10), 0); err != nil {
			t.Fatal(err)
		}
	}

	st, err := w.Compact(ckptSeq, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedCells != 1 {
		t.Fatalf("dropped %d cells, want exactly the within-batch duplicate", st.DroppedCells)
	}
	var vals []float64
	commits := 0
	for _, r := range collect(t, w, 0) {
		if r.Type == RecordRating && r.Update.User == 5 {
			vals = append(vals, r.Update.Value)
		}
		if r.Type == RecordBatchCommit {
			commits++
		}
	}
	if len(vals) != 2 || vals[0] != 2 || vals[1] != 3 {
		t.Fatalf("cell history = %v, want [2 3]", vals)
	}
	if commits != 2 {
		t.Fatalf("commit records = %d, want 2 (batch structure preserved)", commits)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCompactCrashBeforeGCRecovers(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	last := fillBatches(t, w, 15)
	before := collect(t, w, 0)
	if _, err := w.Compact(last, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash window: re-create a folded segment (as if GC
	// never ran) plus a stale older base, then reopen.
	if err := writeSegmentHeader(filepath.Join(dir, segName(1)), 1); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, baseName(1))
	if err := os.WriteFile(stale, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a temp-file leftover.
	if err := os.WriteFile(filepath.Join(dir, "base-00.cwal.tmp-123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, smallSeg())
	defer w2.Close()
	after := collect(t, w2, 0)
	if len(after) != len(before) {
		t.Fatalf("replay after crash-window cleanup: %d records, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("record %d differs after cleanup", i)
		}
	}
	if names := baseFiles(t, dir); len(names) != 1 {
		t.Fatalf("base files after cleanup: %v, want exactly one", names)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale base not removed")
	}
}

func TestCompactForceReFoldsBaseAlone(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, smallSeg())
	// Same cell across batches; first compact with horizon 0 keeps all.
	var last uint64
	for i := 0; i < 10; i++ {
		seq, err := w.AppendRating(core.RatingUpdate{User: 3, Item: 4, Value: float64(i)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
		if _, err := w.AppendBatchCommit(seq, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.AppendCheckpoint(last); err != nil {
		t.Fatal(err)
	}
	horizon := w.LastSeq()
	for i := 0; i < 8; i++ { // seal the tail so every hot-cell write folds
		if _, err := w.AppendRating(upd(i+10), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Compact(w.LastSeq(), 0, false); err != nil {
		t.Fatal(err)
	}
	recsBefore := len(collect(t, w, 0))

	// No new foldable segments: a plain pass is a no-op, a forced pass
	// re-folds the base under the advanced horizon.
	st, err := w.Compact(w.LastSeq(), horizon, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.RecordsIn != 0 || st.RecordsOut != 0 {
		t.Fatalf("unforced pass did work: %+v", st)
	}
	st, err = w.Compact(w.LastSeq(), horizon, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedCells != 9 {
		t.Fatalf("forced re-fold dropped %d cells, want 9", st.DroppedCells)
	}
	if got := len(collect(t, w, 0)); got >= recsBefore {
		t.Fatalf("record count did not shrink: %d -> %d", recsBefore, got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Survives reopen.
	w2 := mustOpen(t, dir, smallSeg())
	defer w2.Close()
	if got := w2.Stats().BaseRecords; got == 0 {
		t.Fatal("base lost after reopen")
	}
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
	// Compaction folds history into the base but keeps availability.
	if _, err := w.Compact(last, 0, false); err != nil {
		t.Fatal(err)
	}
	if got := w.AvailableFrom(); got != 1 {
		t.Fatalf("post-compact AvailableFrom = %d, want 1", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Pruning (no compaction) advances it.
	dir2 := t.TempDir()
	w2 := mustOpen(t, dir2, smallSeg())
	last2 := fillBatches(t, w2, 15)
	if _, err := w2.Prune(last2); err != nil {
		t.Fatal(err)
	}
	if got := w2.AvailableFrom(); got <= 1 {
		t.Fatalf("post-prune AvailableFrom = %d, want > 1", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}
