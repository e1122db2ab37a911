package lifecycle

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// TestShardedBatchParityAndRecovery: a batch of ratings spanning several
// shards, ingested through SubmitBatch and folded as the whole queue — a
// single Apply that rebuilds every touched shard — must produce, live and
// again after a kill-and-reboot replay, exactly the model one
// from-scratch WithUpdates over the batch produces.
func TestShardedBatchParityAndRecovery(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()

	a, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncAlways,
		BatchMaxWait: 200 * time.Millisecond, // whole batch pending before the drain
	})
	if err != nil {
		t.Fatal(err)
	}

	ups := make([]core.RatingUpdate, 12)
	for i := range ups {
		ups[i] = testUpdate(i)
	}
	seqs, pending, err := a.SubmitBatch(ups)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(ups) || pending != len(ups) {
		t.Fatalf("SubmitBatch returned %d seqs, %d pending; want %d each", len(seqs), pending, len(ups))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("seqs not consecutive: %v", seqs)
		}
	}
	last := seqs[len(seqs)-1]
	waitUntil(t, "batch applied", func() bool { return a.AppliedSeq() >= last })

	spans := map[int]bool{}
	for _, u := range ups {
		spans[base.Clusters().Assign[u.User]] = true
	}
	if len(spans) < 2 {
		t.Fatalf("test updates all in one shard; widen the spread")
	}
	comparator, err := base.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	want := predictions(comparator)
	samePredictions(t, "live vs from-scratch", want, predictions(a.Model()))
	// The drain loop books a batch after it publishes it (and journals the
	// commit), so AppliedSeq can be seen before the counter moves.
	waitUntil(t, "batch booked", func() bool { return a.reg.Counter("lifecycle_batches_total").Value() >= 1 })
	if batches := a.reg.Counter("lifecycle_batches_total").Value(); batches != 1 {
		t.Errorf("manager used %d batches, expected 1", batches)
	}

	a.Abort() // SIGKILL stand-in

	b, err := Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bs := b.BootStats()
	if bs.ReplayedRecords != len(ups) || bs.ReplayedBatches != 1 {
		t.Fatalf("replayed %d records in %d batches, want %d in 1", bs.ReplayedRecords, bs.ReplayedBatches, len(ups))
	}
	samePredictions(t, "recovered vs from-scratch", want, predictions(b.Model()))
}

// TestSubmitBatchAtomicity: one SubmitBatch is one WAL append group with
// consecutive sequences, an empty batch is a no-op, and a batch that
// would overflow the queue is rejected whole — nothing journaled, so the
// next submission's sequence proves the WAL never saw it.
func TestSubmitBatchAtomicity(t *testing.T) {
	base := newBaseModel(t)
	m, err := Open(bootWith(base), Config{
		DataDir:       t.TempDir(),
		Fsync:         wal.SyncNever,
		QueueCapacity: 4,
		BatchMaxWait:  500 * time.Millisecond, // keep the queue occupied
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if seqs, _, err := m.SubmitBatch(nil); err != nil || len(seqs) != 0 {
		t.Fatalf("empty batch = (%v, %v), want no-op", seqs, err)
	}

	seqs, pending, err := m.SubmitBatch([]core.RatingUpdate{testUpdate(0), testUpdate(1), testUpdate(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || pending != 3 {
		t.Fatalf("batch of 3 = (%v, %d)", seqs, pending)
	}

	// 3 pending + 2 > capacity 4: rejected atomically.
	if _, _, err := m.SubmitBatch([]core.RatingUpdate{testUpdate(3), testUpdate(4)}); err != ErrQueueFull {
		t.Fatalf("overflow batch = %v, want ErrQueueFull", err)
	}
	if got := m.reg.Counter("lifecycle_queue_full_total").Value(); got != 1 {
		t.Errorf("queue_full counter = %d, want 1", got)
	}

	// The rejected batch journaled nothing: the next rating continues
	// directly after the accepted batch.
	seq, _, err := m.Submit(testUpdate(5))
	if err != nil {
		t.Fatal(err)
	}
	if want := seqs[2] + 1; seq != want {
		t.Fatalf("post-rejection seq = %d, want %d (rejected batch leaked into the WAL)", seq, want)
	}
}

// TestBootSkipsBadSnapshot: a newest manifest that cannot be decoded
// (torn write, unknown wire version) must not take the boot down — the
// manager falls back to the next older verified snapshot and replays the
// WAL tail from there, bit-for-bit. With nothing to fall back to and no
// bootstrap, Open fails loudly instead of serving garbage.
func TestBootSkipsBadSnapshot(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()

	a, err := Open(bootWith(base), Config{DataDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		seq, _, err := a.Submit(testUpdate(i))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "update applied", func() bool { return a.AppliedSeq() >= seq })
	}
	info, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped {
		t.Fatalf("snapshot skipped: %+v", info)
	}
	goodSnap := filepath.Base(info.Path)
	if got := a.reg.Counter("lifecycle_snapshots_verified_total").Value(); got < 1 {
		t.Fatalf("snapshot self-check never ran (verified=%d)", got)
	}
	// Two more ratings land in the WAL only (no snapshot covers them).
	for i := 3; i < 5; i++ {
		seq, _, err := a.Submit(testUpdate(i))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "update applied", func() bool { return a.AppliedSeq() >= seq })
	}
	want := predictions(a.Model())
	a.Abort()

	// Plant a garbage manifest claiming to be the newest.
	bad := filepath.Join(snapshotDir(dir), manifestName(99))
	if err := os.WriteFile(bad, []byte("v99 model from the future"), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bs := b.BootStats()
	if filepath.Base(bs.SnapshotLoaded) != goodSnap {
		t.Fatalf("boot loaded %q, want fallback to %q", bs.SnapshotLoaded, goodSnap)
	}
	if bs.ReplayedRecords != 2 {
		t.Fatalf("replayed %d records from the good snapshot, want 2", bs.ReplayedRecords)
	}
	if got := b.reg.Counter("lifecycle_snapshot_load_failures_total").Value(); got != 1 {
		t.Errorf("load_failures counter = %d, want 1", got)
	}
	samePredictions(t, "fallback recovery", want, predictions(b.Model()))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Only a bad snapshot and no bootstrap: refuse to boot.
	dir2 := t.TempDir()
	if err := os.MkdirAll(snapshotDir(dir2), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapshotDir(dir2), manifestName(1)), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(nil, Config{DataDir: dir2}); err == nil || !strings.Contains(err.Error(), "no loadable snapshot") {
		t.Fatalf("boot from garbage-only dir = %v, want refusal", err)
	}
}
