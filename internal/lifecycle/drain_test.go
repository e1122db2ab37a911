package lifecycle

import (
	"math"
	"strings"
	"sync"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// TestDrainPrefixParityAndRecovery is the drain-rule acceptance test:
// ratings submitted while the loop is idle fold as one batch each — the
// whole queue, whatever clusters it spans — and the result, live and
// again after a kill-and-reboot replay, must be bit-for-bit the model
// serial WithUpdates calls over the same groups produce. The WAL keeps its
// append order and the commit records regroup replay into exactly the
// live batches.
func TestDrainPrefixParityAndRecovery(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	a, err := Open(bootWith(base), Config{DataDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}

	ups := make([]core.RatingUpdate, 12)
	for i := range ups {
		ups[i] = testUpdate(i)
	}
	groups := [][]core.RatingUpdate{ups[:3], ups[3:8], ups[8:]}
	comparator := base
	for _, g := range groups {
		seqs, _, err := a.SubmitBatch(g)
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "group applied", func() bool { return a.AppliedSeq() >= seqs[len(seqs)-1] })
		if comparator, err = comparator.WithUpdates(g); err != nil {
			t.Fatal(err)
		}
	}
	spans := map[int]bool{}
	for _, u := range groups[1] {
		spans[base.Clusters().Assign[u.User]] = true
	}
	if len(spans) < 2 {
		t.Fatal("a group confined to one cluster; the batches do not span shards")
	}
	want := predictions(comparator)
	samePredictions(t, "live vs serial groups", want, predictions(a.Model()))
	// The loop books a batch after it publishes it.
	waitUntil(t, "batches booked", func() bool { return a.reg.Counter("lifecycle_batches_total").Value() >= int64(len(groups)) })
	if batches := a.reg.Counter("lifecycle_batches_total").Value(); batches != int64(len(groups)) {
		t.Errorf("manager used %d batches, expected %d groups", batches, len(groups))
	}

	a.Abort() // SIGKILL stand-in

	b, err := Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bs := b.BootStats()
	if bs.ReplayedRecords != len(ups) || bs.ReplayedBatches != len(groups) {
		t.Fatalf("replayed %d records in %d batches, want %d in %d",
			bs.ReplayedRecords, bs.ReplayedBatches, len(ups), len(groups))
	}
	samePredictions(t, "recovered vs serial groups", want, predictions(b.Model()))
}

// parkOnFallback returns a Logf that parks the logging goroutine the
// first time an unappliable update sends a batch down the per-update
// fallback — the run loop, mid-commit — until release is closed.
func parkOnFallback() (logf func(string, ...any), parked, release chan struct{}) {
	parked, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	return func(format string, _ ...any) {
		if strings.Contains(format, "retrying per update") {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	}, parked, release
}

// TestSnapshotUnderLoadNotSkipped: every published model is a contiguous
// prefix of the log, so a snapshot taken while ratings still queue is a
// full recovery point, never deferred. The run loop is parked mid-drain —
// inside the Logf call an unappliable update triggers — with one batch
// applied and one rating queued behind the parked one; the snapshot taken
// there must be written, and a kill-and-reboot from it must replay the
// rest to the same model.
func TestSnapshotUnderLoadNotSkipped(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	logf, parked, release := parkOnFallback()
	m, err := Open(bootWith(base), Config{DataDir: dir, Fsync: wal.SyncNever, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := m.Submit(core.RatingUpdate{User: 3, Item: 1, Value: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first rating applied", func() bool { return m.AppliedSeq() >= first })
	if _, _, err := m.Submit(core.RatingUpdate{User: 3, Item: 2, Value: math.NaN()}); err != nil { // Apply refuses it
		t.Fatal(err)
	}
	<-parked
	last, _, err := m.Submit(core.RatingUpdate{User: 3, Item: 5, Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Pending(); got != 1 {
		t.Fatalf("%d ratings queued with the loop parked, want 1", got)
	}
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped || info.CoveredSeq != first {
		t.Fatalf("snapshot under load = %+v, want one written at seq %d", info, first)
	}
	close(release)
	waitUntil(t, "queue drained", func() bool { return m.AppliedSeq() >= last })
	want := predictions(m.Model())
	m.Abort()

	b, err := Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if bs := b.BootStats(); bs.SnapshotSeq != first || bs.ReplayedRecords != 2 {
		t.Fatalf("boot = %+v, want the under-load snapshot at seq %d plus 2 replayed records", bs, first)
	}
	samePredictions(t, "recovered from the under-load snapshot", want, predictions(b.Model()))
}
