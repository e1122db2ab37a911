package lifecycle

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// prefixGroups mirrors applyPending's batching on a plain update list:
// repeatedly cut the longest contiguous prefix in which no shard
// contributes more than batchMax ratings. Each group is exactly one
// Apply (and one commit record) of the manager.
func prefixGroups(base *core.Model, ups []core.RatingUpdate, batchMax int) [][]core.RatingUpdate {
	router := core.NewSharded(base)
	shards := make([]int, len(ups))
	for i, u := range ups {
		shards[i] = router.ShardOf(u.User)
	}
	var groups [][]core.RatingUpdate
	for len(ups) > 0 {
		counts := map[int]int{}
		cut := 0
		for i := range ups {
			if counts[shards[i]] >= batchMax {
				break
			}
			counts[shards[i]]++
			cut++
		}
		groups = append(groups, ups[:cut])
		ups, shards = ups[cut:], shards[cut:]
	}
	return groups
}

// TestDrainPrefixParityAndRecovery is the drain-rule acceptance test: a
// batch spanning several shards is folded in grouped multi-shard
// prefixes, and the result — live, and again after a kill-and-reboot
// replay — must be bit-for-bit the model that serial WithUpdates calls
// over the same prefix groups produce. The WAL keeps its append order
// and the commit records regroup replay into exactly the live batches.
func TestDrainPrefixParityAndRecovery(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()

	const batchMax = 3 // small cap so 12 updates split into several groups
	a, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncAlways,
		BatchMaxSize: batchMax,
		BatchMaxWait: 200 * time.Millisecond, // whole batch pending before the drain
	})
	if err != nil {
		t.Fatal(err)
	}

	ups := make([]core.RatingUpdate, 12)
	for i := range ups {
		ups[i] = testUpdate(i)
	}
	seqs, _, err := a.SubmitBatch(ups)
	if err != nil {
		t.Fatal(err)
	}
	last := seqs[len(seqs)-1]
	waitUntil(t, "batch applied", func() bool { return a.AppliedSeq() >= last })

	groups := prefixGroups(base, ups, batchMax)
	if len(groups) < 2 {
		t.Fatalf("updates formed %d prefix group(s); shrink batchMax to force several", len(groups))
	}
	comparator := base
	for _, g := range groups {
		if comparator, err = comparator.WithUpdates(g); err != nil {
			t.Fatal(err)
		}
	}
	want := predictions(comparator)
	samePredictions(t, "live vs serial prefix groups", want, predictions(a.Model()))
	if batches := a.reg.Counter("lifecycle_batches_total").Value(); batches != int64(len(groups)) {
		t.Errorf("manager used %d batches, expected %d prefix groups", batches, len(groups))
	}
	// A grouped apply spans shards: more than one shard must have seen it.
	touched := 0
	for _, st := range a.Sharded().ShardStats() {
		if st.Applies > 0 {
			touched++
		}
	}
	if touched < 2 {
		t.Errorf("only %d shard(s) saw applies; grouped batches should span shards", touched)
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
	samePredictions(t, "recovered vs serial prefix groups", want, predictions(b.Model()))
}

// TestSnapshotUnderLoadNotSkipped: every published model is a contiguous
// prefix of the log, so a snapshot taken while ratings still queue is a
// full recovery point, never deferred. The run loop is parked mid-drain —
// inside the Logf call an unappliable update triggers — with one batch
// applied and one rating still queued; the snapshot taken there must be
// written, and a kill-and-reboot from it must replay the rest of the
// queue to the same model.
func TestSnapshotUnderLoadNotSkipped(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	m, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncNever,
		BatchMaxSize: 1, // one user's ratings drain one batch at a time
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "retrying per update") {
				once.Do(func() {
					close(parked)
					<-release
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := core.RatingUpdate{User: 3, Item: 2, Value: math.NaN()} // Apply refuses it
	seqs, _, err := m.SubmitBatch([]core.RatingUpdate{
		{User: 3, Item: 1, Value: 4}, bad, {User: 3, Item: 5, Value: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-parked
	if got := m.Pending(); got != 1 {
		t.Fatalf("%d ratings queued with the loop parked, want 1", got)
	}
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped || info.CoveredSeq != seqs[0] {
		t.Fatalf("snapshot under load = %+v, want one written at seq %d", info, seqs[0])
	}
	close(release)
	waitUntil(t, "queue drained", func() bool { return m.AppliedSeq() >= seqs[2] })
	want := predictions(m.Model())
	m.Abort()

	b, err := Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if bs := b.BootStats(); bs.SnapshotSeq != seqs[0] || bs.ReplayedRecords != 2 {
		t.Fatalf("boot = %+v, want the under-load snapshot at seq %d plus 2 replayed records", bs, seqs[0])
	}
	samePredictions(t, "recovered from the under-load snapshot", want, predictions(b.Model()))
}
