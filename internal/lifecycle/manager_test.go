package lifecycle

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/obs"
	"cfsf/internal/synth"
	"cfsf/internal/wal"
)

// newBaseModel trains a compact model for lifecycle tests.
func newBaseModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Users = 40
	cfg.Items = 50
	cfg.MinPerUser = 8
	cfg.MeanPerUser = 12
	cfg.Archetypes = 4
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.M = 8
	mcfg.K = 4
	mcfg.Clusters = 4
	mod, err := core.Train(d.Matrix, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func bootWith(mod *core.Model) func() (*core.Model, error) {
	return func() (*core.Model, error) { return mod, nil }
}

func noBoot(t *testing.T) func() (*core.Model, error) {
	return func() (*core.Model, error) {
		t.Fatal("bootstrap called although a snapshot exists")
		return nil, nil
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// predictions samples the full user×item grid; exact float64 values.
func predictions(mod *core.Model) []float64 {
	m := mod.Matrix()
	out := make([]float64, 0, m.NumUsers()*m.NumItems())
	for u := 0; u < m.NumUsers(); u++ {
		for i := 0; i < m.NumItems(); i++ {
			out = append(out, mod.Predict(u, i))
		}
	}
	return out
}

func samePredictions(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: grid size %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: prediction %d differs: %v vs %v (not bit-for-bit)", label, i, want[i], got[i])
		}
	}
}

func testUpdate(i int) core.RatingUpdate {
	// Mix of revised ratings for existing cells and a fresh user/item.
	return core.RatingUpdate{User: i % 41, Item: i % 50, Value: float64(i%5) + 1}
}

// TestKillAndRebootBitForBit is the acceptance-criteria test: a manager
// fed k ratings and killed without any shutdown path recovers — from
// snapshot plus WAL-tail replay — to a model whose predictions equal the
// uninterrupted run exactly.
func TestKillAndRebootBitForBit(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()

	a, err := Open(bootWith(base), Config{DataDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if a.BootStats().SnapshotLoaded != "" {
		t.Fatal("fresh boot claims to have loaded a snapshot")
	}

	// Feed k ratings, waiting for each to apply so every micro-batch is
	// a deterministic singleton — the comparator below mirrors that.
	const k = 6
	uninterrupted := base
	for i := 0; i < k; i++ {
		u := testUpdate(i)
		seq, _, err := a.Submit(u)
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "update applied", func() bool { return a.AppliedSeq() >= seq })
		if uninterrupted, err = uninterrupted.WithUpdates([]core.RatingUpdate{u}); err != nil {
			t.Fatal(err)
		}
	}
	want := predictions(uninterrupted)
	samePredictions(t, "live manager vs uninterrupted", want, predictions(a.Model()))

	a.Abort() // SIGKILL stand-in: no drain, no final snapshot, no fsync

	b, err := Open(noBoot(t), Config{DataDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	bs := b.BootStats()
	if bs.SnapshotLoaded == "" {
		t.Fatal("recovery did not start from a snapshot")
	}
	if bs.ReplayedRecords != k || bs.ReplayedBatches != k {
		t.Fatalf("replayed %d records in %d batches, want %d singleton batches", bs.ReplayedRecords, bs.ReplayedBatches, k)
	}
	samePredictions(t, "recovered vs uninterrupted", want, predictions(b.Model()))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Third boot starts from the snapshot the recovery re-anchored (or
	// the close wrote) and replays nothing — and still matches.
	c, err := Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.BootStats().ReplayedRecords; got != 0 {
		t.Errorf("third boot replayed %d records, want 0", got)
	}
	samePredictions(t, "snapshot-only boot vs uninterrupted", want, predictions(c.Model()))
	c.Close()
}

// TestKillAndRebootServesSameRankings is the Recommend-cache variant of
// the kill-and-reboot acceptance test: a manager that served warm hits
// between micro-batches and went cold after each (the per-user cache
// lives for one model generation) is killed without any shutdown path,
// and the recovered process — whose replayed model starts cache-cold by
// construction — must serve exactly the same rankings, both on its first
// (exact) read and on the repeat (cached) read.
func TestKillAndRebootServesSameRankings(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()

	a, err := Open(bootWith(base), Config{DataDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	p := base.Matrix().NumUsers()
	users := []int{0, 7, 19, 33, p - 1}
	// Warm the cache, then keep reading between applies: every generation
	// is read cold once, so the last one is warm when it is killed.
	for _, u := range users {
		a.Model().Recommend(u, 10)
	}
	for i := 0; i < 6; i++ {
		seq, _, err := a.Submit(testUpdate(i))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "update applied", func() bool { return a.AppliedSeq() >= seq })
		for _, u := range users {
			a.Model().Recommend(u, 10)
		}
	}
	rankings := func(mod *core.Model) [][]core.Recommendation {
		out := make([][]core.Recommendation, len(users))
		for i, u := range users {
			out[i] = mod.Recommend(u, 10)
		}
		return out
	}
	want := rankings(a.Model()) // served through the warm cache

	a.Abort() // SIGKILL stand-in

	b, err := Open(noBoot(t), Config{DataDir: dir, Fsync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	sameRankings := func(label string, got [][]core.Recommendation) {
		t.Helper()
		for i := range users {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: user %d got %d recs, want %d", label, users[i], len(got[i]), len(want[i]))
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("%s: user %d rank %d: got %+v want %+v", label, users[i], j, got[i][j], want[i][j])
				}
			}
		}
	}
	sameRankings("first read after replay (exact path)", rankings(b.Model()))
	sameRankings("second read after replay (cached path)", rankings(b.Model()))
}

// TestRecoveryGroupsBatchesBySeq reconstructs the exact micro-batches of
// a previous run from its batch-commit records, including a journaled
// but never-committed tail, which replays as one final batch.
func TestRecoveryGroupsBatchesBySeq(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()

	// Fabricate a WAL by hand: batch [1,2] committed, tail [3,4,5] not.
	w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ups []core.RatingUpdate
	for i := 0; i < 5; i++ {
		ups = append(ups, testUpdate(i))
	}
	for _, u := range ups[:2] {
		if _, err := w.AppendRating(u, -1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.AppendBatchCommit(2, -1); err != nil {
		t.Fatal(err)
	}
	for _, u := range ups[2:] {
		if _, err := w.AppendRating(u, -1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := Open(bootWith(base), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bs := m.BootStats()
	if bs.ReplayedRecords != 5 || bs.ReplayedBatches != 2 {
		t.Fatalf("replayed %d records in %d batches, want 5 in 2", bs.ReplayedRecords, bs.ReplayedBatches)
	}

	first, err := base.WithUpdates(ups[:2])
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.WithUpdates(ups[2:])
	if err != nil {
		t.Fatal(err)
	}
	samePredictions(t, "grouped replay", predictions(want), predictions(m.Model()))
}

// TestCloseDrainsAndReanchors: Close applies every journaled rating and
// writes a final snapshot, so the next boot replays nothing.
func TestCloseDrainsAndReanchors(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	a, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncNever,
		BatchMaxWait: 300 * time.Millisecond, // keep submissions pending until Close
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		if lastSeq, _, err = a.Submit(testUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.AppliedSeq(); got != lastSeq {
		t.Fatalf("close drained through seq %d, want %d", got, lastSeq)
	}

	b, err := Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if bs := b.BootStats(); bs.ReplayedRecords != 0 || bs.SnapshotLoaded == "" {
		t.Fatalf("boot after clean close = %+v, want snapshot only", bs)
	}
	if got := b.Model().Matrix().NumRatings(); got <= base.Matrix().NumRatings() {
		t.Fatalf("drained ratings missing after reboot: %d ratings", got)
	}
}

// TestMicroBatchingThroughput is the acceptance-criteria stress test:
// folding a rating stream in micro-batches must beat the per-request
// rebuild baseline, and a manager under concurrent load must actually
// coalesce (fewer batches than submissions).
func TestMicroBatchingThroughput(t *testing.T) {
	base := newBaseModel(t)
	const n = 48

	start := time.Now()
	cur := base
	for i := 0; i < n; i++ {
		var err error
		if cur, err = cur.WithUpdates([]core.RatingUpdate{testUpdate(i)}); err != nil {
			t.Fatal(err)
		}
	}
	perRequest := time.Since(start)

	start = time.Now()
	cur = base
	for lo := 0; lo < n; lo += 16 {
		batch := make([]core.RatingUpdate, 0, 16)
		for i := lo; i < lo+16; i++ {
			batch = append(batch, testUpdate(i))
		}
		var err error
		if cur, err = cur.WithUpdates(batch); err != nil {
			t.Fatal(err)
		}
	}
	batched := time.Since(start)

	t.Logf("%d updates: per-request %v, micro-batched(16) %v (%.1fx)",
		n, perRequest, batched, float64(perRequest)/float64(batched))
	if batched >= perRequest {
		t.Errorf("micro-batching (%v) not faster than per-request rebuilds (%v)", batched, perRequest)
	}

	// And through the manager: concurrent submissions coalesce.
	m, err := Open(bootWith(base), Config{
		DataDir:      t.TempDir(),
		Fsync:        wal.SyncNever,
		BatchMaxWait: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var last uint64
	for i := 0; i < 32; i++ {
		if last, _, err = m.Submit(testUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "batch drained", func() bool { return m.AppliedSeq() >= last })
	batches := m.reg.Counter("lifecycle_batches_total").Value()
	if batches >= 32 {
		t.Errorf("32 submissions took %d batches; micro-batching never coalesced", batches)
	}
	if applied := m.reg.Counter("lifecycle_applied_total").Value(); applied != 32 {
		t.Errorf("applied counter = %d, want 32", applied)
	}
	t.Logf("manager coalesced 32 submissions into %d batch(es)", batches)
}

func TestQueueFullShedsLoad(t *testing.T) {
	base := newBaseModel(t)
	m, err := Open(bootWith(base), Config{
		DataDir:       t.TempDir(),
		Fsync:         wal.SyncNever,
		QueueCapacity: 2,
		BatchMaxWait:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		if _, _, err := m.Submit(testUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.Submit(testUpdate(2)); err != ErrQueueFull {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if got := m.reg.Counter("lifecycle_queue_full_total").Value(); got != 1 {
		t.Errorf("queue_full counter = %d, want 1", got)
	}
}

// TestRetrainAfterDrift: once RetrainAfter updates are applied, a
// background retrain runs and swaps in a fresh K-means fit.
func TestRetrainAfterDrift(t *testing.T) {
	base := newBaseModel(t)
	m, err := Open(bootWith(base), Config{
		DataDir:      t.TempDir(),
		Fsync:        wal.SyncNever,
		RetrainAfter: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Exactly RetrainAfter updates, so the served model stays the pure
	// Train result (a later apply would flip Stats().Incremental back on).
	for i := 0; i < 4; i++ {
		seq, _, err := m.Submit(testUpdate(i))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "update applied", func() bool { return m.AppliedSeq() >= seq })
	}
	waitUntil(t, "drift retrain", func() bool { return m.reg.Counter("lifecycle_retrains_total").Value() >= 1 })
	waitUntil(t, "retrained model swapped in", func() bool {
		st := m.Model().Stats()
		return !st.Incremental && st.ClusterIters > 0
	})

	// A manual trigger works too.
	if !m.TriggerRetrain() {
		t.Fatal("manual retrain trigger refused while idle")
	}
	waitUntil(t, "manual retrain", func() bool { return m.reg.Counter("lifecycle_retrains_total").Value() >= 2 })
}

// TestRetrainingIsPerManager: whether a retrain is in flight is the
// manager's own state, not something read back out of the metrics
// registry — two managers sharing one obs.Registry must not see each
// other's retrain. The first manager's retrain is parked inside its
// "retrain started" log line, where its flag is already up.
func TestRetrainingIsPerManager(t *testing.T) {
	base := newBaseModel(t)
	reg := obs.NewRegistry()
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	a, err := Open(bootWith(base), Config{
		DataDir: t.TempDir(), Fsync: wal.SyncNever, Registry: reg,
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "retrain started") {
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
	defer a.Close()
	b, err := Open(bootWith(base), Config{DataDir: t.TempDir(), Fsync: wal.SyncNever, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if !a.TriggerRetrain() {
		t.Fatal("retrain trigger refused while idle")
	}
	<-parked
	if !a.Retraining() {
		t.Error("the retraining manager does not report its own retrain")
	}
	if b.Retraining() {
		t.Error("an idle manager reports the retrain of another manager on the same registry")
	}
	if !b.TriggerRetrain() {
		t.Error("an idle manager refused a retrain because another manager is retraining")
	}
	close(release)
	waitUntil(t, "both retrains", func() bool { return reg.Counter("lifecycle_retrains_total").Value() >= 2 })
	waitUntil(t, "flags down", func() bool { return !a.Retraining() && !b.Retraining() })
}

func TestSnapshotSkipAndPrune(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	m, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncNever,
		SnapshotKeep: 1,
		SegmentBytes: 128, // rotate aggressively so pruning has work
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Nothing applied since the boot snapshot: skipped, no new file.
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !info.Skipped {
		t.Errorf("idle snapshot not skipped: %+v", info)
	}

	for round := 1; round <= 2; round++ {
		for i := 0; i < 6; i++ {
			seq, _, err := m.Submit(testUpdate(round*6 + i))
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "update applied", func() bool { return m.AppliedSeq() >= seq })
		}
		info, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if info.Skipped || info.Bytes == 0 {
			t.Fatalf("snapshot round %d: %+v", round, info)
		}
		files, err := filepath.Glob(filepath.Join(dir, "snapshots", "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 1 || files[0] != info.Path {
			t.Errorf("round %d: snapshots dir holds %v, want only %s", round, files, info.Path)
		}
	}
	// Segments below the checkpoint were pruned; only the live tail stays.
	if segs := m.WALStats().Segments; segs > 2 {
		t.Errorf("%d WAL segments after checkpointing, want pruned to <= 2", segs)
	}
	// The WAL directory agrees (prune really deleted files).
	segFiles, _ := filepath.Glob(filepath.Join(dir, "wal", "seg-*.wal"))
	if len(segFiles) > 2 {
		t.Errorf("%d segment files on disk after prune", len(segFiles))
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	base := newBaseModel(t)
	m, err := Open(bootWith(base), Config{DataDir: t.TempDir(), Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Submit(testUpdate(0)); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	// Idempotent close/abort.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m.Abort()
	_ = os.RemoveAll(filepath.Join(t.TempDir()))
}
