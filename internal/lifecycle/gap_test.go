package lifecycle

import (
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/obs"
	"cfsf/internal/wal"
)

// TestSkippedUserIDBootstrapsAfterPrune: a batch may name user N+1 while
// user N never rates (entry 1 of a /rate array may). The matrix grows by
// both ids, and the clustering places the skipped one although no update
// names it. Once a later snapshot has pruned the WAL past that batch, the
// snapshot file is the only place the skipped user exists: a follower
// bootstrapping from what the leader serves, then streaming the tail, and
// a reboot of the leader must each hold the leader's model.
func TestSkippedUserIDBootstrapsAfterPrune(t *testing.T) {
	base := newBaseModel(t)
	gap := base.Matrix().NumUsers()
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.SyncNever, SegmentBytes: 256, SnapshotKeep: 1}
	m, err := Open(bootWith(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	submit := func(ups ...core.RatingUpdate) uint64 {
		t.Helper()
		seqs, _, err := m.SubmitBatch(ups)
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "batch applied", func() bool { return m.AppliedSeq() >= seqs[len(seqs)-1] })
		return seqs[len(seqs)-1]
	}
	ups := []core.RatingUpdate{{User: 0, Item: 0, Value: 4}}
	for k, v := range []float64{1, 2, 3, 4, 5, 1} {
		ups = append(ups, core.RatingUpdate{User: gap + 1, Item: 7 + 5*k, Value: v})
	}
	gapSeq := submit(ups...)
	if mx := m.Model().Matrix(); mx.NumUsers() != gap+2 || len(mx.UserRatings(gap)) != 0 {
		t.Fatalf("fixture drifted: %d users, skipped user %d holds %d ratings", mx.NumUsers(), gap, len(mx.UserRatings(gap)))
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		submit(testUpdate(i))
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if av := m.WALAvailableFrom(); av <= gapSeq {
		t.Fatalf("fixture drifted: the log still starts at seq %d, at or below the gap batch's %d", av, gapSeq)
	}

	f, err := m.OpenSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	file, err := core.Decode(f)
	f.Close()
	if err != nil {
		t.Fatalf("the served snapshot does not decode: %v", err)
	}
	remote, err := file.Model()
	if err != nil {
		t.Fatalf("a follower cannot bootstrap from the served snapshot: %v", err)
	}
	if got, want := fingerprint(t, remote), fingerprint(t, m.Model()); got != want || file.Seq != m.AppliedSeq() {
		t.Fatalf("bootstrap at seq %d fingerprints %s, leader at seq %d %s", file.Seq, got, m.AppliedSeq(), want)
	}
	fl := NewFollower(obs.NewRegistry(), t.Logf)
	fl.Reset(remote, file.Seq)
	last := submit(core.RatingUpdate{User: gap, Item: 3, Value: 2})
	waitUntil(t, "commit journaled", func() bool { return m.w.LastSeq() > last })
	if err := m.w.Replay(file.Seq, fl.Ingest); err != nil {
		t.Fatalf("follower streaming the tail: %v", err)
	}
	want := fingerprint(t, m.Model())
	if got := fingerprint(t, fl.Model()); got != want || fl.AppliedSeq() != m.AppliedSeq() {
		t.Fatalf("follower at seq %d fingerprints %s, leader at seq %d %s", fl.AppliedSeq(), got, m.AppliedSeq(), want)
	}
	m.Abort()

	b, err := Open(noBoot(t), cfg)
	if err != nil {
		t.Fatalf("the data dir no longer boots: %v", err)
	}
	defer b.Close()
	if got := fingerprint(t, b.Model()); got != want {
		t.Fatalf("rebooted fingerprint %s, live %s", got, want)
	}
	if n := b.reg.Counter("lifecycle_snapshot_load_failures_total").Value(); n != 0 {
		t.Fatalf("boot skipped a point %d time(s)", n)
	}
}
