package lifecycle

import (
	"io"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// TestSkippedUserIDRewritesItsShard: a batch may name user N+1 while user
// N never rates (entry 1 of a /rate array may). The matrix grows by both
// ids and the clustering places the skipped one in shard 0, whose member
// set so changes although no update names one of its users. The snapshot
// after that batch must rewrite shard 0's blob: a manifest that
// re-references the old one cannot be assembled — a follower cannot
// bootstrap from it — and once a later snapshot has pruned the WAL below
// it, no retained point boots and neither does the bootstrap.
func TestSkippedUserIDRewritesItsShard(t *testing.T) {
	base := newBaseModel(t)
	gap := base.Matrix().NumUsers()
	cfg := Config{DataDir: t.TempDir(), Fsync: wal.SyncNever, SegmentBytes: 256}
	m, err := Open(bootWith(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	submit := func(ups ...core.RatingUpdate) {
		t.Helper()
		seqs, _, err := m.SubmitBatch(ups)
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "batch applied", func() bool { return m.AppliedSeq() >= seqs[len(seqs)-1] })
	}
	ups := []core.RatingUpdate{{User: 0, Item: 0, Value: 4}}
	for k, v := range []float64{1, 2, 3, 4, 5, 1} {
		ups = append(ups, core.RatingUpdate{User: gap + 1, Item: 7 + 5*k, Value: v})
	}
	submit(ups...)
	assign := m.Model().Clusters().Assign
	if assign[gap] != 0 || base.Clusters().Assign[0] == 0 || assign[0] == 0 || assign[gap+1] == 0 {
		t.Fatalf("fixture drifted: shard 0 must gain only the skipped user %d (assignments: user 0 %d→%d, user %d %d, user %d %d)",
			gap, base.Clusters().Assign[0], assign[0], gap, assign[gap], gap+1, assign[gap+1])
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	data, _, err := m.NewestManifest()
	if err != nil {
		t.Fatal(err)
	}
	remote, _, err := AssembleRemotePoint(data, func(name string) ([]byte, error) {
		f, err := m.OpenSnapshotBlob(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return io.ReadAll(f)
	})
	if err != nil {
		t.Fatalf("a follower cannot bootstrap from the snapshot after the gap: %v", err)
	}
	if got, want := fingerprint(t, remote), fingerprint(t, m.Model()); got != want {
		t.Fatalf("remote assembly fingerprint %s, live %s", got, want)
	}

	// A write that leaves shard 0 clean, then a snapshot that re-references
	// its blob and prunes the WAL below the first manifest.
	submit(core.RatingUpdate{User: 0, Item: 0, Value: 4})
	if c := m.Model().Clusters().Assign[0]; c == 0 {
		t.Fatal("fixture drifted: user 0 moved into shard 0")
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, m.Model())
	m.Abort()

	b, err := Open(noBoot(t), cfg)
	if err != nil {
		t.Fatalf("the data dir no longer boots: %v", err)
	}
	defer b.Close()
	if got := fingerprint(t, b.Model()); got != want {
		t.Fatalf("rebooted fingerprint %s, live %s", got, want)
	}
	if n := b.reg.Counter("lifecycle_snapshot_load_failures_total").Value() + b.reg.Counter("lifecycle_shard_blob_failures_total").Value(); n != 0 {
		t.Fatalf("boot skipped a point or patched a shard %d time(s)", n)
	}
}
