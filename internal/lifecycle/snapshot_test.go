package lifecycle

import (
	"bytes"
	"math"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// shardBlobs serialises every shard of a model: two models persist a
// shard differently exactly when these bytes differ.
func shardBlobs(t *testing.T, mod *core.Model) [][]byte {
	t.Helper()
	out := make([][]byte, mod.Clusters().K)
	for s := range out {
		var buf bytes.Buffer
		if err := mod.SaveShardBlob(&buf, s); err != nil {
			t.Fatal(err)
		}
		out[s] = buf.Bytes()
	}
	return out
}

// TestSnapshotRewritesExactlyTheDirtiedShards characterises incremental
// snapshots across a snapshot taken under load. The run loop is parked
// mid-drain with one batch applied (shard A dirty) and two ratings
// queued; the snapshot taken there writes A. The queued ratings then
// dirty A again — a shard that snapshot just wrote — and B, a shard it
// re-referenced. The next snapshot must rewrite exactly the shards whose
// persisted form changed in between, A and B among them, and carry every
// other blob ref over unchanged.
func TestSnapshotRewritesExactlyTheDirtiedShards(t *testing.T) {
	base := newBaseModel(t)
	assign := base.Clusters().Assign
	userA, userB := 0, -1
	for u := 1; u < len(assign); u++ {
		if assign[u] != assign[userA] {
			userB = u
			break
		}
	}
	if userB < 0 {
		t.Fatal("base model has a single populated shard")
	}
	shA, shB := assign[userA], assign[userB]

	logf, parked, release := parkOnFallback()
	m, err := Open(bootWith(base), Config{DataDir: t.TempDir(), Fsync: wal.SyncNever, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	applied, _, err := m.Submit(core.RatingUpdate{User: userA, Item: 1, Value: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first rating applied", func() bool { return m.AppliedSeq() >= applied })
	if _, _, err := m.Submit(core.RatingUpdate{User: userA, Item: 2, Value: math.NaN()}); err != nil { // Apply refuses it: the loop parks in its fallback
		t.Fatal(err)
	}
	<-parked
	seqs, _, err := m.SubmitBatch([]core.RatingUpdate{
		{User: userA, Item: 5, Value: 2},
		{User: userB, Item: 3, Value: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Pending(); got != 2 {
		t.Fatalf("%d ratings queued with the loop parked, want 2", got)
	}
	first, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if first.Skipped || first.CoveredSeq != applied {
		t.Fatalf("snapshot under load = %+v, want one written at seq %d", first, applied)
	}
	atFirst := shardBlobs(t, m.Model())
	man1, err := readManifest(first.Path)
	if err != nil {
		t.Fatal(err)
	}
	if man1.Shards[shA].Seq != applied || man1.Shards[shB].Seq == applied {
		t.Fatalf("snapshot under load wrote shard A at seq %d and shard B at seq %d, want A (and not B) at %d",
			man1.Shards[shA].Seq, man1.Shards[shB].Seq, applied)
	}

	close(release)
	waitUntil(t, "queue drained", func() bool { return m.AppliedSeq() >= seqs[1] })
	second, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	man2, err := readManifest(second.Path)
	if err != nil {
		t.Fatal(err)
	}
	atSecond := shardBlobs(t, m.Model())
	rewritten := 0
	for s := range man2.Shards {
		changed := !bytes.Equal(atFirst[s], atSecond[s])
		if got := man2.Shards[s] != man1.Shards[s]; got != changed {
			t.Errorf("shard %d: rewritten=%v, persisted form changed=%v (refs %+v -> %+v)",
				s, got, changed, man1.Shards[s], man2.Shards[s])
		}
		if changed {
			rewritten++
		}
	}
	if man2.Shards[shA] == man1.Shards[shA] || man2.Shards[shB] == man1.Shards[shB] {
		t.Errorf("shards A=%d and B=%d were dirtied after the first snapshot and must both be rewritten", shA, shB)
	}
	if second.ShardsWritten != rewritten || second.ShardsClean != len(man2.Shards)-rewritten {
		t.Errorf("second snapshot reports %d written / %d clean, want %d / %d",
			second.ShardsWritten, second.ShardsClean, rewritten, len(man2.Shards)-rewritten)
	}

	// Nothing applied since: the third snapshot has nothing to write.
	if third, err := m.Snapshot(); err != nil || !third.Skipped {
		t.Fatalf("idle snapshot = %+v, %v; want skipped", third, err)
	}
}
