package lifecycle

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/obs"
	"cfsf/internal/ratings"
	"cfsf/internal/wal"
)

// TestCommitQueue walks the one regrouping rule through every shape of
// commit a log can hold. Each op pushes one rating (push > 0) or cuts a
// commit; ratings carry their sequence as the item id so a cut's batch
// reads back as sequences.
func TestCommitQueue(t *testing.T) {
	type op struct {
		push        uint64 // rating sequence to push; 0 makes the op a cut
		covered     uint64
		perShard    bool // the cut's commit names shard 0, as builds before 390be92 journaled
		wantPushed  bool
		wantRefused bool
		wantCut     []int
		wantMark    uint64 // watermark after the op
	}
	for _, tc := range []struct {
		name string
		base uint64
		ops  []op
	}{
		{"prefix commit closes every shard up to covered", 0, []op{
			{push: 1, wantPushed: true, wantMark: 0},
			{push: 2, wantPushed: true, wantMark: 0},
			{push: 3, wantPushed: true, wantMark: 0},
			{push: 4, wantPushed: true, wantMark: 0},
			{covered: 3, wantCut: []int{1, 2, 3}, wantMark: 3},
			{covered: 4, wantCut: []int{4}, wantMark: 4},
		}},
		{"per-shard commit leaves the other shards queued", 0, []op{
			{push: 1, wantPushed: true, wantMark: 0},
			{push: 2, wantPushed: true, wantMark: 0},
			{push: 3, wantPushed: true, wantMark: 0},
			{covered: 2, perShard: true, wantRefused: true, wantMark: 0}, // would cut: refused, nothing cut
			{covered: 3, wantCut: []int{1, 2, 3}, wantMark: 3},
			{covered: 3, perShard: true, wantMark: 3}, // covers nothing queued: passes and changes nothing
		}},
		{"commit covering nothing", 5, []op{
			{covered: 5, wantMark: 5},                // wholly inside the base state
			{push: 7, wantPushed: true, wantMark: 5}, // seq 6 is no rating: the mark names ratings only
			{covered: 6, wantMark: 5},                // below the only queued rating
		}},
		{"reconnect overlap at or below the cursor is dropped", 4, []op{
			{push: 3, wantMark: 4},
			{push: 4, wantMark: 4},
			{push: 6, wantPushed: true, wantMark: 4},
			{push: 6, wantMark: 4},
			{push: 5, wantMark: 4},
			{covered: 6, wantCut: []int{6}, wantMark: 6},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := newCommitQueue(tc.base)
			for i, o := range tc.ops {
				if o.push > 0 {
					got := q.push(o.push, core.RatingUpdate{Item: int(o.push)})
					if got != o.wantPushed {
						t.Fatalf("op %d: push(%d) = %v, want %v", i, o.push, got, o.wantPushed)
					}
				} else {
					rec := wal.Record{Type: wal.RecordBatchCommit, Covered: o.covered, Shard: -1}
					if o.perShard {
						rec.Shard = 0
					}
					err := q.refuseShardCommit(rec)
					if (err != nil) != o.wantRefused {
						t.Fatalf("op %d: refuseShardCommit(%d) = %v, want refused %v", i, o.covered, err, o.wantRefused)
					}
					var got []int
					if err == nil {
						for _, u := range q.cut(o.covered) {
							got = append(got, u.Item)
						}
					}
					if !reflect.DeepEqual(got, o.wantCut) {
						t.Fatalf("op %d: cut(%d) = %v, want %v", i, o.covered, got, o.wantCut)
					}
				}
				if got := q.watermark(); got != o.wantMark {
					t.Fatalf("op %d: watermark = %d, want %d", i, got, o.wantMark)
				}
			}
		})
	}
}

// fingerprint hashes a model's persisted form, shared blob then every
// shard blob — replication.Fingerprint's definition, which this package
// cannot import.
func fingerprint(t *testing.T, mod *core.Model) string {
	t.Helper()
	h := sha256.New()
	if err := mod.SaveSharedBlob(h); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < mod.Clusters().K; s++ {
		if err := mod.SaveShardBlob(h, s); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPerShardCommitIsRefused pins what this build does with a WAL tail
// that builds before 390be92 left behind: they drained one shard at a time
// and journaled a commit carrying that shard's id, and regrouping such a
// commit needs the per-rating routing this build no longer keeps. Boot
// replay, a streaming follower and per-shard blob patching must each
// refuse the record by sequence and shard and name the way out — never
// fold it as a prefix commit, which would apply the batches in another
// order than the old process did.
func TestPerShardCommitIsRefused(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []core.RatingUpdate{{User: 0, Item: 3, Value: 5}, {User: 1, Item: 3, Value: 1}} {
		if _, err := w.AppendRating(u, u.User); err != nil { // seqs 1, 2
			t.Fatal(err)
		}
	}
	if _, err := w.AppendBatchCommit(2, 1); err != nil { // seq 3: shard 1's ratings only
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T, where string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "batch commit record 3 closes shard 1") || !strings.Contains(err.Error(), "390be92 through 5504ac4") {
			t.Fatalf("%s: %v, want the per-shard commit refused with the way out", where, err)
		}
	}

	_, err = Open(bootWith(base), Config{DataDir: dir})
	refused(t, "boot", err)

	f := NewFollower(obs.NewRegistry(), t.Logf)
	f.Reset(base, 0)
	w, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Replay(0, f.Ingest)
	refused(t, "follower ingest", err)
	if f.Model() != base || f.QueueLen() != 2 {
		t.Fatalf("the refused commit moved the follower: model replaced=%v, %d queued", f.Model() != base, f.QueueLen())
	}

	m := &Manager{w: w}
	rows := make([][]ratings.Entry, base.Matrix().NumUsers())
	refused(t, "shard patching", m.patchRows([]int{0, 1}, nil, nil, 0, 2, false, rows, nil))
}

// TestPerShardCommitTailRecovers pins the way out TestPerShardCommitIsRefused
// names. A build from 390be92 through 5504ac4 folds a per-shard tail at boot
// and snapshots at its last rating, so the per-shard commits, journaled after
// the ratings they close, all sit past that snapshot and cover nothing
// queued. Boot replay, a streaming follower and shard patching must pass
// over them, and the traffic after them must fold as usual.
func TestPerShardCommitTailRecovers(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	// appendAt writes records to the data dir's WAL, each at its wanted seq.
	appendAt := func(wantSeq uint64, write ...func(w *wal.WAL) (uint64, error)) {
		t.Helper()
		w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range write {
			if seq, err := f(w); err != nil || seq != wantSeq+uint64(i) {
				t.Fatalf("append: seq %d, %v; want seq %d", seq, err, wantSeq+uint64(i))
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rating := func(u core.RatingUpdate) func(w *wal.WAL) (uint64, error) {
		return func(w *wal.WAL) (uint64, error) { return w.AppendRating(u, u.User) }
	}
	shardCommit := func(covered uint64, shard int) func(w *wal.WAL) (uint64, error) {
		return func(w *wal.WAL) (uint64, error) { return w.AppendBatchCommit(covered, shard) }
	}
	appendAt(1, rating(core.RatingUpdate{User: 0, Item: 3, Value: 5}), rating(core.RatingUpdate{User: 1, Item: 3, Value: 1}))

	// The way out's boot: the tail folds, and the boot snapshot covers seq 2.
	m, err := Open(bootWith(base), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if bs := m.BootStats(); bs.ReplayedRecords != 2 || m.AppliedSeq() != 2 {
		t.Fatalf("way-out boot replayed %d records to seq %d, want 2 to seq 2", bs.ReplayedRecords, m.AppliedSeq())
	}
	snap := m.Model()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The per-shard commits that closed the tail, shard 1's batch first.
	appendAt(3, shardCommit(2, 1), shardCommit(1, 0))

	m, err = Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatalf("boot past the per-shard commits: %v", err)
	}
	if bs := m.BootStats(); bs.SnapshotSeq != 2 || bs.ReplayedRecords != 0 || bs.ReplayedBatches != 0 {
		t.Fatalf("boot from seq %d replayed %d records in %d batches, want from 2 with none", bs.SnapshotSeq, bs.ReplayedRecords, bs.ReplayedBatches)
	}
	if got, want := fingerprint(t, m.Model()), fingerprint(t, snap); got != want {
		t.Fatalf("boot past the per-shard commits: fingerprint %s, want the snapshot's %s", got, want)
	}

	seqs, _, err := m.SubmitBatch([]core.RatingUpdate{{User: 2, Item: 5, Value: 4}})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "rating after the tail applied", func() bool { return m.AppliedSeq() >= seqs[0] })
	live := m.Model()
	if live == snap {
		t.Fatal("the rating after the tail left the model unchanged")
	}

	f := NewFollower(obs.NewRegistry(), t.Logf)
	f.Reset(snap, 2)
	waitUntil(t, "commit journaled", func() bool {
		var committed bool
		if err := m.w.Replay(seqs[0], func(rec wal.Record) error {
			committed = committed || rec.Type == wal.RecordBatchCommit
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return committed
	})
	if err := m.w.Replay(2, f.Ingest); err != nil {
		t.Fatalf("follower streaming past the per-shard commits: %v", err)
	}
	if f.AppliedSeq() != seqs[0] || f.QueueLen() != 0 || fingerprint(t, f.Model()) != fingerprint(t, live) {
		t.Fatalf("follower at seq %d with %d queued, want the leader's model at seq %d", f.AppliedSeq(), f.QueueLen(), seqs[0])
	}

	mx := live.Matrix()
	members := make([]int, mx.NumUsers())
	baseRows := map[int][]ratings.Entry{}
	for u := range members {
		members[u] = u
		baseRows[u] = snap.Matrix().UserRatings(u)
	}
	rows := make([][]ratings.Entry, mx.NumUsers())
	if err := m.patchRows(members, baseRows, nil, 2, seqs[0], false, rows, nil); err != nil {
		t.Fatalf("patching past the per-shard commits: %v", err)
	}
	for u, row := range rows {
		if want := mx.UserRatings(u); !(len(row) == 0 && len(want) == 0) && !reflect.DeepEqual(row, want) {
			t.Fatalf("patched row of user %d = %v, want %v", u, row, want)
		}
	}

	m.Abort()
	m, err = Open(noBoot(t), Config{DataDir: dir})
	if err != nil {
		t.Fatalf("reboot past the per-shard commits: %v", err)
	}
	defer m.Close()
	if bs := m.BootStats(); bs.ReplayedRecords != 1 || bs.ReplayedBatches != 1 {
		t.Fatalf("reboot replayed %d records in %d batches, want 1 in 1", bs.ReplayedRecords, bs.ReplayedBatches)
	}
	if got, want := fingerprint(t, m.Model()), fingerprint(t, live); got != want {
		t.Fatalf("reboot: fingerprint %s, want the live model's %s", got, want)
	}
}
