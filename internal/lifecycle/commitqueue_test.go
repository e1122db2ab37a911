package lifecycle

import (
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
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
	const A, B = 0, 1
	type op struct {
		push       uint64 // rating sequence to push; 0 makes the op a cut
		shard      int
		covered    uint64
		wantPushed bool
		wantCut    []int
		wantMark   uint64 // watermark after the op
	}
	for _, tc := range []struct {
		name string
		base uint64
		ops  []op
	}{
		{"prefix commit closes every shard up to covered", 0, []op{
			{push: 1, shard: A, wantPushed: true, wantMark: 0},
			{push: 2, shard: B, wantPushed: true, wantMark: 0},
			{push: 3, shard: A, wantPushed: true, wantMark: 0},
			{push: 4, shard: B, wantPushed: true, wantMark: 0},
			{covered: 3, shard: -1, wantCut: []int{1, 2, 3}, wantMark: 3},
			{covered: 4, shard: -1, wantCut: []int{4}, wantMark: 4},
		}},
		{"per-shard commit leaves the other shards queued", 0, []op{
			{push: 1, shard: A, wantPushed: true, wantMark: 0},
			{push: 2, shard: B, wantPushed: true, wantMark: 0},
			{push: 3, shard: A, wantPushed: true, wantMark: 0},
			{covered: 3, shard: A, wantCut: []int{1, 3}, wantMark: 1},
			{covered: 2, shard: B, wantCut: []int{2}, wantMark: 3},
		}},
		{"commit covering nothing", 5, []op{
			{covered: 5, shard: -1, wantMark: 5},               // wholly inside the base state
			{push: 7, shard: A, wantPushed: true, wantMark: 5}, // seq 6 is no rating: the mark names ratings only
			{covered: 6, shard: -1, wantMark: 5},               // below the only queued rating
			{covered: 7, shard: B, wantMark: 5},                // another shard's commit
		}},
		{"commit arrives before a lower-seq rating of another shard is closed", 0, []op{
			{push: 1, shard: A, wantPushed: true, wantMark: 0},
			{push: 2, shard: B, wantPushed: true, wantMark: 0},
			{push: 3, shard: B, wantPushed: true, wantMark: 0},
			{covered: 3, shard: B, wantCut: []int{2, 3}, wantMark: 0}, // seq 1 still bounds the watermark
			{push: 5, shard: A, wantPushed: true, wantMark: 0},
			{covered: 5, shard: A, wantCut: []int{1, 5}, wantMark: 5},
		}},
		{"reconnect overlap at or below the cursor is dropped", 4, []op{
			{push: 3, shard: A, wantMark: 4},
			{push: 4, shard: A, wantMark: 4},
			{push: 6, shard: A, wantPushed: true, wantMark: 4},
			{push: 6, shard: A, wantMark: 4},
			{push: 5, shard: B, wantMark: 4},
			{covered: 6, shard: -1, wantCut: []int{6}, wantMark: 6},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := newCommitQueue(tc.base)
			for i, o := range tc.ops {
				if o.push > 0 {
					got := q.push(o.push, core.RatingUpdate{Item: int(o.push)}, o.shard)
					if got != o.wantPushed {
						t.Fatalf("op %d: push(%d) = %v, want %v", i, o.push, got, o.wantPushed)
					}
				} else {
					var got []int
					for _, u := range q.cut(o.covered, o.shard) {
						got = append(got, u.Item)
					}
					if !reflect.DeepEqual(got, o.wantCut) {
						t.Fatalf("op %d: cut(%d, %d) = %v, want %v", i, o.covered, o.shard, got, o.wantCut)
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

// TestPerShardCommitTailRecovers pins the disk-input contract the drain
// rule's deletion must not break: builds up to PR 12 drained one shard
// at a time and journaled a commit carrying that shard's id, so a WAL
// tail they left behind interleaves per-shard commits with ratings of
// other shards. The fixture below is such a tail, written record by
// record; boot replay, per-shard blob patching and a streaming follower
// must each regroup it into the batches the old process applied and land
// bit-for-bit on WithUpdates over those groups.
func TestPerShardCommitTailRecovers(t *testing.T) {
	base := newBaseModel(t)
	router := core.NewSharded(base)
	userA, userB := 0, -1
	for u := 1; u < base.Matrix().NumUsers(); u++ {
		if router.ShardOf(u) != router.ShardOf(userA) {
			userB = u
			break
		}
	}
	if userB < 0 {
		t.Fatal("base model has a single populated shard")
	}
	shA, shB := router.ShardOf(userA), router.ShardOf(userB)
	rate := func(user, item int, v float64) core.RatingUpdate {
		return core.RatingUpdate{User: user, Item: item, Value: v}
	}
	// r is the rerouted rating: userA's cell again, but journaled under
	// shard B (the user had moved clusters) and committed *before* the
	// lower-sequence a1 — the old process folded r first, so a1's value
	// is the one that survives. Replaying in sequence order gets it wrong.
	a1, b1, r := rate(userA, 3, 5), rate(userB, 3, 1), rate(userA, 3, 1)
	a2, b2 := rate(userA, 4, 2), rate(userB, 7, 4)
	b3, a4 := rate(userB, 7, 2), rate(userA, 9, 3) // b3 revises b2's cell

	dir := t.TempDir()
	w, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rating := func(u core.RatingUpdate, shard int) {
		t.Helper()
		if _, err := w.AppendRating(u, shard); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(covered uint64, shard int) {
		t.Helper()
		if _, err := w.AppendBatchCommit(covered, shard); err != nil {
			t.Fatal(err)
		}
	}
	rating(a1, shA) // seq 1
	rating(b1, shB) // seq 2
	rating(r, shB)  // seq 3
	commit(3, shB)  // seq 4: batch {2,3}; seq 1 stays queued
	commit(1, shA)  // seq 5: batch {1}
	rating(a2, shA) // seq 6
	rating(b2, shB) // seq 7
	commit(7, shB)  // seq 8: batch {7}
	commit(6, shA)  // seq 9: batch {6}
	rating(b3, shB) // seq 10
	rating(a4, shA) // seq 11: uncommitted tail {10,11}
	const lastRecord, lastCommitted = 11, 7
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	groups := [][]core.RatingUpdate{{b1, r}, {a1}, {b2}, {a2}, {b3, a4}}
	want := []string{fingerprint(t, base)} // want[k]: after the first k groups
	mod := base
	for _, g := range groups {
		if mod, err = mod.WithUpdates(g); err != nil {
			t.Fatal(err)
		}
		want = append(want, fingerprint(t, mod))
	}
	wantAll := mod

	// A streaming follower lands on the chain after every commit record,
	// and holds the tail until a commit closes it — here the prefix commit
	// this build writes.
	w, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFollower(obs.NewRegistry(), t.Logf)
	f.Reset(base, 0)
	commits := 0
	err = w.Replay(0, func(rec wal.Record) error {
		f.Ingest(rec)
		if rec.Type == wal.RecordBatchCommit {
			commits++
			if got := fingerprint(t, f.Sharded().Model()); got != want[commits] {
				t.Errorf("follower after commit %d (seq %d): fingerprint %s, want %s", commits, rec.Seq, got, want[commits])
			}
		}
		return nil
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if f.QueueLen() != 2 || f.AppliedSeq() != lastCommitted {
		t.Fatalf("follower holds %d queued at applied seq %d, want 2 at %d", f.QueueLen(), f.AppliedSeq(), lastCommitted)
	}
	f.Ingest(wal.Record{Type: wal.RecordBatchCommit, Seq: lastRecord + 1, Covered: lastRecord, Shard: -1})
	if got := fingerprint(t, f.Sharded().Model()); got != want[len(groups)] {
		t.Fatalf("follower after the tail commit: fingerprint %s, want %s", got, want[len(groups)])
	}

	// Boot replay: the tail forms one final batch.
	m, err := Open(bootWith(base), Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if bs := m.BootStats(); bs.ReplayedRecords != 7 || bs.ReplayedBatches != len(groups) {
		t.Fatalf("replayed %d records in %d batches, want 7 in %d", bs.ReplayedRecords, bs.ReplayedBatches, len(groups))
	}
	if got := fingerprint(t, m.Model()); got != want[len(groups)] {
		t.Fatalf("boot replay: fingerprint %s, want %s", got, want[len(groups)])
	}

	// Blob patching: every user's rows rebuilt from the base rows plus the
	// same log must equal the recovered matrix's.
	mx := wantAll.Matrix()
	members := make([]int, mx.NumUsers())
	baseRows := map[int][]ratings.Entry{}
	for u := range members {
		members[u] = u
		if u < base.Matrix().NumUsers() {
			baseRows[u] = base.Matrix().UserRatings(u)
		}
	}
	rows := make([][]ratings.Entry, mx.NumUsers())
	if err := m.patchRows(members, baseRows, nil, 0, m.AppliedSeq(), false, rows, nil); err != nil {
		t.Fatal(err)
	}
	for u, row := range rows {
		if want := mx.UserRatings(u); !(len(row) == 0 && len(want) == 0) && !reflect.DeepEqual(row, want) {
			t.Fatalf("patched row of user %d = %v, want %v", u, row, want)
		}
	}
}
