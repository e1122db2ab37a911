package lifecycle

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
	"cfsf/internal/wal"
)

// TestKillRebootParityMatrix is the tentpole acceptance test: randomized
// apply streams, snapshotted incrementally (so each manifest rewrites a
// different dirty-shard subset), killed without shutdown, and rebooted —
// with the per-shard blob fallback engaged or not — must recover
// predictions bit-for-bit. The fallback cells corrupt one
// shard blob the newest manifest rewrote, forcing boot to patch that
// shard from an older manifest's blob plus commit-aware WAL replay while
// still using the newest manifest for everything else.
func TestKillRebootParityMatrix(t *testing.T) {
	base := newBaseModel(t)
	for _, tc := range []struct {
		name    string
		corrupt bool
	}{
		{"clean", false},
		{"shard-fallback", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scenario := func(seed uint16) bool {
				return killRebootScenario(t, base, int64(seed), tc.corrupt)
			}
			if err := quick.Check(scenario, &quick.Config{MaxCount: 3}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func killRebootScenario(t *testing.T, base *core.Model, seed int64, corrupt bool) bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	cfg := Config{
		DataDir:      dir,
		Fsync:        wal.SyncNever,
		SegmentBytes: 2048, // rotate often so snapshots have segments to prune
		SnapshotKeep: 2,    // fallback needs an older manifest to patch from
	}
	m, err := Open(bootWith(base), cfg)
	if err != nil {
		t.Fatal(err)
	}

	submit := func(n int) {
		var last uint64
		for k := 0; k < n; k++ {
			up := core.RatingUpdate{
				User:  rng.Intn(41),
				Item:  rng.Intn(50),
				Value: float64(rng.Intn(5) + 1),
			}
			seq, _, err := m.Submit(up)
			if err != nil {
				t.Fatal(err)
			}
			last = seq
		}
		waitUntil(t, "updates applied", func() bool { return m.AppliedSeq() >= last })
	}

	// Several submit+snapshot phases: each phase dirties a random user
	// subset, so successive manifests rewrite different shard subsets and
	// re-reference the rest.
	phases := 2 + rng.Intn(3)
	for p := 0; p < phases; p++ {
		submit(5 + rng.Intn(40))
		if _, err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	// An unsnapshotted tail the reboot must replay from the WAL.
	if tail := rng.Intn(20); tail > 0 {
		submit(tail)
	}
	want := predictions(m.Model())
	m.Abort() // SIGKILL stand-in

	wantLoaded := ""
	if corrupt {
		wantLoaded = corruptOneRewrittenShardBlob(t, dir)
		if wantLoaded == "" {
			return true // no shard rewritten in the newest manifest this round; nothing to corrupt
		}
	}

	b, err := Open(noBoot(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if corrupt {
		// The fallback must have engaged — and on the newest manifest, not
		// by discarding it for the older one.
		if got := filepath.Base(b.BootStats().SnapshotLoaded); got != wantLoaded {
			t.Fatalf("boot loaded %q, want the corrupted-but-patchable manifest %q", got, wantLoaded)
		}
		if n := b.reg.Counter("lifecycle_shard_blob_failures_total").Value(); n < 1 {
			t.Fatalf("shard blob failure counter = %d, want >= 1 (fallback never ran)", n)
		}
	}
	samePredictions(t, "recovered vs pre-kill", want, predictions(b.Model()))
	return true
}

// corruptOneRewrittenShardBlob truncates one shard blob that the newest
// manifest rewrote (its file differs from the previous manifest's ref for
// the same shard, so the older blob survives as patch material). Returns
// the newest manifest's base name, or "" when every shard was clean.
func corruptOneRewrittenShardBlob(t *testing.T, dataDir string) string {
	t.Helper()
	points, err := listDurablePoints(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	var mans []*manifest
	var names []string
	for _, pt := range points {
		man, err := readManifest(pt.path)
		if err != nil {
			t.Fatal(err)
		}
		mans = append(mans, man)
		names = append(names, filepath.Base(pt.path))
	}
	if len(mans) < 2 {
		return ""
	}
	newest, older := mans[0], mans[1]
	shared, err := dirBlobs(snapshotDir(dataDir)).shared(newest.Shared.File)
	if err != nil {
		t.Fatal(err)
	}
	for s, ref := range newest.Shards {
		if s >= len(older.Shards) || older.Shards[s].File == ref.File {
			continue // clean ref shared with the older manifest: corrupting it would sink both
		}
		if older.Shards[s].Seq < older.Seq {
			// The patch-source blob predates the older manifest itself;
			// retention only guarantees WAL coverage from the oldest
			// point's watermark, so patching this one may be refused.
			continue
		}
		// Membership churn between the manifests can make the older blob
		// unable to express the shard's current member set (a user
		// re-clustered in, whose full row the WAL tail cannot rebuild) —
		// recovery then correctly degrades to whole-point fallback. Pick a
		// shard where per-shard patching is actually possible.
		part, err := dirBlobs(snapshotDir(dataDir)).shard(older.Shards[s].File)
		if err != nil {
			t.Fatal(err)
		}
		inOld := map[int]bool{}
		for _, u := range part.Users {
			inOld[u] = true
		}
		compatible := true
		for _, u := range shared.Members(s) {
			if !inOld[u] && u < part.NumUsersAtWrite {
				compatible = false
				break
			}
		}
		if !compatible {
			continue
		}
		path := filepath.Join(snapshotDir(dataDir), ref.File)
		if err := os.Truncate(path, 7); err != nil {
			t.Fatal(err)
		}
		return names[0]
	}
	return ""
}

// TestBlobRefcountGC pins the retention rule for shared blob refs: a blob
// re-referenced by a newer manifest (clean shard) must survive the pruning
// of the manifest that originally wrote it, and a blob no retained
// manifest references must be deleted.
func TestBlobRefcountGC(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	m, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncNever,
		SnapshotKeep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	oneUser := func(u, n int) { // dirty only the shard owning user u
		var last uint64
		for i := 0; i < n; i++ {
			seq, _, err := m.Submit(core.RatingUpdate{User: u, Item: i % 50, Value: float64(i%5) + 1})
			if err != nil {
				t.Fatal(err)
			}
			last = seq
		}
		waitUntil(t, "updates applied", func() bool { return m.AppliedSeq() >= last })
	}
	snap := func() *manifest {
		info, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if info.Skipped {
			t.Fatalf("snapshot skipped: %+v", info)
		}
		man, err := readManifest(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		return man
	}

	oneUser(0, 3)
	man1 := snap() // writes every shard (first manifest)
	oneUser(0, 4)
	man2 := snap() // rewrites user 0's shard; re-references the rest from man1

	clean := -1
	for s, ref := range man2.Shards {
		if ref.File == man1.Shards[s].File {
			clean = s
			break
		}
	}
	if clean < 0 {
		t.Fatal("no clean shard between consecutive one-user snapshots; refcount rule untestable")
	}

	oneUser(0, 5)
	man3 := snap() // prunes man1; its exclusive blobs must go, shared refs must stay

	if got, _ := filepath.Glob(filepath.Join(snapshotDir(dir), manifestPrefix+"*")); len(got) != 2 {
		t.Fatalf("%d manifests retained, want 2 (%v)", len(got), got)
	}
	// The clean shard's blob — written under man1, still referenced by
	// man2 (and likely man3) — survived man1's pruning.
	if _, err := os.Stat(filepath.Join(snapshotDir(dir), man2.Shards[clean].File)); err != nil {
		t.Fatalf("blob %s shared by retained manifests was GCed: %v", man2.Shards[clean].File, err)
	}
	// man1's shared blob and its rewritten-since shard blob are now
	// unreferenced (man2/man3 rewrote their own): both deleted.
	retained := map[string]bool{man2.Shared.File: true, man3.Shared.File: true}
	for _, man := range []*manifest{man2, man3} {
		for _, ref := range man.Shards {
			retained[ref.File] = true
		}
	}
	if !retained[man1.Shared.File] {
		if _, err := os.Stat(filepath.Join(snapshotDir(dir), man1.Shared.File)); !os.IsNotExist(err) {
			t.Errorf("unreferenced shared blob %s not GCed (stat err %v)", man1.Shared.File, err)
		}
	}
	blobs, _ := filepath.Glob(filepath.Join(snapshotDir(dir), "*"+blobSuffix))
	for _, b := range blobs {
		if !retained[filepath.Base(b)] {
			t.Errorf("blob %s on disk but referenced by no retained manifest", filepath.Base(b))
		}
	}
}

// TestCrashBetweenManifestPruneAndBlobGC models a crash in the middle of
// retention: the oldest manifest file is already gone but its
// now-orphaned blobs are still on disk. Boot must come up cleanly from
// the surviving manifests, and the next snapshot's retention pass must
// sweep the orphans.
func TestCrashBetweenManifestPruneAndBlobGC(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	m, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncNever,
		SnapshotKeep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	var last uint64
	submit := func(n int) {
		for i := 0; i < n; i++ {
			seq, _, err := m.Submit(testUpdate(int(last) + i))
			if err != nil {
				t.Fatal(err)
			}
			last = seq
		}
		waitUntil(t, "updates applied", func() bool { return m.AppliedSeq() >= last })
	}
	submit(6)
	info1, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	man1, err := readManifest(info1.Path)
	if err != nil {
		t.Fatal(err)
	}
	submit(6)
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := predictions(m.Model())
	m.Abort()

	// Crash re-enactment: the retention pass deleted manifest 1 but died
	// before the blob GC. Manifest 2's clean refs may point into man1's
	// blob set, so only delete the manifest file — every blob stays.
	if err := os.Remove(info1.Path); err != nil {
		t.Fatal(err)
	}

	b, err := Open(noBoot(t), Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotKeep: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	samePredictions(t, "boot across interrupted retention", want, predictions(b.Model()))

	// Drive two more snapshots so retention runs with a full complement of
	// manifests; orphans from the interrupted pass must now be gone.
	m = b
	submit(6)
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	submit(6)
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	referenced := map[string]bool{}
	points, err := listDurablePoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		man, err := readManifest(pt.path)
		if err != nil {
			t.Fatal(err)
		}
		referenced[man.Shared.File] = true
		for _, ref := range man.Shards {
			referenced[ref.File] = true
		}
	}
	blobs, _ := filepath.Glob(filepath.Join(snapshotDir(dir), "*"+blobSuffix))
	for _, blob := range blobs {
		if !referenced[filepath.Base(blob)] {
			t.Errorf("orphan blob %s survived the post-crash retention pass", filepath.Base(blob))
		}
	}
	_ = man1 // its blobs are validated through the referenced-set sweep above
}

// TestLegacySnapshotNoLongerBoots: a monolithic snap-<seq>.gob from
// before the manifest format is state this build cannot read. Alone in
// the snapshots directory it must fail Open with an error naming the
// file — never fall through to a retrain that silently forgets what the
// file held; beside a loadable manifest it is ignored and left in place.
func TestLegacySnapshotNoLongerBoots(t *testing.T) {
	base := newBaseModel(t)
	plant := func(dir string, seq uint64) string {
		t.Helper()
		if err := os.MkdirAll(snapshotDir(dir), 0o755); err != nil {
			t.Fatal(err)
		}
		legacy := filepath.Join(snapshotDir(dir), fmt.Sprintf("snap-%016x.gob", seq))
		f, err := os.Create(legacy)
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return legacy
	}

	t.Run("legacy only: refused", func(t *testing.T) {
		dir := t.TempDir()
		legacy := plant(dir, 0)
		_, err := Open(noBoot(t), Config{DataDir: dir})
		if err == nil || !strings.Contains(err.Error(), legacy) {
			t.Fatalf("Open = %v, want a refusal naming %s", err, legacy)
		}
		if mans, _ := filepath.Glob(filepath.Join(snapshotDir(dir), manifestPrefix+"*")); len(mans) != 0 {
			t.Fatalf("refused boot still wrote %v", mans)
		}
	})

	t.Run("legacy beside a manifest: manifest wins", func(t *testing.T) {
		dir := t.TempDir()
		a, err := Open(bootWith(base), Config{DataDir: dir, Fsync: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		seq, _, err := a.Submit(testUpdate(1))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "update applied", func() bool { return a.AppliedSeq() >= seq })
		want := predictions(a.Model())
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		legacy := plant(dir, 0xff) // claims to be newer than any manifest

		b, err := Open(noBoot(t), Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotKeep: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := filepath.Base(b.BootStats().SnapshotLoaded); !strings.HasPrefix(got, manifestPrefix) {
			t.Fatalf("boot loaded %q, want a manifest", got)
		}
		samePredictions(t, "manifest boot beside a legacy file", want, predictions(b.Model()))
		// Retention counts manifests only: a snapshot past SnapshotKeep
		// must not sweep the file an operator may still want.
		seq, _, err = b.Submit(testUpdate(2))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "update applied", func() bool { return b.AppliedSeq() >= seq })
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(legacy); err != nil {
			t.Fatalf("legacy file not left in place: %v", err)
		}
	})
}

// TestRetentionRuleHolds pins the one WAL retention rule on the recovery
// benchmark's history shape: after every snapshot the log starts at or
// below the oldest retained manifest's watermark plus one, so every
// retained manifest still has its tail — and nothing else pins the log.
// By 16x the history K-means has drifted the writers into one shard, the
// other shards' clean blobs stay at an old sequence, and the WAL on disk
// must be no bigger than at 1x.
func TestRetentionRuleHolds(t *testing.T) {
	base := newBaseModel(t)
	walBytes := map[int]int64{}
	for _, mult := range []int{1, 16} {
		coldBlobs := 0
		dir := prepareHistory(t, base, mult, func(m *Manager) {
			m.snapMu.Lock()
			defer m.snapMu.Unlock()
			oldest, av := m.oldestRetainedSeq(), m.WALAvailableFrom()
			if av > oldest+1 {
				t.Fatalf("%dx: wal starts at seq %d, above the oldest retained manifest (seq %d) + 1", mult, av, oldest)
			}
			if got := m.OldestSnapshotSeq(); got != oldest {
				t.Fatalf("%dx: OldestSnapshotSeq = %d, retained manifests say %d", mult, got, oldest)
			}
			points, err := listDurablePoints(m.cfg.DataDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range points {
				if err := m.tailReplayable(pt.seq); err != nil {
					t.Fatalf("%dx: retained manifest at seq %d lost its tail: %v", mult, pt.seq, err)
				}
			}
			coldBlobs = 0
			for _, ref := range m.lastManifest.Shards {
				if ref.Seq+1 < av {
					coldBlobs++
				}
			}
		})
		walBytes[mult] = dirBytes(t, filepath.Join(dir, "wal"))
		if mult == 16 && coldBlobs == 0 {
			t.Fatal("16x: no shard blob is older than the log's start; the cold-shard case went uncovered")
		}
	}
	if float64(walBytes[16]) > 1.5*float64(walBytes[1]) {
		t.Fatalf("wal holds %d bytes at 16x history against %d at 1x, want <= 1.5x: retention is pinned by something other than the oldest manifest",
			walBytes[16], walBytes[1])
	}
	t.Logf("wal bytes: 1x %d, 16x %d (ratio %.2f)", walBytes[1], walBytes[16], float64(walBytes[16])/float64(walBytes[1]))
}

// TestBootstrapRefusedWhenWALCannotReachBack: the bootstrap model stands
// at watermark 0, so falling back to it is only a recovery while the WAL
// still starts at sequence 1. Once the log starts above that and no
// manifest can stand under it, retraining would serve a model missing
// acknowledged ratings: Open must refuse, naming where the log starts,
// and never call bootstrap. Two ways to get there: every manifest is
// unloadable (a corrupt shared blob has no patch path) after a snapshot
// pruned the log; or a compacted base left by an older build — refused by
// name while it is there — was deleted after a SIGKILL instead of after a
// clean stop, taking the ratings above the newest manifest with it.
func TestBootstrapRefusedWhenWALCannotReachBack(t *testing.T) {
	base := newBaseModel(t)
	for _, tc := range []struct {
		name string
		// tail is how many ratings are journaled after the snapshot, ending
		// in a SIGKILL stand-in; zero ends in a clean Close.
		tail   int
		damage func(t *testing.T, cfg Config)
		want   string
	}{
		{"pruned", 0, func(t *testing.T, cfg Config) {
			shared, _ := filepath.Glob(filepath.Join(snapshotDir(cfg.DataDir), sharedBlobPrefix+"*"))
			if len(shared) == 0 {
				t.Fatal("no shared blob to corrupt")
			}
			for _, path := range shared {
				if err := os.Truncate(path, 7); err != nil {
					t.Fatal(err)
				}
			}
		}, "records from seq 1 are gone"},
		{"compacted-base-deleted-too-early", 40, func(t *testing.T, cfg Config) {
			walDir := filepath.Join(cfg.DataDir, "wal")
			segs, _ := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
			if len(segs) < 3 {
				t.Fatalf("want >= 3 segments above the manifest, have %v", segs)
			}
			basePath := filepath.Join(walDir, "base-00000000000000ff.cwal")
			if err := os.WriteFile(basePath, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(noBoot(t), cfg); err == nil || !strings.Contains(err.Error(), "compaction was removed in this build") {
				t.Fatalf("Open beside a compacted base = %v, want the refusal naming it", err)
			}
			// What the base held goes with it: every record below the
			// active segment, manifest-covered or not.
			segs[len(segs)-1] = basePath
			for _, path := range segs {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			}
		}, "wal starts at seq"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				DataDir:      t.TempDir(),
				Fsync:        wal.SyncNever,
				SegmentBytes: 256, // rotate often so the snapshot has sealed segments to prune
				SnapshotKeep: 1,
			}
			m, err := Open(bootWith(base), cfg)
			if err != nil {
				t.Fatal(err)
			}
			submit := func(from, n int) {
				var last uint64
				for i := from; i < from+n; i++ {
					if last, _, err = m.Submit(testUpdate(i)); err != nil {
						t.Fatal(err)
					}
				}
				waitUntil(t, "updates applied", func() bool { return m.AppliedSeq() >= last })
			}
			submit(0, 40)
			if _, err := m.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if tc.tail > 0 {
				submit(40, tc.tail)
				m.Abort()
			} else if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, cfg)

			_, err = Open(func() (*core.Model, error) {
				t.Error("bootstrap called although acknowledged ratings are gone from the WAL")
				return base, nil
			}, cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want a refusal saying %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotStats exercises the accessor the server wires into /stats:
// SnapshotStats reflects the last written manifest's shard split.
func TestSnapshotStats(t *testing.T) {
	base := newBaseModel(t)
	m, err := Open(bootWith(base), Config{
		DataDir:      t.TempDir(),
		Fsync:        wal.SyncNever,
		SegmentBytes: 512,
		SnapshotKeep: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var last uint64
	for i := 0; i < 40; i++ {
		seq, _, err := m.Submit(core.RatingUpdate{User: 3, Item: i % 50, Value: float64(i%5) + 1})
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	waitUntil(t, "updates applied", func() bool { return m.AppliedSeq() >= last })
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Second snapshot after dirtying one user: only that user's shard
	// rewrites, and SnapshotStats reports the split.
	seq, _, err := m.Submit(core.RatingUpdate{User: 3, Item: 1, Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "update applied", func() bool { return m.AppliedSeq() >= seq })
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	numShards := len(m.Sharded().ShardStats())
	if info.ShardsWritten != 1 || info.ShardsClean != numShards-1 {
		t.Fatalf("incremental snapshot wrote %d shards (%d clean), want 1 (%d clean): %+v",
			info.ShardsWritten, info.ShardsClean, numShards-1, info)
	}
	if got := m.SnapshotStats(); got.Path != info.Path || got.ShardsWritten != 1 {
		t.Fatalf("SnapshotStats = %+v, want the last snapshot %+v", got, info)
	}
}

// TestTimesFlipRewritesEveryShardAndReboots drives the first timed rating
// into an untimed data dir. It changes the wire shape of every shard blob,
// so the snapshot after it must rewrite them all (replica.commit's flip),
// not only the shard the rating dirtied; a reboot from that manifest, and
// one that has to patch a shard forward from a pre-flip blob (untimed
// rows, genuinely zero timestamps), must both give the live model back.
func TestTimesFlipRewritesEveryShardAndReboots(t *testing.T) {
	timed := newBaseModel(t)
	tm := timed.Matrix()
	b := ratings.NewBuilder(tm.NumUsers(), tm.NumItems()).SetScale(tm.MinRating(), tm.MaxRating())
	for u := 0; u < tm.NumUsers(); u++ {
		for _, e := range tm.UserRatings(u) {
			b.MustAdd(u, int(e.Index), e.Value)
		}
	}
	base, err := core.Train(b.Build(), timed.Config())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotKeep: 2}
	m, err := Open(bootWith(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(ups ...core.RatingUpdate) {
		t.Helper()
		var last uint64
		for _, up := range ups {
			if last, _, err = m.Submit(up); err != nil {
				t.Fatal(err)
			}
		}
		waitUntil(t, "updates applied", func() bool { return m.AppliedSeq() >= last })
	}

	submit(testUpdate(1), testUpdate(2), testUpdate(3))
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if m.Model().Matrix().HasTimes() {
		t.Fatal("fixture is timed before the timed rating; the flip is not exercised")
	}
	// A re-rating of an existing cell at its own value: one shard dirty,
	// and nobody's mean — so nobody's cluster — moves.
	row := base.Matrix().UserRatings(5)
	submit(core.RatingUpdate{User: 5, Item: int(row[0].Index), Value: row[0].Value, Time: 1700000000})
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Sharded().NumShards(); info.ShardsWritten != n || info.ShardsClean != 0 {
		t.Fatalf("snapshot after the flip wrote %d shards and reused %d; want all %d rewritten", info.ShardsWritten, info.ShardsClean, n)
	}
	points, err := listDurablePoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(points[0].path)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range man.Shards {
		if ref.Seq != man.Seq {
			t.Fatalf("shard %d still references a blob of seq %d in the manifest of seq %d", ref.ID, ref.Seq, man.Seq)
		}
	}
	want, wantFP := predictions(m.Model()), fingerprint(t, m.Model())
	m.Abort()

	reopen := func(label string) *Manager {
		t.Helper()
		b, err := Open(noBoot(t), cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !b.Model().Matrix().HasTimes() {
			t.Fatalf("%s: rebooted model is untimed", label)
		}
		if got := fingerprint(t, b.Model()); got != wantFP {
			t.Fatalf("%s: fingerprint %s, live manager had %s", label, got, wantFP)
		}
		samePredictions(t, label, want, predictions(b.Model()))
		return b
	}
	reopen("reboot from the post-flip manifest").Abort()

	loaded := corruptOneRewrittenShardBlob(t, dir)
	if loaded == "" {
		t.Fatal("no post-flip shard blob has a patchable pre-flip predecessor")
	}
	p := reopen("reboot patching one shard from its pre-flip blob")
	defer p.Close()
	if got := filepath.Base(p.BootStats().SnapshotLoaded); got != loaded {
		t.Fatalf("boot loaded %q, want the corrupted-but-patchable manifest %q", got, loaded)
	}
	if n := p.reg.Counter("lifecycle_shard_blob_failures_total").Value(); n < 1 {
		t.Fatal("shard blob fallback never ran")
	}
}
