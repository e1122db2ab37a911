package lifecycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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

// TestKillRebootParityMatrix: randomized apply streams, snapshotted in
// several phases, killed without shutdown and rebooted must recover
// predictions bit-for-bit — from the newest snapshot file, or, when that
// file is corrupt, from the next older one plus a longer WAL-tail replay.
func TestKillRebootParityMatrix(t *testing.T) {
	base := newBaseModel(t)
	for _, tc := range []struct {
		name    string
		corrupt bool
	}{
		{"clean", false},
		{"corrupt-newest", true},
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
		SnapshotKeep: 2,    // the corrupt row falls back to the older file
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

	points, err := listDurablePoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d snapshot files retained, want 2", len(points))
	}
	if corrupt {
		if err := os.Truncate(points[0].path, 7); err != nil {
			t.Fatal(err)
		}
	}

	b, err := Open(noBoot(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	wantLoaded := points[0].path
	if corrupt {
		wantLoaded = points[1].path
		if n := b.reg.Counter("lifecycle_snapshot_load_failures_total").Value(); n != 1 {
			t.Fatalf("load failures = %d, want 1 (the corrupt newest file)", n)
		}
	}
	if got := b.BootStats().SnapshotLoaded; got != wantLoaded {
		t.Fatalf("boot loaded %q, want %q", got, wantLoaded)
	}
	samePredictions(t, "recovered vs pre-kill", want, predictions(b.Model()))
	return true
}

// TestSnapshotFaultsFallBackOrRefuse enumerates the faults of the newest
// snapshot file: at every offset of its header and at every 4 KiB of it,
// a cut there and one flipped bit there. Each boot must either reach the
// older point and, through the WAL, the fingerprint the run had before
// its kill — or refuse, naming the file.
func TestSnapshotFaultsFallBackOrRefuse(t *testing.T) {
	base := newBaseModel(t)
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever, SnapshotKeep: 2}
	m, err := Open(bootWith(base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(from, n int) {
		for i := from; i < from+n; i++ {
			seq, _, err := m.Submit(testUpdate(i))
			if err != nil {
				t.Fatal(err)
			}
			waitUntil(t, "update applied", func() bool { return m.AppliedSeq() >= seq })
		}
	}
	submit(0, 6)
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	submit(6, 6)
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	submit(12, 3)
	want := fingerprint(t, m.Model())
	m.Abort()
	points, err := listDurablePoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest, older := points[0].path, points[1].path
	good, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}

	const headerSize = 8 + 1 + 8 + 4 // magic, kind, length, CRC32
	var offsets []int
	for at := 0; at < headerSize; at++ {
		offsets = append(offsets, at)
	}
	for at := 4096; at < len(good); at += 4096 {
		offsets = append(offsets, at)
	}
	fellBack := 0
	for _, at := range offsets {
		for _, fault := range []string{"cut", "flip"} {
			bad := good[:at]
			if fault == "flip" {
				bad = append([]byte(nil), good...)
				bad[at] ^= 1 << (at % 8)
			}
			work := copyDir(t, dir)
			if err := os.WriteFile(filepath.Join(snapshotDir(work), filepath.Base(newest)), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			b, err := Open(noBoot(t), Config{DataDir: work, Fsync: wal.SyncNever, SnapshotKeep: 2})
			if err != nil {
				if !strings.Contains(err.Error(), filepath.Base(newest)) {
					t.Fatalf("%s at %d: boot refused without naming %s: %v", fault, at, filepath.Base(newest), err)
				}
				continue
			}
			loaded, got := b.BootStats().SnapshotLoaded, fingerprint(t, b.Model())
			b.Abort()
			if filepath.Base(loaded) != filepath.Base(older) || got != want {
				t.Fatalf("%s at %d: boot loaded %s with fingerprint %s, want %s with %s",
					fault, at, filepath.Base(loaded), got, filepath.Base(older), want)
			}
			fellBack++
		}
	}
	t.Logf("%d faults over %d offsets of a %d-byte file: %d fell back to %s", 2*len(offsets), len(offsets), len(good), fellBack, filepath.Base(older))
}

// legacyGrid is the sha256 over the big-endian bits of every
// Predict(u, i), user-major, of the model the run which wrote the source
// of testdata/v5-f163a25 held when it was killed: the base model of
// newBaseModel, 25 ratings (testUpdate 0–24) applied one at a time, a
// snapshot after the 12th and the 20th, the last five in the WAL only.
// Builds 8cb6e8a, 773b6e0 and ddea235 served it from the same run,
// b42e5f3 re-saved its snapshot files as version 3, ac5d191 loaded those
// and saved them again as version 4, and f163a25, the last to write model
// file version 5, did the same with those. Those builds summed Eq. 12 over
// each top-M prefix in item-id order and served
// 86a724fd2b30aa325ce62d72730863fb944709b7d35fd860b0b3de171f331aea; this
// is the same model's grid summed in GIS score order, no cell more than
// 1.8e-15 away.
const legacyGrid = "7cb22d7b2a8121d2779231bd118722ddfceb3073ac97598ea20b23814c346bdf"

func gridHash(mod *core.Model) string {
	h := sha256.New()
	for _, v := range predictions(mod) {
		h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// snapshotVersion is the model file version of the snapshot at seq in dir.
func snapshotVersion(t *testing.T, dir string, seq uint64) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(snapshotDir(dir), snapshotName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return f.Version
}

// TestModelFileDataDirsBootAndMigrate: the data dir f163a25 wrote —
// testdata/v5-f163a25, its recovery points model files of version 5,
// which store every GIS list as an id set beside its horizon — boots from
// the newest file, its lists selected under their horizons, replays the
// tail and serves the grid that build served. The boot snapshot is a file
// this build writes, byte for byte — version 6 — and the next boot loads
// it to the same grid.
func TestModelFileDataDirsBootAndMigrate(t *testing.T) {
	for _, fx := range []string{"v5-f163a25"} {
		t.Run(fx, func(t *testing.T) {
			dir := copyDir(t, filepath.Join("testdata", fx))
			if v := snapshotVersion(t, dir, 0x27); v != 5 {
				t.Fatalf("the fixture's newest snapshot is version %d, want 5", v)
			}
			cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
			a, err := Open(noBoot(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			bs := a.BootStats()
			if filepath.Base(bs.SnapshotLoaded) != snapshotName(0x27) || bs.ReplayedRecords != 5 || a.AppliedSeq() != 49 {
				t.Fatalf("boot loaded %s, replayed %d to seq %d; want %s, 5 records, seq 49",
					bs.SnapshotLoaded, bs.ReplayedRecords, a.AppliedSeq(), snapshotName(0x27))
			}
			if got := gridHash(a.Model()); got != legacyGrid {
				t.Fatalf("the %s dir boots to grid %s, its build served %s", fx, got, legacyGrid)
			}
			var want bytes.Buffer
			if err := a.Model().SaveAt(&want, 49); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(snapshotDir(dir), snapshotName(49)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("the boot snapshot (%d bytes) is not the file this build writes (%d bytes)", len(got), want.Len())
			}
			if v := snapshotVersion(t, dir, 49); v != 6 {
				t.Fatalf("the boot snapshot is version %d, want 6", v)
			}

			b, err := Open(noBoot(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if got := b.BootStats().SnapshotLoaded; filepath.Base(got) != snapshotName(49) {
				t.Fatalf("second boot loaded %s, want the migrated file", got)
			}
			if got := gridHash(b.Model()); got != legacyGrid {
				t.Fatalf("the migrated dir boots to grid %s, want %s", got, legacyGrid)
			}
		})
	}
}

// offScaleGrid is the gridHash of the model the run which wrote
// testdata/offscale-ddea235, the source of testdata/offscale-f163a25,
// held when it was killed: the base model of newBaseModel, testUpdate
// 0–5 and then 0.5 for (7, 3) and 7 for (12, 9) applied one at a time —
// on its 1..5 scale, which build ddea235 did not check — a snapshot, then
// testUpdate 6–9 in the WAL only. Build b42e5f3 loaded each snapshot file
// of that dir and saved it again at its watermark, as version 3, build
// ac5d191 did the same with those, as version 4, and build f163a25 with
// those, as version 5. Those builds summed Eq. 12 in item-id order and
// served 2f1b9f28dbad511ec32a4439129533e93bf9a641ca499bf59bc1e7af5844f7a0;
// this is the grid summed in GIS score order, no cell more than 8.9e-16
// away.
const offScaleGrid = "282a4aa41c5c35363708561c37f3d9ba5a36714655efd853dec92bb91be947a0"

// TestOffScaleDataDirBootsAndMigrates: a data dir whose newest snapshot, a
// version 5 file f163a25 wrote, holds values off its model's own 1..5
// scale boots from that file, replays the tail and serves the grid its
// run served. Its boot snapshot — a version 6 file holding the same
// values, read back through core.Decode before it is published — is
// written, and the next boot loads it to the same grid.
func TestOffScaleDataDirBootsAndMigrates(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "offscale-f163a25"))
	if v := snapshotVersion(t, dir, 15); v != 5 {
		t.Fatalf("the fixture's newest snapshot is version %d, want 5", v)
	}
	cfg := Config{DataDir: dir, Fsync: wal.SyncNever}
	a, err := Open(noBoot(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := a.BootStats()
	if filepath.Base(bs.SnapshotLoaded) != snapshotName(15) || bs.ReplayedRecords != 4 || a.AppliedSeq() != 23 {
		t.Fatalf("boot loaded %s, replayed %d to seq %d; want %s, 4 records, seq 23",
			bs.SnapshotLoaded, bs.ReplayedRecords, a.AppliedSeq(), snapshotName(15))
	}
	mx := a.Model().Matrix()
	if v, _ := mx.Rating(7, 3); v != 0.5 || mx.MinRating() != 1 || mx.MaxRating() != 5 {
		t.Fatalf("the loaded model rates (7, 3) %v on the scale %v..%v; want 0.5 on 1..5", v, mx.MinRating(), mx.MaxRating())
	}
	if got := gridHash(a.Model()); got != offScaleGrid {
		t.Fatalf("the dir boots to grid %s, its build served %s", got, offScaleGrid)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersion(t, dir, 23); v != 6 {
		t.Fatalf("the boot snapshot is version %d, want 6", v)
	}

	b, err := Open(noBoot(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := b.BootStats().SnapshotLoaded; filepath.Base(got) != snapshotName(23) {
		t.Fatalf("second boot loaded %s, want the migrated file", got)
	}
	if got := gridHash(b.Model()); got != offScaleGrid {
		t.Fatalf("the migrated dir boots to grid %s, want %s", got, offScaleGrid)
	}
}

// TestRetentionRuleHolds pins the one WAL retention rule on the recovery
// benchmark's history shape: after every snapshot the log starts at or
// below the oldest retained file's watermark plus one, so every retained
// file still has its tail — and nothing else pins the log: the WAL on
// disk at 16x the history is no bigger than at 1x.
func TestRetentionRuleHolds(t *testing.T) {
	base := newBaseModel(t)
	walBytes := map[int]int64{}
	for _, mult := range []int{1, 16} {
		dir := prepareHistory(t, base, mult, func(m *Manager) {
			m.snapMu.Lock()
			defer m.snapMu.Unlock()
			oldest, av := m.oldestRetainedSeq(), m.WALAvailableFrom()
			if av > oldest+1 {
				t.Fatalf("%dx: wal starts at seq %d, above the oldest retained file (seq %d) + 1", mult, av, oldest)
			}
			if got := m.OldestSnapshotSeq(); got != oldest {
				t.Fatalf("%dx: OldestSnapshotSeq = %d, retained files say %d", mult, got, oldest)
			}
			points, err := listDurablePoints(m.cfg.DataDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(points) != m.cfg.SnapshotKeep {
				t.Fatalf("%dx: %d recovery points retained, want %d", mult, len(points), m.cfg.SnapshotKeep)
			}
			for _, pt := range points {
				if err := m.tailReplayable(pt.seq); err != nil {
					t.Fatalf("%dx: retained file at seq %d lost its tail: %v", mult, pt.seq, err)
				}
			}
		})
		walBytes[mult] = dirBytes(t, filepath.Join(dir, "wal"))
	}
	if float64(walBytes[16]) > 1.5*float64(walBytes[1]) {
		t.Fatalf("wal holds %d bytes at 16x history against %d at 1x, want <= 1.5x: retention is pinned by something other than the oldest file",
			walBytes[16], walBytes[1])
	}
	t.Logf("wal bytes: 1x %d, 16x %d (ratio %.2f)", walBytes[1], walBytes[16], float64(walBytes[16])/float64(walBytes[1]))
}

// TestBootstrapRefusedWhenWALCannotReachBack: the bootstrap model stands
// at watermark 0, so falling back to it is only a recovery while the WAL
// still starts at sequence 1. Once the log starts above that and no
// snapshot can stand under it, retraining would serve a model missing
// acknowledged ratings: Open must refuse, naming where the log starts,
// and never call bootstrap. Two ways to get there: every snapshot file is
// unloadable after a snapshot pruned the log; or a compacted base left by
// an older build — refused by name while it is there — was deleted after
// a SIGKILL instead of after a clean stop, taking the ratings above the
// newest snapshot with it.
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
			files, _ := filepath.Glob(filepath.Join(snapshotDir(cfg.DataDir), snapshotPrefix+"*"))
			if len(files) == 0 {
				t.Fatal("no snapshot file to corrupt")
			}
			for _, path := range files {
				if err := os.Truncate(path, 7); err != nil {
					t.Fatal(err)
				}
			}
		}, "records from seq 1 are gone"},
		{"compacted-base-deleted-too-early", 40, func(t *testing.T, cfg Config) {
			walDir := filepath.Join(cfg.DataDir, "wal")
			segs, _ := filepath.Glob(filepath.Join(walDir, "seg-*.wal"))
			if len(segs) < 3 {
				t.Fatalf("want >= 3 segments above the snapshot, have %v", segs)
			}
			basePath := filepath.Join(walDir, "base-00000000000000ff.cwal")
			if err := os.WriteFile(basePath, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(noBoot(t), cfg); err == nil || !strings.Contains(err.Error(), "compaction was removed in this build") {
				t.Fatalf("Open beside a compacted base = %v, want the refusal naming it", err)
			}
			// What the base held goes with it: every record below the
			// active segment, snapshot-covered or not.
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
// SnapshotStats reflects the last written snapshot file.
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

	seq, _, err := m.Submit(core.RatingUpdate{User: 3, Item: 1, Value: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "update applied", func() bool { return m.AppliedSeq() >= seq })
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped || filepath.Base(info.Path) != snapshotName(seq) || info.CoveredSeq != seq || info.Bytes != fi.Size() {
		t.Fatalf("snapshot = %+v, want %s at seq %d holding %d bytes", info, snapshotName(seq), seq, fi.Size())
	}
	if got := m.SnapshotStats(); got != info {
		t.Fatalf("SnapshotStats = %+v, want the last snapshot %+v", got, info)
	}
}

// TestTimesFlipSnapshotsAndReboots drives the first timed rating into an
// untimed data dir. The snapshot after it must carry timestamps, and a
// reboot from it — and one from the untimed file before it, replaying the
// timed rating again — must both give the live model back.
func TestTimesFlipSnapshotsAndReboots(t *testing.T) {
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
	row := base.Matrix().UserRatings(5)
	submit(core.RatingUpdate{User: 5, Item: int(row[0].Index), Value: row[0].Value, Time: 1700000000})
	info, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(info.Path)
	if err != nil {
		t.Fatal(err)
	}
	file, err := core.Decode(f)
	f.Close()
	if err != nil || file.Times == nil {
		t.Fatalf("the snapshot after the flip carries no timestamps (%v)", err)
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
	reopen("reboot from the post-flip file").Abort()

	if err := os.Truncate(info.Path, 7); err != nil {
		t.Fatal(err)
	}
	p := reopen("reboot from the pre-flip file")
	defer p.Close()
	if loaded := p.BootStats().SnapshotLoaded; loaded == info.Path || p.BootStats().ReplayedRecords == 0 {
		t.Fatalf("boot loaded %s replaying %d records, want the pre-flip file and the timed rating replayed", loaded, p.BootStats().ReplayedRecords)
	}
}
