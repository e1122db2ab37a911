package lifecycle

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/synth"
	"cfsf/internal/wal"
)

// BenchmarkRecoveryFlat measures recovery-to-ready (a full lifecycle.Open:
// snapshot file + WAL-tail replay) and the WAL's size on disk against
// write histories of growing length. Snapshots plus pruning promise both
// bounded by model size plus the unsnapshotted tail, NOT by how much
// history was ever written: 16x the write traffic leaves one snapshot
// file and the same few segments above it. The ratio sub-benchmark
// reports recover-ms and wal-bytes at 16x over 1x; CI gates both at 1.5
// (they must stay flat).
func BenchmarkRecoveryFlat(b *testing.B) {
	base := newBaseModel(b)
	recoverMS := map[int]float64{}
	walBytes := map[int]float64{}
	for _, mult := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("history-%dx", mult), func(b *testing.B) {
			dir := prepareHistory(b, base, mult, nil)
			walBytes[mult] = float64(dirBytes(b, filepath.Join(dir, "wal")))
			best := 0.0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Boot mutates the data dir (boot snapshot, prune), so
				// each recovery runs on a fresh copy; take
				// the best of a few reps to shave scheduler noise off the
				// gated ratio.
				const reps = 3
				for r := 0; r < reps; r++ {
					b.StopTimer()
					work := copyDir(b, dir)
					b.StartTimer()
					t0 := time.Now()
					m, err := Open(benchNoBoot(b), Config{
						DataDir:      work,
						Fsync:        wal.SyncNever,
						SnapshotKeep: 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					ms := time.Since(t0).Seconds() * 1000
					if best == 0 || ms < best {
						best = ms
					}
					b.StopTimer()
					if err := m.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
			recoverMS[mult] = best
			b.ReportMetric(best, "recover-ms")
			b.ReportMetric(walBytes[mult], "wal-bytes")
		})
	}
	b.Run("ratio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
		if recoverMS[1] <= 0 || recoverMS[16] <= 0 {
			b.Fatalf("missing recovery timings (1x=%v, 16x=%v); run the full BenchmarkRecoveryFlat tree", recoverMS[1], recoverMS[16])
		}
		b.ReportMetric(recoverMS[16]/recoverMS[1], "ratio-16x-1x")
		b.ReportMetric(walBytes[16]/walBytes[1], "wal-bytes-16x-1x")
	})
}

// prepareHistory drives mult x 600 updates through a manager with
// aggressive segment rotation and periodic snapshots (so segments actually
// get pruned), then appends a constant-size unsnapshotted tail and aborts —
// every scale leaves the same replay work, and any recovery-time growth
// comes from history-proportional state. afterSnapshot, when non-nil, runs
// after every snapshot.
func prepareHistory(b testing.TB, base *core.Model, mult int, afterSnapshot func(m *Manager)) string {
	b.Helper()
	dir := b.TempDir()
	m, err := Open(bootWith(base), Config{
		DataDir:      dir,
		Fsync:        wal.SyncNever,
		SegmentBytes: 4096,
		SnapshotKeep: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	snapshot := func() {
		if _, err := m.Snapshot(); err != nil {
			b.Fatal(err)
		}
		if afterSnapshot != nil {
			afterSnapshot(m)
		}
	}
	const perUnit = 600
	n := mult * perUnit
	var last uint64
	for i := 0; i < n; i++ {
		seq, _, err := m.Submit(testUpdate(i))
		if err != nil {
			b.Fatal(err)
		}
		last = seq
		if (i+1)%(perUnit/2) == 0 {
			benchWaitApplied(b, m, last)
			snapshot()
		}
	}
	benchWaitApplied(b, m, last)
	snapshot()
	const tail = 64
	for i := 0; i < tail; i++ {
		if _, _, err := m.Submit(testUpdate(n + i)); err != nil {
			b.Fatal(err)
		}
	}
	// Abort, not Close: Close would snapshot the tail away and recovery
	// would replay nothing.
	m.Abort()
	return dir
}

func benchWaitApplied(b testing.TB, m *Manager, seq uint64) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for m.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			b.Fatalf("timed out waiting for seq %d (applied %d)", seq, m.AppliedSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(b testing.TB, dir string) int64 {
	b.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		if fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}

func benchNoBoot(b *testing.B) func() (*core.Model, error) {
	return func() (*core.Model, error) {
		b.Fatal("bootstrap called although a recovery point exists")
		return nil, nil
	}
}

// copyDir copies a data dir so each boot of it starts from the same
// bytes.
func copyDir(b testing.TB, src string) string {
	b.Helper()
	dst := b.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		o, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := io.Copy(o, in); err != nil {
			_ = o.Close()
			return err
		}
		return o.Close()
	})
	if err != nil {
		b.Fatal(err)
	}
	return dst
}

// BenchmarkBootLedger is what a first boot pays after training: one
// lifecycle.Open on an empty data dir with the model bench/ serves
// (500×1000 synth.DefaultConfig, C = 30) at the server's defaults, fsync
// included — open the WAL, write and self-check the boot snapshot, start
// the run loop. snapshot-ms is that snapshot's share of ns/op;
// snapshot-bytes is what it wrote and snapshot-files the files it left in
// the snapshots directory. Both repeat exactly, and CI fences both
// (ci.yml).
func BenchmarkBootLedger(b *testing.B) {
	d := synth.MustGenerate(synth.DefaultConfig())
	mod, err := core.Train(d.Matrix, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var snap SnapshotInfo
	var snapMS float64
	files := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		m, err := Open(bootWith(mod), Config{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		snap = m.SnapshotStats()
		snapMS += snap.DurationMS
		m.Abort()
		entries, err := os.ReadDir(snapshotDir(dir))
		if err != nil {
			b.Fatal(err)
		}
		files = len(entries)
		b.StartTimer()
	}
	b.ReportMetric(snapMS/float64(b.N), "snapshot-ms")
	b.ReportMetric(float64(snap.Bytes), "snapshot-bytes")
	b.ReportMetric(float64(files), "snapshot-files")
}

// BenchmarkLoadLedger is what a boot, or a follower's bootstrap, pays to
// turn the ledger fixture's first-boot snapshot back into a model: the
// file decoded from memory (core.Decode) and the model rebuilt from it
// (File.Model), deriving on the way what the file does not store — every
// GIS weight from the matrix, every list's order from its weights, and
// the clustering's centroids and member lists from its assignment.
// derive-ms is the derivation's share of ns/op: the loaded model's
// TrainStats.GISDuration (weights and order) plus ClusterDuration.
func BenchmarkLoadLedger(b *testing.B) {
	d := synth.MustGenerate(synth.DefaultConfig())
	mod, err := core.Train(d.Matrix, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	m, err := Open(bootWith(mod), Config{DataDir: dir, Fsync: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(m.SnapshotStats().Path)
	if err != nil {
		b.Fatal(err)
	}
	m.Abort()
	var deriveMS float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file, err := core.Decode(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		got, err := file.Model()
		if err != nil {
			b.Fatal(err)
		}
		st := got.Stats()
		deriveMS += (st.GISDuration + st.ClusterDuration).Seconds() * 1000
	}
	b.ReportMetric(deriveMS/float64(b.N), "derive-ms")
}
