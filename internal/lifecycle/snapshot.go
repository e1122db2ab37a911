package lifecycle

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cfsf/internal/atomicfile"
)

// SnapshotInfo describes one completed snapshot.
type SnapshotInfo struct {
	Path       string        `json:"path"`
	CoveredSeq uint64        `json:"covered_seq"`
	Bytes      int64         `json:"bytes"`
	Duration   time.Duration `json:"-"`
	DurationMS float64       `json:"duration_ms"`
	// Skipped is true when nothing changed since the last snapshot and
	// no file was written.
	Skipped bool `json:"skipped,omitempty"`
}

// snapshotState is what the snapshot and retention code keeps between
// passes.
type snapshotState struct {
	snapMu sync.Mutex // serialises snapshot writes and retention
	// snapped is the serving state the newest snapshot file holds: the
	// one the last snapshot wrote, or the one boot loaded. Every apply and
	// every retrain publishes a new state, so while the serving state is
	// still snapped a snapshot has nothing to write.
	snapped  *replicaState //cfsf:guarded-by snapMu
	lastSnap atomic.Pointer[SnapshotInfo]
	// oldestSnapSeq is oldestRetainedSeq as of boot or the last snapshot:
	// the sequence WAL GC last pruned below.
	oldestSnapSeq atomic.Uint64
}

func snapshotDir(dataDir string) string { return filepath.Join(dataDir, "snapshots") }

const (
	snapshotPrefix = "model-"
	snapshotSuffix = ".cfsf"
)

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", snapshotPrefix, seq, snapshotSuffix)
}

// snapshotPath is where the snapshot file at watermark seq lives.
func (m *Manager) snapshotPath(seq uint64) string {
	return filepath.Join(snapshotDir(m.cfg.DataDir), snapshotName(seq))
}

// snapshotSeq parses the watermark out of a snapshot file's name,
// model-<seq:016x>.cfsf.
func snapshotSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
		return 0, false
	}
	var s uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix), "%016x", &s); err != nil {
		return 0, false
	}
	return s, true
}

// durablePoint is one recovery start in the snapshots directory: a
// snapshot file and the watermark its name claims.
type durablePoint struct {
	path string
	seq  uint64
}

// listDurablePoints returns every snapshot file, newest first.
func listDurablePoints(dataDir string) ([]durablePoint, error) {
	entries, err := os.ReadDir(snapshotDir(dataDir))
	if err != nil {
		return nil, err
	}
	var points []durablePoint
	for _, e := range entries {
		if s, ok := snapshotSeq(e.Name()); ok && !e.IsDir() {
			points = append(points, durablePoint{path: filepath.Join(snapshotDir(dataDir), e.Name()), seq: s})
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].seq > points[j].seq })
	return points, nil
}

// Snapshot persists the serving model as one snapshot file,
// model-<seq>.cfsf, written with core.Model.SaveAt at the applied
// watermark. Before the file's rename publishes it, it is read back and
// held against the serving model (verifySnapshot): a file that does not
// reproduce it bit-for-bit is never published and never shrinks the WAL.
// Then retention keeps the SnapshotKeep newest files, and the WAL
// segments below the oldest retained file go.
// When nothing was applied since the last snapshot it returns Skipped
// without touching disk; a non-empty queue never skips it, because the
// served model is always a contiguous prefix of the log.
//
// Clock reads: snapshot duration feeds the snapshot_ms histogram only.
func (m *Manager) Snapshot() (SnapshotInfo, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	st := m.rep.state.Load()
	path := m.snapshotPath(st.seq)
	if st == m.snapped {
		return SnapshotInfo{Path: path, CoveredSeq: st.seq, Skipped: true}, nil
	}
	t := time.Now()
	var size int64
	var checkErr error
	err := atomicfile.WriteToAndSync(path, 0o644, func(f *os.File) error {
		if err := st.model.SaveAt(f, st.seq); err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		size = fi.Size()
		checkErr = verifySnapshot(f.Name(), st.seq, st.model)
		return checkErr
	})
	if checkErr != nil {
		m.reg.Counter("lifecycle_snapshot_verify_failures_total").Inc()
		return SnapshotInfo{}, fmt.Errorf("lifecycle: snapshot at seq %d failed self-check: %w", st.seq, checkErr)
	}
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("lifecycle: write snapshot: %w", err)
	}
	m.reg.Counter("lifecycle_snapshots_verified_total").Inc()
	m.snapped = st

	m.pruneSnapshots()
	// Shrink the WAL below the oldest retained file, not below this one:
	// older files must keep their tail replay until retention drops them.
	oldest := m.oldestRetainedSeq()
	m.oldestSnapSeq.Store(oldest)
	if n, err := m.w.Prune(oldest); err != nil {
		m.cfg.Logf("lifecycle: prune wal: %v", err)
	} else if n > 0 {
		m.reg.Counter("wal_segments_pruned_total").Add(int64(n))
	}

	info := SnapshotInfo{Path: path, CoveredSeq: st.seq, Bytes: size, Duration: time.Since(t)}
	info.DurationMS = durMS(info.Duration)
	m.lastSnap.Store(&info)
	m.mSnapshots.Inc()
	m.mSnapLat.Observe(durMS(info.Duration))
	m.reg.Gauge("lifecycle_snapshot_seq").Set(float64(st.seq))
	m.cfg.Logf("lifecycle: snapshot %s (%d bytes, covers seq %d) in %v",
		filepath.Base(path), size, st.seq, info.Duration.Round(time.Millisecond))
	return info, nil
}

// SnapshotStats returns what the most recent non-skipped snapshot wrote
// (zero value before the first one this run).
func (m *Manager) SnapshotStats() SnapshotInfo {
	if p := m.lastSnap.Load(); p != nil {
		return *p
	}
	return SnapshotInfo{}
}

// pruneSnapshots keeps the SnapshotKeep newest snapshot files at or below
// the newest one's watermark and deletes the older ones. A file above the
// newest one's watermark is one the boot ladder could not use; it is left
// in place and counts for nothing.
//
//cfsf:locked snapMu callers hold it; retention must not race a snapshot write
func (m *Manager) pruneSnapshots() {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return
	}
	kept := 0
	for _, pt := range points {
		if pt.seq > m.snapped.seq {
			continue
		}
		if kept < m.cfg.SnapshotKeep {
			kept++
			continue
		}
		if err := os.Remove(pt.path); err == nil {
			m.cfg.Logf("lifecycle: pruned snapshot %s", filepath.Base(pt.path))
		}
	}
}

// oldestRetainedSeq returns the watermark of the oldest snapshot file at
// or below the newest one — the floor of WAL GC: segments at or below it
// serve no retained point's tail replay.
//
//cfsf:locked snapMu callers hold it; must see a settled file set
func (m *Manager) oldestRetainedSeq() uint64 {
	oldest := m.snapped.seq
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return oldest
	}
	for _, pt := range points {
		oldest = min(oldest, pt.seq)
	}
	return oldest
}

// OpenSnapshot opens the newest snapshot file: the one the last snapshot
// wrote, or boot loaded. The handle reads the whole file even if
// retention deletes it meanwhile.
func (m *Manager) OpenSnapshot() (*os.File, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return os.Open(m.snapshotPath(m.snapped.seq))
}

// NewestSnapshotSeq returns the watermark of the file OpenSnapshot opens.
func (m *Manager) NewestSnapshotSeq() uint64 {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	return m.snapped.seq
}
