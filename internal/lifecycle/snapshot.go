package lifecycle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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
	// ShardsWritten / ShardsClean split the shard blobs into rewritten
	// and re-referenced (clean since the previous manifest, so their
	// existing verified blobs were reused); SharedWritten reports whether
	// the shared blob was rewritten.
	ShardsWritten int  `json:"shards_written"`
	ShardsClean   int  `json:"shards_clean"`
	SharedWritten bool `json:"shared_written"`
	// Skipped is true when nothing changed since the last snapshot and
	// no file was written.
	Skipped bool `json:"skipped,omitempty"`
}

// snapshotState is what the snapshot and retention code keeps between
// passes.
type snapshotState struct {
	snapMu       sync.Mutex // serialises snapshot writes and retention
	lastManifest *manifest  //cfsf:guarded-by snapMu // newest published manifest; clean shards reuse its blob refs
	// snapGen is the replicaState generation lastManifest was written at
	// (0 for one loaded at boot): its blobs hold every part not dirtied
	// since.
	snapGen  uint64 //cfsf:guarded-by snapMu
	lastSnap atomic.Pointer[SnapshotInfo]
	// oldestSnapSeq is oldestRetainedSeq as of boot or the last snapshot:
	// the sequence WAL GC last pruned below.
	oldestSnapSeq atomic.Uint64
}

func snapshotDir(dataDir string) string { return filepath.Join(dataDir, "snapshots") }

// Snapshot persists the serving model as an incremental recovery point:
// it writes a blob for every shard dirtied since the previous manifest
// (plus the shared config/GIS/clustering blob), re-references the
// previous manifest's blobs for clean shards, verifies every written
// blob with a read-back self-check, and only then publishes the manifest
// atomically, prunes retention, and deletes the WAL segments below the
// oldest retained manifest — a blob that cannot be read back bit-for-bit
// aborts the snapshot and never shrinks the WAL.
// When nothing was applied since the last snapshot it returns Skipped
// without touching disk; a non-empty queue never skips it, because the
// served model is always a contiguous prefix of the log.
//
//cfsf:wallclock-ok snapshot duration feeds the snapshot_ms histogram only
func (m *Manager) Snapshot() (SnapshotInfo, error) {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()

	st := m.rep.state.Load()
	dir := snapshotDir(m.cfg.DataDir)
	mod := st.model
	numShards := mod.Clusters().K

	// Decide what to write. A blob needs rewriting iff a swap dirtied its
	// part after the state the previous manifest was written from; with no
	// previous manifest to reuse (first manifest, shard-count change)
	// every blob does. A retrain dirties every part at an unchanged
	// watermark, and a failed snapshot leaves snapGen untouched, so
	// neither can be mistaken for clean.
	prev := m.lastManifest
	reuse := prev != nil && len(prev.Shards) == numShards
	sharedWritten := !reuse || st.gen > m.snapGen
	writeSet := make(map[int]bool, numShards)
	for s := 0; s < numShards; s++ {
		if !reuse || st.shardGen[s] > m.snapGen {
			writeSet[s] = true
		}
	}
	// No swap since the previous manifest (a dirty shard implies one) at
	// an unchanged watermark: it still describes the serving model exactly.
	if prev != nil && prev.Seq == st.seq && !sharedWritten {
		return SnapshotInfo{Path: filepath.Join(dir, manifestName(st.seq)), CoveredSeq: st.seq, Skipped: true}, nil
	}
	t := time.Now()

	man := &manifest{
		Version: manifestVersion,
		Seq:     st.seq,
		Users:   mod.Matrix().NumUsers(),
		Items:   mod.Matrix().NumItems(),
		Shards:  make([]shardBlobRef, numShards),
	}
	var written []string // blob files this snapshot created, for cleanup on failure
	var bytesWritten int64
	// sharedChecked receives the shared blob's self-check, which runs while
	// the shard blobs are written (below); nil when no shared blob is.
	var sharedChecked chan error
	fail := func(err error) (SnapshotInfo, error) {
		if sharedChecked != nil {
			<-sharedChecked
		}
		for _, name := range written {
			_ = os.Remove(filepath.Join(dir, name))
		}
		return SnapshotInfo{}, err
	}
	writeBlob := func(base string, save func(f *os.File) error) (string, error) {
		name := uniqueBlobName(dir, base)
		if err := atomicfile.WriteToAndSync(filepath.Join(dir, name), 0o644, save); err != nil {
			return "", err
		}
		written = append(written, name)
		if fi, err := os.Stat(filepath.Join(dir, name)); err == nil {
			bytesWritten += fi.Size()
		}
		return name, nil
	}

	if sharedWritten {
		name, err := writeBlob(fmt.Sprintf("%s%016x", sharedBlobPrefix, st.seq),
			func(f *os.File) error { return mod.SaveSharedBlob(f) })
		if err != nil {
			return fail(fmt.Errorf("lifecycle: write shared blob: %w", err))
		}
		man.Shared = blobRef{File: name, Seq: st.seq}
		// Its self-check reads it back and derives every GIS weight on the
		// serving matrix: CPU work, done while the shard blobs below wait
		// on their fsyncs, and joined before the manifest may name it.
		sharedChecked = make(chan error, 1)
		go func() { sharedChecked <- verifySharedBlob(dir, name, mod) }()
	} else {
		man.Shared = prev.Shared
	}
	shardsWritten := 0
	for s := 0; s < numShards; s++ {
		if !writeSet[s] {
			man.Shards[s] = prev.Shards[s]
			continue
		}
		shard := s
		name, err := writeBlob(fmt.Sprintf("%s%04d-%016x", shardBlobPrefix, s, st.seq),
			func(f *os.File) error { return mod.SaveShardBlob(f, shard) })
		if err != nil {
			return fail(fmt.Errorf("lifecycle: write shard %d blob: %w", s, err))
		}
		man.Shards[s] = shardBlobRef{ID: s, File: name, Seq: st.seq}
		shardsWritten++
	}

	// Self-check before the manifest may reference the new blobs (and so
	// before anything can shrink the WAL): read every written blob back
	// and demand it reproduce the serving model bit-for-bit. Clean
	// shards' blobs passed this check when they were first written.
	var err error
	if sharedChecked != nil {
		err = <-sharedChecked
		sharedChecked = nil
	}
	if err == nil {
		err = verifyWrittenParts(dir, man, writeSet, false, mod)
	}
	if err != nil {
		m.reg.Counter("lifecycle_snapshot_verify_failures_total").Inc()
		return fail(fmt.Errorf("lifecycle: snapshot at seq %d failed self-check: %w", st.seq, err))
	}
	m.reg.Counter("lifecycle_snapshots_verified_total").Inc()

	// Publish: the manifest rename is the commit point. Overwriting the
	// manifest at an unchanged watermark (post-retrain) is safe because
	// the rewritten blobs got fresh names — the old manifest's blob set
	// stays intact until this rename replaces it.
	manPath := filepath.Join(dir, manifestName(st.seq))
	manData, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fail(fmt.Errorf("lifecycle: encode manifest: %w", err))
	}
	if err := atomicfile.WriteAndSync(manPath, manData, 0o644); err != nil {
		return fail(fmt.Errorf("lifecycle: publish manifest: %w", err))
	}
	m.lastManifest, m.snapGen = man, st.gen

	m.pruneDurablePoints()
	// Shrink the WAL below the oldest retained point, not below this
	// snapshot: older manifests must keep their tail replay until
	// retention drops them.
	oldest := m.oldestRetainedSeq()
	m.oldestSnapSeq.Store(oldest)
	if n, err := m.w.Prune(oldest); err != nil {
		m.cfg.Logf("lifecycle: prune wal: %v", err)
	} else if n > 0 {
		m.reg.Counter("wal_segments_pruned_total").Add(int64(n))
	}

	info := SnapshotInfo{
		Path: manPath, CoveredSeq: st.seq, Bytes: bytesWritten, Duration: time.Since(t),
		ShardsWritten: shardsWritten, ShardsClean: numShards - shardsWritten, SharedWritten: sharedWritten,
	}
	info.DurationMS = durMS(info.Duration)
	m.lastSnap.Store(&info)
	m.mSnapshots.Inc()
	m.mSnapLat.Observe(durMS(info.Duration))
	m.reg.Counter("lifecycle_shard_blobs_written_total").Add(int64(shardsWritten))
	m.reg.Counter("lifecycle_shard_blobs_skipped_clean_total").Add(int64(numShards - shardsWritten))
	m.reg.Gauge("lifecycle_snapshot_seq").Set(float64(st.seq))
	m.cfg.Logf("lifecycle: snapshot %s (%d bytes, covers seq %d, %d/%d shard blobs written) in %v",
		filepath.Base(manPath), bytesWritten, st.seq, shardsWritten, numShards, info.Duration.Round(time.Millisecond))
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

// pruneDurablePoints drops recovery points beyond SnapshotKeep, then
// garbage-collects every blob file no retained manifest references. The
// order makes a crash between the two passes safe: an unreferenced blob
// that survives is re-collected by the next pass, and a referenced blob
// is never deleted before every manifest naming it is.
//
//cfsf:locked snapMu callers hold it; retention must not race a manifest write
func (m *Manager) pruneDurablePoints() {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return
	}
	if len(points) > m.cfg.SnapshotKeep {
		for _, pt := range points[m.cfg.SnapshotKeep:] {
			if err := os.Remove(pt.path); err == nil {
				m.cfg.Logf("lifecycle: pruned snapshot %s", filepath.Base(pt.path))
			}
		}
		points = points[:m.cfg.SnapshotKeep]
	}
	referenced := map[string]bool{}
	for _, pt := range points {
		man, err := readManifest(pt.path)
		if err != nil {
			continue // unreadable: keep its blobs, the ladder may still want them
		}
		referenced[man.Shared.File] = true
		for _, ref := range man.Shards {
			referenced[ref.File] = true
		}
	}
	entries, err := os.ReadDir(snapshotDir(m.cfg.DataDir))
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !isBlobName(name) || referenced[name] {
			continue
		}
		if err := os.Remove(filepath.Join(snapshotDir(m.cfg.DataDir), name)); err == nil {
			m.cfg.Logf("lifecycle: pruned unreferenced blob %s", name)
		}
	}
}

// oldestRetainedSeq returns the oldest retained manifest's watermark, the
// floor of WAL GC (zero when no manifest exists): segments at or below it
// serve no retained point's tail replay. A clean blob older than every
// manifest deliberately does NOT pin the log — patching such a blob is
// refused by the AvailableFrom gate and recovery degrades to whole-point
// fallback, instead of one cold shard growing the WAL without bound.
//
//cfsf:locked snapMu callers hold it; must see a settled manifest set
func (m *Manager) oldestRetainedSeq() uint64 {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil || len(points) == 0 {
		return 0
	}
	return points[len(points)-1].seq // listed newest first
}

// NewestManifest returns the newest loadable manifest document and the
// watermark it covers. Retention can delete a point between listing and
// reading; such a point is skipped in favour of an older one, exactly as
// the boot ladder does.
func (m *Manager) NewestManifest() (data []byte, seq uint64, err error) {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return nil, 0, err
	}
	for _, pt := range points {
		data, rerr := os.ReadFile(pt.path)
		if rerr != nil {
			continue
		}
		if _, perr := parseManifest(data, filepath.Base(pt.path)); perr != nil {
			continue
		}
		return data, pt.seq, nil
	}
	return nil, 0, fmt.Errorf("lifecycle: no loadable manifest in %s", m.cfg.DataDir)
}

// OpenSnapshotBlob opens one snapshot blob by its manifest-referenced
// name. The name must be a bare blob file name (no path separators) —
// the same validation manifests pass — so a remote caller cannot read
// outside the snapshot directory.
func (m *Manager) OpenSnapshotBlob(name string) (*os.File, error) {
	if !isBlobName(name) {
		return nil, fmt.Errorf("lifecycle: %q is not a snapshot blob name", name)
	}
	return os.Open(filepath.Join(snapshotDir(m.cfg.DataDir), name))
}
