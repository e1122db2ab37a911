package lifecycle

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
	"cfsf/internal/wal"
)

// BootStats reports what Open did to reach the serving model.
type BootStats struct {
	// SnapshotLoaded is the snapshot file the boot started from ("" when
	// the bootstrap function trained the base model).
	SnapshotLoaded string
	// SnapshotSeq is the rating sequence that snapshot covered.
	SnapshotSeq uint64
	// ReplayedRecords is how many WAL ratings were folded in on top.
	ReplayedRecords int
	// ReplayedBatches is how many applies the replay took (grouped by
	// the batch-commit records of the previous run).
	ReplayedBatches int
	// TornBytes is the size of the torn WAL tail dropped, if any.
	TornBytes int64
}

// BootStats reports how the serving model was reconstructed at Open.
func (m *Manager) BootStats() BootStats { return m.boot }

// legacySnapshotGlob matches the monolithic snapshots that builds before
// the manifest format wrote; PR 12 was the last build that migrated one.
const legacySnapshotGlob = "snap-*.gob"

// tailReplayable reports whether the WAL can still extend a state at
// watermark seq: the log serves a state at seq S iff its first segment
// starts at or below S+1. Boot, shard patching and (through NewCursor)
// followers all pass this one gate.
func (m *Manager) tailReplayable(seq uint64) error {
	if av := m.w.AvailableFrom(); av > seq+1 {
		return fmt.Errorf("wal starts at seq %d, records from seq %d are gone", av, seq+1)
	}
	return nil
}

// WALStats exposes the journal's current shape (segment count, last
// sequence, torn bytes dropped at open).
func (m *Manager) WALStats() wal.OpenStats { return m.w.Stats() }

// NewWALCursor returns a streaming cursor over the manager's WAL
// delivering every record with sequence > afterSeq; it fails with
// wal.ErrRebootstrap when the log no longer holds that position (the
// replication leader maps it to the re-bootstrap signal).
func (m *Manager) NewWALCursor(afterSeq uint64) (*wal.Cursor, error) {
	return m.w.NewCursor(afterSeq)
}

// WALAppendSignal exposes the WAL's append notification for tail
// followers: the channel is closed by the next append, and the returned
// sequence is the log end at the time of the call.
func (m *Manager) WALAppendSignal() (<-chan struct{}, uint64) { return m.w.AppendSignal() }

// WALAvailableFrom exposes the WAL's contiguous-stream floor (the 410
// payload tells a behind follower where serveability starts).
func (m *Manager) WALAvailableFrom() uint64 { return m.w.AvailableFrom() }

// OldestSnapshotSeq returns the oldest retained manifest's watermark as
// of boot or the last snapshot. WAL GC keeps WALAvailableFrom() at or
// below it plus one.
func (m *Manager) OldestSnapshotSeq() uint64 { return m.oldestSnapSeq.Load() }

// bootModel establishes the serving model: snapshot or bootstrap, then
// WAL-tail replay grouped by the previous run's batch-commit records.
//
//cfsf:wallclock-ok boot duration recorded in BootStats only; replay regroups batches by journaled commit records, never by time
//cfsf:init-only runs from Open before the manager is returned or the run loop starts
func (m *Manager) bootModel(bootstrap func() (*core.Model, error)) error {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("lifecycle: list snapshots: %w", err)
	}
	// Try recovery points newest-first: a manifest that cannot be loaded —
	// torn by the filesystem, or written by a newer build whose wire
	// version this binary rejects — is skipped in favour of the next older
	// one. The WAL needed to catch up from an older point is still present
	// because segments are only pruned once a *verified* snapshot covers
	// them, and only below the oldest retained one; retention prunes in step
	// with the point ladder, so the tailReplayable gate only skips points
	// orphaned by a SnapshotKeep decrease or external file surgery.
	var base *core.Model
	var bootPatched []int
	for _, pt := range points {
		if err := m.tailReplayable(pt.seq); err != nil {
			m.cfg.Logf("lifecycle: snapshot %s unusable (%v); trying an older one", filepath.Base(pt.path), err)
			continue
		}
		t := time.Now()
		mod, man, patched, lerr := m.loadManifestPoint(pt)
		if lerr != nil {
			m.reg.Counter("lifecycle_snapshot_load_failures_total").Inc()
			m.cfg.Logf("lifecycle: snapshot %s unusable (%v); trying an older one", filepath.Base(pt.path), lerr)
			continue
		}
		m.cfg.Logf("lifecycle: loaded snapshot %s (covers seq %d) in %v",
			filepath.Base(pt.path), pt.seq, time.Since(t).Round(time.Millisecond))
		base, bootPatched = mod, patched
		// Boot is single-threaded, but the boot-time Snapshot below reads
		// this under snapMu, so publish it the same way.
		m.snapMu.Lock()
		m.lastManifest = man
		m.snapMu.Unlock()
		m.boot.SnapshotLoaded = pt.path
		m.boot.SnapshotSeq = pt.seq
		break
	}
	if base == nil {
		// Retraining is only a recovery when nothing acknowledged is lost
		// by it: not the state inside a snapshot this build cannot read,
		// and not ratings the WAL no longer holds — the bootstrap model
		// stands at watermark 0 and passes the same gate as any point.
		dir := snapshotDir(m.cfg.DataDir)
		if legacy, _ := filepath.Glob(filepath.Join(dir, legacySnapshotGlob)); len(legacy) > 0 {
			return fmt.Errorf("lifecycle: %s is a legacy monolithic snapshot and no manifest in %s is loadable: this build reads manifests only — boot the directory once with a build up to PR 12 to migrate it, or move the file away to retrain",
				legacy[0], dir)
		}
		if err := m.tailReplayable(0); err != nil {
			return fmt.Errorf("lifecycle: no loadable snapshot in %s and the bootstrap model cannot stand in for one: %v — retraining would silently drop acknowledged ratings",
				m.cfg.DataDir, err)
		}
		if bootstrap == nil {
			return fmt.Errorf("lifecycle: no loadable snapshot in %s and no bootstrap function", m.cfg.DataDir)
		}
		base, err = bootstrap()
		if err != nil {
			return fmt.Errorf("lifecycle: bootstrap model: %w", err)
		}
	}

	// Replay the tail through the same replica the live process runs:
	// ratings queue, each journaled commit cuts and applies exactly the
	// batch the previous process applied, each journaled retrain re-runs.
	// A patched shard's manifest ref points at the unusable blob, so it
	// starts out dirty and the boot snapshot below rewrites it. Ratings
	// past the final commit were journaled but possibly never applied;
	// they form one final batch.
	m.rep.reset(base, m.boot.SnapshotSeq, bootPatched)
	err = m.w.Replay(m.boot.SnapshotSeq, func(rec wal.Record) error {
		queued, applied, err := m.rep.feed(rec)
		m.boot.ReplayedRecords += queued
		if applied > 0 {
			m.boot.ReplayedBatches++
		}
		return err
	})
	if err != nil {
		return err
	}
	if len(m.rep.commit(^uint64(0))) > 0 {
		m.boot.ReplayedBatches++
	}

	// Re-anchor durability: after any replay, a boot from a shard-patched
	// snapshot, or a first boot with no snapshot at all, write a snapshot
	// so the next boot starts from a clean point — and so recovery no
	// longer depends on the bootstrap function reproducing the base model
	// exactly.
	if m.boot.ReplayedRecords > 0 || m.boot.SnapshotLoaded == "" || len(bootPatched) > 0 {
		if _, err := m.Snapshot(); err != nil {
			return fmt.Errorf("lifecycle: boot snapshot: %w", err)
		}
	}
	return nil
}

// loadManifestPoint reassembles the model a local manifest describes,
// patching an unusable shard blob from an older manifest's blob plus the
// WAL (see fallbackShardRows). An unrecoverable shard fails the whole
// point and the boot ladder moves to an older one.
func (m *Manager) loadManifestPoint(pt durablePoint) (mod *core.Model, man *manifest, patched []int, err error) {
	man, err = readManifest(pt.path)
	if err != nil {
		return nil, nil, nil, err
	}
	if man.Seq != pt.seq {
		return nil, nil, nil, fmt.Errorf("manifest %s covers seq %d, name says %d", filepath.Base(pt.path), man.Seq, pt.seq)
	}
	mod, patched, err = assembleManifest(man, dirBlobs(snapshotDir(m.cfg.DataDir)), m.fallbackShardRows)
	if err != nil {
		return nil, nil, nil, err
	}
	return mod, man, patched, nil
}

// fallbackShardRows recovers one shard's rows when its manifest blob is
// lost: an older retained manifest's blob for the same shard is loaded
// and patched forward through the WAL to the manifest's watermark. The
// patch is refused — failing the whole point — when the WAL no longer
// holds the records above the older blob's sequence (see tailReplayable).
func (m *Manager) fallbackShardRows(man *manifest, ref shardBlobRef, sp *core.SharedPart, rows [][]ratings.Entry, times [][]int64, cause error) error {
	m.reg.Counter("lifecycle_shard_blob_failures_total").Inc()
	m.cfg.Logf("lifecycle: shard blob %s unusable (%v); patching shard %d from an older blob", ref.File, cause, ref.ID)
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return err
	}
	members := sp.Members(ref.ID)
	blobs := dirBlobs(snapshotDir(m.cfg.DataDir))
	var lastErr error = fmt.Errorf("no older manifest holds a usable blob for shard %d", ref.ID)
	for _, pt := range points {
		if pt.seq >= man.Seq {
			continue
		}
		old, oerr := readManifest(pt.path)
		if oerr != nil || ref.ID >= len(old.Shards) {
			continue
		}
		oldRef := old.Shards[ref.ID]
		if oldRef.File == ref.File {
			continue // the same (bad) blob, re-referenced
		}
		if err := m.tailReplayable(oldRef.Seq); err != nil {
			lastErr = err
			continue
		}
		part, perr := blobs.shard(oldRef.File)
		if perr != nil {
			lastErr = perr
			continue
		}
		if part.Shard != ref.ID || (part.Times != nil && !sp.HasTimes) {
			continue
		}
		// Every current member must either appear in the old blob or be a
		// user created after it was written (whose whole row is in the
		// WAL). A member missing for any other reason lived in a different
		// shard back then — its old rows are in a blob we are not reading.
		inBlob := make(map[int]int, len(part.Users))
		for j, u := range part.Users {
			inBlob[u] = j
		}
		compatible := true
		for _, u := range members {
			if _, ok := inBlob[u]; !ok && u < part.NumUsersAtWrite {
				compatible = false
				break
			}
		}
		if !compatible {
			lastErr = fmt.Errorf("blob %s predates a membership change it cannot express", oldRef.File)
			continue
		}
		baseRows := make(map[int][]ratings.Entry, len(members))
		baseTimes := make(map[int][]int64, len(members))
		for _, u := range members {
			j, ok := inBlob[u]
			if !ok {
				continue
			}
			baseRows[u] = part.Rows[j]
			if sp.HasTimes {
				if part.Times != nil {
					baseTimes[u] = part.Times[j]
				} else {
					// Pre-flip blob: its entries were journaled untimed, so
					// their timestamps are genuinely zero.
					baseTimes[u] = make([]int64, len(part.Rows[j]))
				}
			}
		}
		if err := m.patchRows(members, baseRows, baseTimes, oldRef.Seq, man.Seq, sp.HasTimes, rows, times); err != nil {
			lastErr = err
			continue
		}
		m.cfg.Logf("lifecycle: patched shard %d from %s (seq %d) forward to seq %d",
			ref.ID, oldRef.File, oldRef.Seq, man.Seq)
		return nil
	}
	return lastErr
}

// patchRows replays the WAL from fromSeq, restricted to the given users,
// on top of their base rows, and writes the resulting rows (item
// ascending, timestamps aligned) into rows/times at throughSeq. Ratings
// are grouped by the journaled batch-commit records exactly as full
// replay groups them, and a per-shard commit is refused as it is there.
func (m *Manager) patchRows(members []int, baseRows map[int][]ratings.Entry, baseTimes map[int][]int64, fromSeq, throughSeq uint64, hasTimes bool, rows [][]ratings.Entry, times [][]int64) error {
	type cellVal struct {
		v float64
		t int64
	}
	cells := make(map[int]map[int32]cellVal, len(members))
	memberSet := make(map[int]bool, len(members))
	for _, u := range members {
		memberSet[u] = true
		row := make(map[int32]cellVal, len(baseRows[u]))
		for k, e := range baseRows[u] {
			cv := cellVal{v: e.Value}
			if hasTimes {
				cv.t = baseTimes[u][k]
			}
			row[e.Index] = cv
		}
		cells[u] = row
	}
	q := newCommitQueue(fromSeq)
	apply := func(covered uint64) {
		for _, u := range q.cut(covered) {
			cells[u.User][int32(u.Item)] = cellVal{v: u.Value, t: u.Time}
		}
	}
	err := m.w.Replay(fromSeq, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecordRating:
			if rec.Seq <= throughSeq && memberSet[rec.Update.User] {
				q.push(rec.Seq, rec.Update)
			}
		case wal.RecordBatchCommit:
			if err := q.refuseShardCommit(rec); err != nil {
				return err
			}
			apply(rec.Covered)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Ratings at or below the manifest's watermark were all applied before
	// it was written; any left uncommitted in the log fold in sequence
	// order, exactly as boot replay's trailing batch does.
	apply(throughSeq)

	for _, u := range members {
		row := cells[u]
		items := make([]int32, 0, len(row))
		for it := range row {
			items = append(items, it)
		}
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		out := make([]ratings.Entry, len(items))
		var ts []int64
		if hasTimes {
			ts = make([]int64, len(items))
		}
		for k, it := range items {
			cv := row[it]
			out[k] = ratings.Entry{Index: it, Value: cv.v}
			if hasTimes {
				ts[k] = cv.t
			}
		}
		rows[u] = out
		if hasTimes {
			times[u] = ts
		}
	}
	return nil
}
