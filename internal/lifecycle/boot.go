package lifecycle

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cfsf/internal/core"
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

// retiredFormats are the recovery points earlier builds wrote in a format
// this build does not read, each with the build that migrates a data dir
// holding one: booting the dir once with it writes a model file this build
// loads (DESIGN §12). A model file of a retired version is refused by
// core.Decode itself, as core.ErrRetiredFormat.
var retiredFormats = []struct{ glob, build string }{
	{"snap-*.gob", "157aafe, then once with build " + manifestMigration},
	{"manifest-*.json", manifestMigration},
	{"shared-*.blob", manifestMigration},
	{"shard-*.blob", manifestMigration},
}

// manifestMigration is the chain of builds that migrates a data dir of
// manifests over blobs, the recovery points of the builds that wrote model
// file version 2.
var manifestMigration = strings.Join(core.MigratingBuilds(2), " and then once with build ")

// refuseRetired refuses a data dir none of whose snapshot files loaded
// when it holds a recovery point in a retired format: retired, the first
// snapshot file core refused as one, or a file retiredFormats names.
// Retraining in its place would silently forget the state that point
// holds, even while the WAL still reaches back to seq 1.
func refuseRetired(dir string, retired error) error {
	if retired != nil {
		return fmt.Errorf("lifecycle: no snapshot in %s is loadable: %w — boot the directory with that build until it writes a snapshot to migrate it, or move the file away to retrain",
			dir, retired)
	}
	for _, f := range retiredFormats {
		if found, _ := filepath.Glob(filepath.Join(dir, f.glob)); len(found) > 0 {
			return fmt.Errorf("lifecycle: no snapshot in %s is loadable and %s is in a format this build does not read: boot the directory once with build %s to migrate it, or move the file away to retrain",
				dir, found[0], f.build)
		}
	}
	return nil
}

// tailReplayable reports whether the WAL can still extend a state at
// watermark seq: the log serves a state at seq S iff its first segment
// starts at or below S+1. Boot and (through NewCursor) followers both pass
// this one gate.
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

// OldestSnapshotSeq returns the oldest retained snapshot file's watermark
// as of boot or the last snapshot. WAL GC keeps WALAvailableFrom() at or
// below it plus one.
func (m *Manager) OldestSnapshotSeq() uint64 { return m.oldestSnapSeq.Load() }

// bootModel establishes the serving model: snapshot or bootstrap, then
// WAL-tail replay grouped by the previous run's batch-commit records.
//
// Clock reads: boot duration recorded in BootStats only; replay regroups batches by journaled commit records, never by time.
//
//cfsf:init-only runs from Open before the manager is returned or the run loop starts
func (m *Manager) bootModel(bootstrap func() (*core.Model, error)) error {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil {
		return fmt.Errorf("lifecycle: list snapshots: %w", err)
	}
	// Try recovery points newest-first: a point that cannot be loaded —
	// torn by the filesystem, or of a wire version this binary rejects,
	// newer or retired — is skipped in favour of the next older one. The WAL needed to catch up from an older point is still present
	// because segments are only pruned once a *verified* snapshot covers
	// them, and only below the oldest retained one; retention prunes in step
	// with the point ladder, so the tailReplayable gate only skips points
	// orphaned by a SnapshotKeep decrease or external file surgery.
	var base *core.Model
	var retired error // the first point refused for its format's age
	for _, pt := range points {
		if err := m.tailReplayable(pt.seq); err != nil {
			m.cfg.Logf("lifecycle: snapshot %s unusable (%v); trying an older one", filepath.Base(pt.path), err)
			continue
		}
		t := time.Now()
		mod, size, lerr := loadPoint(pt)
		if lerr != nil {
			if retired == nil && errors.Is(lerr, core.ErrRetiredFormat) {
				retired = fmt.Errorf("%s: %w", pt.path, lerr)
			}
			m.reg.Counter("lifecycle_snapshot_load_failures_total").Inc()
			m.cfg.Logf("lifecycle: snapshot %s unusable (%v); trying an older one", filepath.Base(pt.path), lerr)
			continue
		}
		st := mod.Stats()
		m.cfg.Logf("lifecycle: loaded snapshot %s (%d bytes, covers seq %d) in %v, %v of it deriving what the file does not store",
			filepath.Base(pt.path), size, pt.seq, time.Since(t).Round(time.Millisecond), (st.GISDuration + st.ClusterDuration).Round(time.Millisecond))
		base = mod
		m.boot.SnapshotLoaded = pt.path
		m.boot.SnapshotSeq = pt.seq
		break
	}
	if base == nil {
		// Retraining is only a recovery when nothing acknowledged is lost
		// by it: not the state inside a snapshot this build cannot read,
		// and not ratings the WAL no longer holds — the bootstrap model
		// stands at watermark 0 and passes the same gate as any point.
		if err := refuseRetired(snapshotDir(m.cfg.DataDir), retired); err != nil {
			return err
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
	// Ratings past the final commit were journaled but possibly never
	// applied; they form one final batch.
	m.rep.reset(base, m.boot.SnapshotSeq)
	fromFile := m.boot.SnapshotLoaded != ""
	if fromFile {
		// Boot is single-threaded, but Snapshot reads this under snapMu,
		// so publish it the same way.
		m.snapMu.Lock()
		m.snapped = m.rep.state.Load()
		m.snapMu.Unlock()
	}
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

	// Re-anchor durability: after any replay, or a first boot with no
	// snapshot at all, write a snapshot file so the next
	// boot starts from a clean point — and so recovery no longer depends on
	// the bootstrap function reproducing the base model exactly.
	if m.boot.ReplayedRecords > 0 || !fromFile {
		if _, err := m.Snapshot(); err != nil {
			return fmt.Errorf("lifecycle: boot snapshot: %w", err)
		}
	}
	return nil
}

// loadPoint loads the model a snapshot file holds and returns the file's
// size. The watermark recorded inside must be the one the name claims.
func loadPoint(pt durablePoint) (*core.Model, int64, error) {
	data, err := os.ReadFile(pt.path)
	if err != nil {
		return nil, 0, err
	}
	file, err := core.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	if file.Seq != pt.seq {
		return nil, 0, fmt.Errorf("snapshot %s covers seq %d, name says %d", filepath.Base(pt.path), file.Seq, pt.seq)
	}
	mod, err := file.Model()
	return mod, int64(len(data)), err
}
