// Incremental snapshots: instead of one monolithic model gob per
// snapshot, the model is persisted as independently loadable blobs — one
// shared blob (config, GIS, clustering) plus one blob per shard holding
// that shard's matrix rows — tied together by a small JSON manifest. The
// manifest is the commit point: blobs are written and fsynced first,
// then the manifest is published atomically, so a crash anywhere in
// between leaves only unreferenced blob files that the next retention
// pass garbage-collects.
//
// A snapshot rewrites only the blobs whose content changed since the
// previous manifest (dirty shards, plus the shared blob); clean shards
// re-reference the blob a previous manifest already verified. Recovery
// loads the newest manifest, and when one shard blob is unreadable it
// falls back shard-by-shard: an older manifest's blob for the same shard
// is loaded and patched forward through the WAL, replaying only that
// shard's members' updates grouped by the journaled batch commits — the
// projection of a batch onto a user subset is faithful because a rating
// update only ever touches its own user's row.
package lifecycle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
	"cfsf/internal/wal"
)

const (
	manifestPrefix  = "manifest-"
	manifestSuffix  = ".json"
	manifestVersion = 1

	sharedBlobPrefix = "shared-"
	shardBlobPrefix  = "shard-"
	blobSuffix       = ".blob"
)

func manifestName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", manifestPrefix, seq, manifestSuffix)
}

// blobRef points a manifest at one blob file. Seq is the applied
// watermark the blob was written at — for a clean shard carried over
// from an older manifest it is older than the manifest's own Seq, and it
// is the sequence WAL patching would resume from if a newer blob of the
// same shard were lost.
type blobRef struct {
	File string `json:"file"`
	Seq  uint64 `json:"seq"`
}

type shardBlobRef struct {
	ID   int    `json:"id"`
	File string `json:"file"`
	Seq  uint64 `json:"seq"`
}

// manifest is one durable recovery point: the applied watermark it
// covers and the blob set that reassembles the model at that watermark.
//
//cfsf:wire manifestVersion
type manifest struct {
	Version int            `json:"version"`
	Seq     uint64         `json:"seq"`
	Users   int            `json:"users"`
	Items   int            `json:"items"`
	Shared  blobRef        `json:"shared"`
	Shards  []shardBlobRef `json:"shards"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseManifest(data, filepath.Base(path))
}

// parseManifest decodes and validates one manifest document; label names
// the source in errors (a file name, or the leader URL for a manifest
// fetched over the replication protocol).
func parseManifest(data []byte, label string) (*manifest, error) {
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", label, err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("manifest %s: unsupported version %d", label, man.Version)
	}
	if len(man.Shards) == 0 {
		return nil, fmt.Errorf("manifest %s: no shard refs", label)
	}
	for i, ref := range man.Shards {
		if ref.ID != i {
			return nil, fmt.Errorf("manifest %s: shard ref %d has id %d", label, i, ref.ID)
		}
		if !isBlobName(ref.File) {
			return nil, fmt.Errorf("manifest %s: shard ref %d file %q", label, i, ref.File)
		}
	}
	if !isBlobName(man.Shared.File) {
		return nil, fmt.Errorf("manifest %s: shared ref file %q", label, man.Shared.File)
	}
	return &man, nil
}

func isBlobName(name string) bool {
	return name == filepath.Base(name) && strings.HasSuffix(name, blobSuffix) &&
		(strings.HasPrefix(name, sharedBlobPrefix) || strings.HasPrefix(name, shardBlobPrefix))
}

// durablePoint is one recovery start in the snapshots directory: a
// manifest file and the watermark its name claims.
type durablePoint struct {
	path string
	seq  uint64
}

// listDurablePoints returns every recovery point, newest first.
func listDurablePoints(dataDir string) ([]durablePoint, error) {
	entries, err := os.ReadDir(snapshotDir(dataDir))
	if err != nil {
		return nil, err
	}
	var points []durablePoint
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, manifestPrefix) || !strings.HasSuffix(name, manifestSuffix) {
			continue
		}
		var s uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, manifestPrefix), manifestSuffix), "%016x", &s); err != nil {
			continue
		}
		points = append(points, durablePoint{path: filepath.Join(snapshotDir(dataDir), name), seq: s})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].seq > points[j].seq })
	return points, nil
}

// blobOpener opens one snapshot blob by its manifest-referenced name:
// from the snapshots directory at boot, from the leader's snapshot
// endpoint on a bootstrapping follower.
type blobOpener func(name string) (io.ReadCloser, error)

func dirBlobs(dir string) blobOpener {
	return func(name string) (io.ReadCloser, error) { return os.Open(filepath.Join(dir, name)) }
}

func (open blobOpener) shared(name string) (*core.SharedPart, error) {
	r, err := open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return core.LoadSharedPart(r)
}

func (open blobOpener) shard(name string) (*core.ShardPart, error) {
	r, err := open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return core.LoadShardPart(r)
}

// checkShardPart validates a loaded shard blob against the manifest ref
// and the shared part it must assemble with: right shard, exactly the
// shard's current members, and timestamp presence matching the model's.
func checkShardPart(part *core.ShardPart, ref shardBlobRef, sp *core.SharedPart) error {
	if part.Shard != ref.ID {
		return fmt.Errorf("blob is for shard %d, ref says %d", part.Shard, ref.ID)
	}
	members := sp.Members(ref.ID)
	if len(part.Users) != len(members) {
		return fmt.Errorf("blob holds %d users, shard has %d members", len(part.Users), len(members))
	}
	for j, u := range members { // both ascending
		if part.Users[j] != u {
			return fmt.Errorf("blob user set diverges from shard membership at %d", u)
		}
	}
	if part.Times != nil && !sp.HasTimes {
		return fmt.Errorf("blob carries timestamps but the model does not")
	}
	if sp.HasTimes && part.Times == nil {
		// A timed model's blob only lacks a times section when every row
		// is empty (nothing to timestamp).
		for _, row := range part.Rows {
			if len(row) > 0 {
				return fmt.Errorf("blob lacks timestamps the model requires")
			}
		}
	}
	return nil
}

// shardPatcher recovers one shard's rows into rows/times when the blob
// ref names is unusable for the given cause.
type shardPatcher func(man *manifest, ref shardBlobRef, sp *core.SharedPart, rows [][]ratings.Entry, times [][]int64, cause error) error

// assembleManifest reassembles the model a manifest describes from blobs
// obtained through open. A shard blob that is unreadable or inconsistent
// with the shared part goes to patch when one is given; patched returns
// those shard ids so the caller re-persists them. Without a patcher, or
// when the patch fails too, the whole point fails.
func assembleManifest(man *manifest, open blobOpener, patch shardPatcher) (mod *core.Model, patched []int, err error) {
	sp, err := open.shared(man.Shared.File)
	if err != nil {
		return nil, nil, fmt.Errorf("shared blob %s: %w", man.Shared.File, err)
	}
	if sp.NumUsers != man.Users || sp.NumItems != man.Items {
		return nil, nil, fmt.Errorf("shared blob %s is %dx%d, manifest says %dx%d",
			man.Shared.File, sp.NumUsers, sp.NumItems, man.Users, man.Items)
	}
	if sp.NumShards() != len(man.Shards) {
		return nil, nil, fmt.Errorf("shared blob %s has %d shards, manifest lists %d",
			man.Shared.File, sp.NumShards(), len(man.Shards))
	}
	rows := make([][]ratings.Entry, sp.NumUsers)
	var times [][]int64
	if sp.HasTimes {
		times = make([][]int64, sp.NumUsers)
	}
	for _, ref := range man.Shards {
		part, perr := open.shard(ref.File)
		if perr == nil {
			perr = checkShardPart(part, ref, sp)
		}
		if perr != nil {
			if patch == nil {
				return nil, nil, fmt.Errorf("shard %d blob %s: %w", ref.ID, ref.File, perr)
			}
			if ferr := patch(man, ref, sp, rows, times, perr); ferr != nil {
				return nil, nil, fmt.Errorf("shard %d blob %s: %v (fallback: %v)", ref.ID, ref.File, perr, ferr)
			}
			patched = append(patched, ref.ID)
			continue
		}
		for j, u := range part.Users {
			rows[u] = part.Rows[j]
			if sp.HasTimes && part.Times != nil {
				times[u] = part.Times[j]
			}
		}
	}
	mod, err = core.AssembleModel(sp, rows, times)
	if err != nil {
		return nil, nil, err
	}
	return mod, patched, nil
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
// carries batch-exact records above the older blob's sequence (see
// tailReplayable).
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
// replay groups them — commit order can differ from sequence order when
// a user was rerouted between shards, and the live model folded the
// batches in commit order.
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
	apply := func(covered uint64, shard int) {
		for _, u := range q.cut(covered, shard) {
			cells[u.User][int32(u.Item)] = cellVal{v: u.Value, t: u.Time}
		}
	}
	err := m.w.Replay(fromSeq, func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecordRating:
			if rec.Seq <= throughSeq && memberSet[rec.Update.User] {
				q.push(rec.Seq, rec.Update, rec.Shard)
			}
		case wal.RecordBatchCommit:
			apply(rec.Covered, rec.Shard)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Ratings at or below the manifest's watermark were all applied before
	// it was written; any left uncommitted in the log fold in sequence
	// order, exactly as boot replay's trailing batch does.
	apply(throughSeq, -1)

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

// oldestRetainedSeq returns the oldest sequence any retained recovery
// point can resume from — the minimum over point watermarks and blob
// write sequences (a clean shard's blob can be older than its manifest,
// and patching it needs the WAL from its own sequence). Compaction uses
// it as the dedupe horizon. Zero when no point exists.
//
//cfsf:locked snapMu callers hold it; must see a settled manifest set
func (m *Manager) oldestRetainedSeq() uint64 {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil || len(points) == 0 {
		return 0
	}
	min := ^uint64(0)
	for _, pt := range points {
		s := pt.seq
		if man, err := readManifest(pt.path); err == nil {
			if man.Shared.Seq < s {
				s = man.Shared.Seq
			}
			for _, ref := range man.Shards {
				if ref.Seq < s {
					s = ref.Seq
				}
			}
		}
		if s < min {
			min = s
		}
	}
	return min
}

// oldestRetainedPointSeq returns the oldest watermark among retained
// recovery points (ignoring blob write sequences). Plain WAL pruning
// uses it: segments at or below it serve no retained point's tail
// replay, while a clean blob older than every point deliberately does
// NOT pin the log — patching such a blob is refused by the
// AvailableFrom gate and recovery degrades to whole-point fallback,
// instead of the WAL growing without bound. Zero when no point exists.
//
//cfsf:locked snapMu callers hold it; must see a settled manifest set
func (m *Manager) oldestRetainedPointSeq() uint64 {
	points, err := listDurablePoints(m.cfg.DataDir)
	if err != nil || len(points) == 0 {
		return 0
	}
	min := points[0].seq
	for _, pt := range points[1:] {
		if pt.seq < min {
			min = pt.seq
		}
	}
	return min
}

// uniqueBlobName returns base+blobSuffix, or a .rN-suffixed variant when
// that file already exists. A post-retrain snapshot rewrites blobs at an
// unchanged watermark; giving the new content a fresh name keeps the
// previous manifest's blob set intact until the new manifest atomically
// replaces it.
func uniqueBlobName(dir, base string) string {
	name := base + blobSuffix
	for r := 2; ; r++ {
		if _, err := os.Stat(filepath.Join(dir, name)); os.IsNotExist(err) {
			return name
		}
		name = fmt.Sprintf("%s.r%d%s", base, r, blobSuffix)
	}
}

// sharedPartOf round-trips the live model's shared part through its own
// serialisation, yielding the canonical decoded form a written shared
// blob must match exactly.
func sharedPartOf(live *core.Model) (*core.SharedPart, error) {
	var buf bytes.Buffer
	if err := live.SaveSharedBlob(&buf); err != nil {
		return nil, err
	}
	return core.LoadSharedPart(&buf)
}

func compareSharedParts(got, want *core.SharedPart) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("reloaded shared part diverges from the serving model")
	}
	return nil
}

// verifyWrittenParts loads every blob this snapshot wrote back from disk
// and demands it reproduce the live model bit-for-bit: the shared part
// must decode to exactly what the model serialises, and each written
// shard blob's rows (and timestamps) must equal the live matrix rows of
// the shard's members. Clean shards are not re-verified — their blobs
// passed this check when the manifest that first wrote them ran it.
func verifyWrittenParts(dir string, man *manifest, written map[int]bool, sharedWritten bool, live *core.Model) error {
	blobs := dirBlobs(dir)
	if sharedWritten {
		sp, err := blobs.shared(man.Shared.File)
		if err != nil {
			return fmt.Errorf("shared blob %s: %w", man.Shared.File, err)
		}
		want, err := sharedPartOf(live)
		if err != nil {
			return err
		}
		if err := compareSharedParts(sp, want); err != nil {
			return fmt.Errorf("shared blob %s: %w", man.Shared.File, err)
		}
	}
	mx := live.Matrix()
	hasTimes := mx.HasTimes()
	for _, ref := range man.Shards {
		if !written[ref.ID] {
			continue
		}
		part, err := blobs.shard(ref.File)
		if err != nil {
			return fmt.Errorf("shard blob %s: %w", ref.File, err)
		}
		members := live.Clusters().Members[ref.ID]
		if len(part.Users) != len(members) {
			return fmt.Errorf("shard blob %s holds %d users, shard has %d members", ref.File, len(part.Users), len(members))
		}
		for j, u := range members {
			if part.Users[j] != u {
				return fmt.Errorf("shard blob %s user set diverges at %d", ref.File, u)
			}
			row := mx.UserRatings(u)
			if len(part.Rows[j]) != len(row) {
				return fmt.Errorf("shard blob %s row of user %d reloads with %d entries, model has %d",
					ref.File, u, len(part.Rows[j]), len(row))
			}
			for k, e := range row {
				if part.Rows[j][k] != e {
					return fmt.Errorf("shard blob %s row of user %d diverges at entry %d", ref.File, u, k)
				}
			}
			if hasTimes && len(row) > 0 {
				ts := mx.UserRatingTimes(u)
				if part.Times == nil || len(part.Times[j]) != len(ts) {
					return fmt.Errorf("shard blob %s timestamps of user %d did not round-trip", ref.File, u)
				}
				for k, t := range ts {
					if part.Times[j][k] != t {
						return fmt.Errorf("shard blob %s timestamp of user %d diverges at entry %d", ref.File, u, k)
					}
				}
			}
		}
	}
	return nil
}
