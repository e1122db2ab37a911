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
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
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

// AssembleRemotePoint reassembles a model from a manifest document plus
// a blob-fetch function — the follower bootstrap path, where the blobs
// come from the leader's snapshot endpoints instead of local disk. It
// returns the model and the watermark the manifest covers. Unlike boot
// there is no shard-patching fallback: a follower that cannot fetch a
// consistent blob set simply retries (the leader's next snapshot
// supersedes the torn one).
func AssembleRemotePoint(manifestJSON []byte, fetch func(name string) ([]byte, error)) (*core.Model, uint64, error) {
	man, err := parseManifest(manifestJSON, "remote")
	if err != nil {
		return nil, 0, err
	}
	mod, _, err := assembleManifest(man, func(name string) (io.ReadCloser, error) {
		data, err := fetch(name)
		if err != nil {
			return nil, fmt.Errorf("fetch: %w", err)
		}
		return io.NopCloser(bytes.NewReader(data)), nil
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	return mod, man.Seq, nil
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

// compareSharedToLive holds a decoded shared blob against the model it
// was written from, value by value: the configuration, the dimensions,
// every GIS list entry and every field of the clustering. Slices compare
// by length and content, because gob does not tell a nil slice from an
// empty one; floats compare by their bits. Nothing on the live side has
// been through the encoder, so a fault in the encoder and its mirror
// image in the decoder cannot cancel each other out. The error names the
// part that diverges.
func compareSharedToLive(sp *core.SharedPart, live *core.Model) error {
	if field := diffConfig(sp.Config, live.Config()); field != "" {
		return fmt.Errorf("config field %s diverges from the serving model", field)
	}
	mx := live.Matrix()
	if sp.NumUsers != mx.NumUsers() || sp.NumItems != mx.NumItems() {
		return fmt.Errorf("dimensions reload as %dx%d, model is %dx%d", sp.NumUsers, sp.NumItems, mx.NumUsers(), mx.NumItems())
	}
	if !sameBits(sp.MinRating, mx.MinRating()) || !sameBits(sp.MaxRating, mx.MaxRating()) {
		return fmt.Errorf("rating scale reloads as [%v, %v], model has [%v, %v]", sp.MinRating, sp.MaxRating, mx.MinRating(), mx.MaxRating())
	}
	if sp.HasTimes != mx.HasTimes() {
		return fmt.Errorf("HasTimes reloads as %v, model has %v", sp.HasTimes, mx.HasTimes())
	}

	gis := live.GIS()
	if sp.GIS.Options() != gis.Options() {
		return fmt.Errorf("GIS options reload as %+v, model has %+v", sp.GIS.Options(), gis.Options())
	}
	if sp.GIS.NumItems() != gis.NumItems() {
		return fmt.Errorf("GIS reloads with %d items, model has %d", sp.GIS.NumItems(), gis.NumItems())
	}
	for i := 0; i < gis.NumItems(); i++ {
		got, want := sp.GIS.Neighbors(i), gis.Neighbors(i)
		if len(got) != len(want) {
			return fmt.Errorf("GIS list of item %d reloads with %d entries, model has %d", i, len(got), len(want))
		}
		for k, n := range want {
			if got[k].Index != n.Index || !sameBits(got[k].Score, n.Score) {
				return fmt.Errorf("GIS list of item %d diverges at entry %d", i, k)
			}
		}
	}

	got, want := sp.Clusters, live.Clusters()
	if got.K != want.K || got.Iterations != want.Iterations || !sameBits(got.Inertia, want.Inertia) {
		return fmt.Errorf("clustering K/Iterations/Inertia reload as %d/%d/%v, model has %d/%d/%v",
			got.K, got.Iterations, got.Inertia, want.K, want.Iterations, want.Inertia)
	}
	if !slices.Equal(got.Assign, want.Assign) {
		return fmt.Errorf("clustering Assign diverges from the serving model")
	}
	if !slices.EqualFunc(got.Members, want.Members, slices.Equal[[]int]) {
		return fmt.Errorf("clustering Members diverges from the serving model")
	}
	if !slices.EqualFunc(got.Mean, want.Mean, sameFloats) {
		return fmt.Errorf("clustering Mean diverges from the serving model")
	}
	if !slices.EqualFunc(got.Count, want.Count, slices.Equal[[]int32]) {
		return fmt.Errorf("clustering Count diverges from the serving model")
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }

// diffConfig returns the name of the first field two configurations
// differ in, or "" when they are equal.
func diffConfig(got, want core.Config) string {
	for _, f := range []struct {
		name string
		same bool
	}{
		{"M", got.M == want.M},
		{"K", got.K == want.K},
		{"Clusters", got.Clusters == want.Clusters},
		{"Lambda", sameBits(got.Lambda, want.Lambda)},
		{"Delta", sameBits(got.Delta, want.Delta)},
		{"OriginalWeight", sameBits(got.OriginalWeight, want.OriginalWeight)},
		{"CandidateFactor", got.CandidateFactor == want.CandidateFactor},
		{"GIS", got.GIS == want.GIS},
		{"ItemFeatures", slices.EqualFunc(got.ItemFeatures, want.ItemFeatures, sameFloats)},
		{"ContentBlend", sameBits(got.ContentBlend, want.ContentBlend)},
		{"TimeDecayTau", sameBits(got.TimeDecayTau, want.TimeDecayTau)},
		{"ClusterMaxIter", got.ClusterMaxIter == want.ClusterMaxIter},
		{"ClusterMetric", got.ClusterMetric == want.ClusterMetric},
		{"Seed", got.Seed == want.Seed},
		{"Workers", got.Workers == want.Workers},
		{"DisableSmoothing", got.DisableSmoothing == want.DisableSmoothing},
		{"DisableCache", got.DisableCache == want.DisableCache},
		{"FullUserSearch", got.FullUserSearch == want.FullUserSearch},
		{"RecommendCacheSize", got.RecommendCacheSize == want.RecommendCacheSize},
	} {
		if !f.same {
			return f.name
		}
	}
	return ""
}

// verifyWrittenParts loads every blob this snapshot wrote back from disk
// (magic, kind, length, CRC, decoder) and demands it reproduce the live
// model bit-for-bit: the shared part must equal the model's own config,
// GIS and clustering, and each written shard blob's rows (and
// timestamps) must equal the live matrix rows of the shard's members.
// Clean shards are not re-verified — their blobs passed this check when
// the manifest that first wrote them ran it.
func verifyWrittenParts(dir string, man *manifest, written map[int]bool, sharedWritten bool, live *core.Model) error {
	blobs := dirBlobs(dir)
	if sharedWritten {
		sp, err := blobs.shared(man.Shared.File)
		if err != nil {
			return fmt.Errorf("shared blob %s: %w", man.Shared.File, err)
		}
		if err := compareSharedToLive(sp, live); err != nil {
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
