package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"sync/atomic"
	"time"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
	"cfsf/internal/smoothing"
)

// Per-shard persistence splits the monolithic model snapshot into
// independently loadable parts: one shared blob (config, dimensions, GIS,
// clustering — global by construction) plus one blob per user-cluster
// shard holding that shard's matrix rows. Each blob is wrapped in a
// checksummed, versioned container so a torn or bit-rotted file is
// detected at load and the caller can fall back shard-by-shard instead of
// discarding the whole snapshot.
//
// The parts reassemble through the same Builder row-major rebuild the
// monolithic snapshot uses (ratings.Matrix gob round-trip), so a model
// loaded from parts predicts bit-for-bit like the one that was saved.

// Blob container framing: magic, kind, payload length, CRC32-IEEE of the
// payload, then the gob payload itself.
const (
	blobKindShared byte = 1
	blobKindShard  byte = 2

	blobHeaderSize = 8 + 1 + 8 + 4
	// maxBlobPayload caps a corrupt length field before allocation.
	maxBlobPayload = int64(1) << 34
)

var blobMagic = [8]byte{'C', 'F', 'S', 'F', 'B', 'L', 'B', 1}

// sharedWire is the gob payload of the shared blob: everything global to
// the model except the matrix rows.
//
//cfsf:wire sharedBlobVersion
type sharedWire struct {
	Version   int
	Config    Config
	NumUsers  int
	NumItems  int
	MinRating float64
	MaxRating float64
	HasTimes  bool
	GIS       similarity.Snapshot
	Clusters  *cluster.Result
}

// shardWire is the gob payload of one shard blob: the matrix rows (and
// aligned timestamps, when the matrix carries them) of the shard's users
// at write time.
//
//cfsf:wire shardBlobVersion
type shardWire struct {
	Version int
	Shard   int
	// NumUsersAtWrite is the matrix user count when the blob was written.
	// A newer manifest falling back to this blob uses it to distinguish
	// "user missing because it did not exist yet" (patchable from the WAL)
	// from "user missing because it lived in another shard" (not
	// patchable — the older rows are in a blob we are not reading).
	NumUsersAtWrite int
	Users           []int32 // ascending user ids owned by the shard at write
	RowLens         []int32 // per user, number of entries
	Items           []int32 // concatenated row entries, ascending per row
	Values          []float64
	Times           []int64 // empty when the matrix carries no timestamps
}

// sharedBlobVersion 4 stores which neighbours each item's GIS list keeps
// and nothing else of it (similarity.Snapshot's Lens and IDs: two bytes an
// entry on the ledger fixture): AssembleModel derives every weight from
// the assembled matrix. Only a GIS that blends in item attributes still
// stores its weights in Scores. The shape is version 3's; its meaning
// changed — Scores used to hold every weight, it is now empty and the
// weights are derived — so the number changes, and a version-3 build
// refuses a version-4 blob by it instead of as a GIS whose scores are
// missing. Version 3 blobs (Lens, IDs, Scores
// raw), version 2 blobs (Lens, Index, Score) and version 1 blobs
// (per-item neighbour lists) still load, with the weights they store. The
// number, not the shape, is also what makes an older build refuse a
// newer blob whose shape did change: gob drops fields it does not know.
// The shard blob's shape has not changed, and neither has its version.
const (
	sharedBlobVersion = 4
	shardBlobVersion  = 1
)

func writeBlob(w io.Writer, kind byte, payload []byte) error {
	var hdr [blobHeaderSize]byte
	copy(hdr[:8], blobMagic[:])
	hdr[8] = kind
	binary.BigEndian.PutUint64(hdr[9:], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[17:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("cfsf: write blob header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("cfsf: write blob payload: %w", err)
	}
	return nil
}

func readBlob(r io.Reader, wantKind byte) ([]byte, error) {
	var hdr [blobHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("cfsf: read blob header: %w", err)
	}
	if [8]byte(hdr[:8]) != blobMagic {
		return nil, fmt.Errorf("cfsf: bad blob magic")
	}
	if hdr[8] != wantKind {
		return nil, fmt.Errorf("cfsf: blob kind %d, want %d", hdr[8], wantKind)
	}
	n := int64(binary.BigEndian.Uint64(hdr[9:17]))
	if n < 0 || n > maxBlobPayload {
		return nil, fmt.Errorf("cfsf: blob payload length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("cfsf: read blob payload: %w", err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.BigEndian.Uint32(hdr[17:]) {
		return nil, fmt.Errorf("cfsf: blob checksum mismatch")
	}
	return payload, nil
}

// SaveSharedBlob writes the model's shared part (config, dims, GIS,
// clustering) as a checksummed blob.
func (mod *Model) SaveSharedBlob(w io.Writer) error {
	wire := sharedWire{
		Version:   sharedBlobVersion,
		Config:    mod.cfg,
		NumUsers:  mod.m.NumUsers(),
		NumItems:  mod.m.NumItems(),
		MinRating: mod.m.MinRating(),
		MaxRating: mod.m.MaxRating(),
		HasTimes:  mod.m.HasTimes(),
		GIS:       mod.gisSnapshot(),
		Clusters:  mod.clusters,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("cfsf: encode shared blob: %w", err)
	}
	return writeBlob(w, blobKindShared, buf.Bytes())
}

// SaveShardBlob writes the matrix rows of one shard's users as a
// checksummed blob.
func (mod *Model) SaveShardBlob(w io.Writer, shard int) error {
	if shard < 0 || shard >= mod.clusters.K {
		return fmt.Errorf("cfsf: shard %d out of range [0,%d)", shard, mod.clusters.K)
	}
	members := mod.clusters.Members[shard]
	wire := shardWire{
		Version:         shardBlobVersion,
		Shard:           shard,
		NumUsersAtWrite: mod.m.NumUsers(),
		Users:           make([]int32, 0, len(members)),
		RowLens:         make([]int32, 0, len(members)),
	}
	hasTimes := mod.m.HasTimes()
	for _, u := range members {
		row := mod.m.UserRatings(u)
		wire.Users = append(wire.Users, int32(u))
		wire.RowLens = append(wire.RowLens, int32(len(row)))
		for _, e := range row {
			wire.Items = append(wire.Items, e.Index)
			wire.Values = append(wire.Values, e.Value)
		}
		if hasTimes {
			wire.Times = append(wire.Times, mod.m.UserRatingTimes(u)...)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("cfsf: encode shard blob: %w", err)
	}
	return writeBlob(w, blobKindShard, buf.Bytes())
}

// SharedPart is a decoded shared blob. Its GIS is still the snapshot: the
// weights a version-4 blob leaves out are derived once the matrix exists
// (AssembleModel).
type SharedPart struct {
	Config    Config
	NumUsers  int
	NumItems  int
	MinRating float64
	MaxRating float64
	HasTimes  bool
	GIS       similarity.Snapshot
	Clusters  *cluster.Result
}

// NumShards returns the shard count recorded in the shared part.
func (sp *SharedPart) NumShards() int { return sp.Clusters.K }

// Members returns the user ids of one shard under this part's
// clustering. The slice is shared and must not be modified.
func (sp *SharedPart) Members(shard int) []int { return sp.Clusters.Members[shard] }

// LoadSharedPart decodes and validates a shared blob.
func LoadSharedPart(r io.Reader) (*SharedPart, error) {
	payload, err := readBlob(r, blobKindShared)
	if err != nil {
		return nil, err
	}
	var wire sharedWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("cfsf: decode shared blob: %w", err)
	}
	if wire.Version < 1 || wire.Version > sharedBlobVersion {
		return nil, fmt.Errorf("cfsf: unsupported shared blob version %d", wire.Version)
	}
	if err := wire.Config.Validate(); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt shared blob: %w", err)
	}
	if wire.Clusters == nil {
		return nil, fmt.Errorf("cfsf: corrupt shared blob: missing clustering")
	}
	if len(wire.Clusters.Assign) != wire.NumUsers {
		return nil, fmt.Errorf("cfsf: corrupt shared blob: %d assignments for %d users",
			len(wire.Clusters.Assign), wire.NumUsers)
	}
	if n, err := wire.GIS.Check(); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt shared blob: %w", err)
	} else if n != wire.NumItems {
		return nil, fmt.Errorf("cfsf: corrupt shared blob: GIS covers %d items, model has %d", n, wire.NumItems)
	}
	return &SharedPart{
		Config:    wire.Config,
		NumUsers:  wire.NumUsers,
		NumItems:  wire.NumItems,
		MinRating: wire.MinRating,
		MaxRating: wire.MaxRating,
		HasTimes:  wire.HasTimes,
		GIS:       wire.GIS,
		Clusters:  wire.Clusters,
	}, nil
}

// ShardPart is a decoded shard blob: the rows of the shard's users at
// the time the blob was written.
type ShardPart struct {
	Shard           int
	NumUsersAtWrite int
	Users           []int
	Rows            [][]ratings.Entry
	Times           [][]int64 // nil when the blob carries no timestamps
}

// LoadShardPart decodes and validates a shard blob.
func LoadShardPart(r io.Reader) (*ShardPart, error) {
	payload, err := readBlob(r, blobKindShard)
	if err != nil {
		return nil, err
	}
	var wire shardWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("cfsf: decode shard blob: %w", err)
	}
	if wire.Version != shardBlobVersion {
		return nil, fmt.Errorf("cfsf: unsupported shard blob version %d", wire.Version)
	}
	if len(wire.RowLens) != len(wire.Users) {
		return nil, fmt.Errorf("cfsf: corrupt shard blob: %d row lengths for %d users",
			len(wire.RowLens), len(wire.Users))
	}
	total := 0
	for _, n := range wire.RowLens {
		if n < 0 {
			return nil, fmt.Errorf("cfsf: corrupt shard blob: negative row length")
		}
		total += int(n)
	}
	if len(wire.Items) != total || len(wire.Values) != total {
		return nil, fmt.Errorf("cfsf: corrupt shard blob: %d/%d entries for %d row slots",
			len(wire.Items), len(wire.Values), total)
	}
	hasTimes := len(wire.Times) > 0
	if hasTimes && len(wire.Times) != total {
		return nil, fmt.Errorf("cfsf: corrupt shard blob: %d timestamps for %d entries",
			len(wire.Times), total)
	}
	sp := &ShardPart{
		Shard:           wire.Shard,
		NumUsersAtWrite: wire.NumUsersAtWrite,
		Users:           make([]int, len(wire.Users)),
		Rows:            make([][]ratings.Entry, len(wire.Users)),
	}
	if hasTimes {
		sp.Times = make([][]int64, len(wire.Users))
	}
	off := 0
	for j, u := range wire.Users {
		if j > 0 && wire.Users[j] <= wire.Users[j-1] {
			return nil, fmt.Errorf("cfsf: corrupt shard blob: user ids not ascending")
		}
		n := int(wire.RowLens[j])
		sp.Users[j] = int(u)
		row := make([]ratings.Entry, n)
		for k := 0; k < n; k++ {
			row[k] = ratings.Entry{Index: wire.Items[off+k], Value: wire.Values[off+k]}
		}
		sp.Rows[j] = row
		if hasTimes {
			sp.Times[j] = append([]int64(nil), wire.Times[off:off+n]...)
		}
		off += n
	}
	return sp, nil
}

// AssembleModel rebuilds a full model from a shared part plus dense
// per-user rows (rows[u] is user u's sorted rating list; times aligns
// with it and must be non-nil exactly when the shared part records
// timestamps). The rebuild is the same Builder row-major pass the
// monolithic snapshot load performs, and derives the GIS weights from
// the matrix it builds, so the assembled model predicts bit-for-bit like
// the saved one.
//
//cfsf:wallclock-ok rebuild duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func AssembleModel(shared *SharedPart, rows [][]ratings.Entry, times [][]int64) (*Model, error) {
	if len(rows) != shared.NumUsers {
		return nil, fmt.Errorf("cfsf: assemble: %d rows for %d users", len(rows), shared.NumUsers)
	}
	if shared.HasTimes != (times != nil) {
		return nil, fmt.Errorf("cfsf: assemble: timestamps present=%v but shared part records %v",
			times != nil, shared.HasTimes)
	}
	b := ratings.NewBuilder(shared.NumUsers, shared.NumItems)
	b.SetScale(shared.MinRating, shared.MaxRating)
	for u, row := range rows {
		for k, e := range row {
			var err error
			if shared.HasTimes {
				err = b.AddWithTime(u, int(e.Index), e.Value, times[u][k])
			} else {
				err = b.Add(u, int(e.Index), e.Value)
			}
			if err != nil {
				return nil, fmt.Errorf("cfsf: assemble: %w", err)
			}
		}
	}
	start := time.Now()
	mod, err := rebuildModel(shared.Config, b.Build(), shared.GIS, shared.Clusters)
	if err != nil {
		return nil, fmt.Errorf("cfsf: corrupt shared blob: %w", err)
	}
	stampRebuildDuration(mod, start)
	return mod, nil
}

// stampRebuildDuration records how long reconstructing the derived
// offline state took in the model's TrainStats.
//
//cfsf:init-only called by Load and AssembleModel on a model that has not been returned yet
//cfsf:wallclock-ok rebuild duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func stampRebuildDuration(mod *Model, start time.Time) {
	mod.stats.TotalDuration = time.Since(start)
}

// gisSnapshot is the GIS as a blob stores it: the neighbour lists alone,
// unless the weights blend in item attributes and no matrix reproduces
// them.
func (mod *Model) gisSnapshot() similarity.Snapshot {
	return mod.gis.Snapshot(mod.cfg.blendsContent())
}

// rebuildModel reconstructs the derived offline state (GIS weights,
// smoothing tables, caches) around persisted artefacts, exactly as Load
// does for a monolithic snapshot. It refuses a GIS snapshot that does
// not cover m's items (Predict indexes the GIS by item id) or does not
// derive on m (similarity.FromSnapshot).
//
//cfsf:wallclock-ok GIS derivation duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func rebuildModel(cfg Config, m *ratings.Matrix, snap similarity.Snapshot, clusters *cluster.Result) (*Model, error) {
	t := time.Now()
	gis, err := similarity.FromSnapshot(snap, m)
	if err != nil {
		return nil, err
	}
	mod := &Model{
		cfg:      cfg,
		m:        m,
		gis:      gis,
		clusters: clusters,
	}
	mod.stats.GISDuration = time.Since(t)
	mod.sm = smoothing.New(mod.m, mod.clusters)
	mod.neighborCache = make([]atomic.Pointer[[]likeMinded], mod.m.NumUsers())
	mod.initRecCache()
	mod.buildTopM(nil)
	mod.stats.GISNeighbors = mod.gis.TotalNeighbors()
	mod.stats.ClusterIters = clusters.Iterations
	return mod, nil
}

// ChangedShards returns, ascending, the shards whose blob written from
// prev no longer holds what next's does, where next is prev.Apply of
// updates — or of a chain of Applies over some of them; updates an Apply
// refused only widen the answer. Those are:
//
//   - the cluster every updated user left (RefreshUsers may move it) and
//     the one it is in now;
//   - the cluster of every user id new in next, named by an update or
//     not: a batch naming user N+1 creates user N as well, and the
//     clustering places that one without any update naming it;
//   - every shard when the matrix gained timestamps, which changes the
//     wire shape of every blob.
//
// It does not cover a retrain, which re-clusters every user.
func ChangedShards(prev, next *Model, updates []RatingUpdate) []int {
	changed := make([]bool, next.clusters.K)
	before, after := prev.clusters.Assign, next.clusters.Assign
	for _, up := range updates {
		if up.User >= 0 && up.User < len(before) {
			changed[before[up.User]] = true
		}
		if up.User >= 0 && up.User < len(after) {
			changed[after[up.User]] = true
		}
	}
	for u := len(before); u < len(after); u++ {
		changed[after[u]] = true
	}
	flip := prev.m.HasTimes() != next.m.HasTimes()
	var out []int
	for c, ch := range changed {
		if ch || flip {
			out = append(out, c)
		}
	}
	return out
}
