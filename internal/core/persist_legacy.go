package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
)

// The formats before the model file. Nothing writes them any more; they
// are decoded so that what older builds wrote still loads:
//
//   - modelWire: the unframed gob `-model` file (cfsf save);
//   - sharedWire and shardWire: the blobs a data dir's manifest names, one
//     shared blob (config, dimensions, GIS, clustering) plus one blob per
//     user-cluster shard holding that shard's matrix rows, each in the
//     checksummed frame the model file uses.

// modelWire is the unframed gob `-model` file.
//
//cfsf:wire modelWireVersion
type modelWire struct {
	Version  int
	Config   Config
	Matrix   *ratings.Matrix
	GIS      similarity.Snapshot
	Clusters *cluster.Result
}

// modelWireVersion 4 stored the GIS as neighbour ids only, the weights
// derived from the matrix at load, unless the GIS blends in item
// attributes. Version 3 files (ids and weights raw), version 2 files
// (Lens, Index, Score) and version 1 files (per-item neighbour lists, no
// timestamps) load with the weights they store. Version 2 added the
// matrix's timestamps.
const modelWireVersion = 4

// loadModelWire decodes an unframed gob `-model` file.
//
//cfsf:wallclock-ok rebuild duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func loadModelWire(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("cfsf: load model: %w", err)
	}
	if wire.Version < 1 || wire.Version > modelWireVersion {
		return nil, fmt.Errorf("cfsf: unsupported model snapshot version %d", wire.Version)
	}
	if err := wire.Config.Validate(); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model snapshot: %w", err)
	}
	if wire.Matrix == nil || wire.Clusters == nil {
		return nil, fmt.Errorf("cfsf: corrupt model snapshot: missing matrix or clustering")
	}
	start := time.Now()
	mod, err := rebuildModel(wire.Config, wire.Matrix, wire.GIS, wire.Clusters)
	if err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model snapshot: %w", err)
	}
	stampRebuildDuration(mod, start)
	return mod, nil
}

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
	Version         int
	Shard           int
	NumUsersAtWrite int
	Users           []int32 // ascending user ids owned by the shard at write
	RowLens         []int32 // per user, number of entries
	Items           []int32 // concatenated row entries, ascending per row
	Values          []float64
	Times           []int64 // empty when the matrix carries no timestamps
}

// sharedBlobVersion 4 stored which neighbours each item's GIS list keeps
// and nothing else of it (similarity.Snapshot's Lens and IDs), the weights
// derived from the assembled matrix; only a GIS that blends in item
// attributes stored its weights in Scores. Version 3 blobs (Lens, IDs,
// Scores raw), version 2 blobs (Lens, Index, Score) and version 1 blobs
// (per-item neighbour lists) load with the weights they store.
const (
	sharedBlobVersion = 4
	shardBlobVersion  = 1
)

// SharedPart is what a model holds besides its matrix rows: a model
// file's first half, or a decoded shared blob. Its GIS is still the
// snapshot: the weights it leaves out are derived once the matrix exists
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

// check validates a decoded shared part on its own: the configuration,
// the clustering against the dimensions, the GIS against the item count.
func (sp *SharedPart) check() error {
	if err := sp.Config.Validate(); err != nil {
		return err
	}
	if sp.Clusters == nil {
		return fmt.Errorf("missing clustering")
	}
	if err := sp.Clusters.Check(sp.NumUsers, sp.NumItems); err != nil {
		return err
	}
	if n, err := sp.GIS.Check(); err != nil {
		return err
	} else if n != sp.NumItems {
		return fmt.Errorf("GIS covers %d items, model has %d", n, sp.NumItems)
	}
	return nil
}

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
	sp := &SharedPart{
		Config:    wire.Config,
		NumUsers:  wire.NumUsers,
		NumItems:  wire.NumItems,
		MinRating: wire.MinRating,
		MaxRating: wire.MaxRating,
		HasTimes:  wire.HasTimes,
		GIS:       wire.GIS,
		Clusters:  wire.Clusters,
	}
	if err := sp.check(); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt shared blob: %w", err)
	}
	return sp, nil
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
// timestamps). It derives the GIS weights from the matrix it builds, so
// the assembled model predicts bit-for-bit like the saved one.
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
		return nil, fmt.Errorf("cfsf: corrupt model: %w", err)
	}
	stampRebuildDuration(mod, start)
	return mod, nil
}
