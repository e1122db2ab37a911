package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"time"

	"cfsf/internal/atomicfile"
	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
)

// modelWire is the on-disk form of a trained model. It stores what cannot
// be derived (the matrix, which neighbours each item's GIS list keeps, the
// clustering) and rebuilds the rest at load time (the GIS weights and
// smoothing tables), which keeps snapshots small and forward-compatible.
//
//cfsf:wire modelWireVersion
type modelWire struct {
	Version  int
	Config   Config
	Matrix   *ratings.Matrix
	GIS      similarity.Snapshot
	Clusters *cluster.Result
}

// modelWireVersion 4 stores the GIS as the shared blob's version 4 does:
// neighbour ids only, the weights derived from the matrix at load, unless
// the GIS blends in item attributes. The shape did not change — the Scores
// field is still there, only left empty — but the meaning did, so the
// number moved: a version-3 build refuses such a file by its version
// instead of as a GIS whose scores are missing. Version 3 files (ids and weights raw), version 2 files
// (Lens, Index, Score) and version 1 files (per-item neighbour lists, no
// timestamps) still load, with the weights they store. Version 2 added
// the matrix's timestamps.
const modelWireVersion = 4

// Save serialises the model to w in gob format. The snapshot contains
// the training matrix, the GIS neighbour lists and the clustering; Load
// rebuilds the rest of the offline state.
func (mod *Model) Save(w io.Writer) error {
	wire := modelWire{
		Version:  modelWireVersion,
		Config:   mod.cfg,
		Matrix:   mod.m,
		GIS:      mod.gisSnapshot(),
		Clusters: mod.clusters,
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("cfsf: save model: %w", err)
	}
	return nil
}

// SaveFile saves the model to path atomically and durably (temp file,
// fsync, rename, directory fsync), so a crash mid-save never leaves a
// torn model file behind.
func (mod *Model) SaveFile(path string) error {
	return atomicfile.WriteToAndSync(path, 0o644, func(f *os.File) error {
		return mod.Save(f)
	})
}

// Load reconstructs a model saved with Save. GIS weights, smoothing
// tables and the neighbour cache are rebuilt, so the loaded model
// predicts identically to the one that was saved.
//
//cfsf:wallclock-ok rebuild duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func Load(r io.Reader) (*Model, error) {
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

// LoadFile loads a model saved with SaveFile.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
