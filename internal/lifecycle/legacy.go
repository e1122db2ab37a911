package lifecycle

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
)

// A data dir written by a build up to 8cb6e8a holds its recovery points as
// manifests: a JSON document naming one shared blob (config, GIS,
// clustering) and one blob per user-cluster shard (that shard's matrix
// rows). This build writes none of them. When no snapshot file in a data
// dir loads, the boot ladder assembles the newest loadable manifest from
// its blobs, read-only, and the boot snapshot that follows writes a
// snapshot file; once that file is verified, retention deletes every
// manifest and blob.
const (
	manifestPrefix  = "manifest-"
	manifestSuffix  = ".json"
	manifestVersion = 1

	sharedBlobPrefix = "shared-"
	shardBlobPrefix  = "shard-"
	blobSuffix       = ".blob"
)

// blobRef points a manifest at one blob file. Seq is the applied
// watermark the blob was written at: for a clean shard carried over from
// an older manifest it is older than the manifest's own Seq.
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

// readManifest decodes and validates one manifest file.
func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	label := filepath.Base(path)
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

func readShared(path string) (*core.SharedPart, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadSharedPart(f)
}

func readShard(path string) (*core.ShardPart, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadShardPart(f)
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

// assembleManifest reassembles the model a manifest describes from the
// blobs in dir. A blob that is unreadable, or inconsistent with the
// manifest or the shared blob, fails the whole point.
func assembleManifest(man *manifest, dir string) (*core.Model, error) {
	sp, err := readShared(filepath.Join(dir, man.Shared.File))
	if err != nil {
		return nil, fmt.Errorf("shared blob %s: %w", man.Shared.File, err)
	}
	if sp.NumUsers != man.Users || sp.NumItems != man.Items {
		return nil, fmt.Errorf("shared blob %s is %dx%d, manifest says %dx%d",
			man.Shared.File, sp.NumUsers, sp.NumItems, man.Users, man.Items)
	}
	if sp.NumShards() != len(man.Shards) {
		return nil, fmt.Errorf("shared blob %s has %d shards, manifest lists %d",
			man.Shared.File, sp.NumShards(), len(man.Shards))
	}
	rows := make([][]ratings.Entry, sp.NumUsers)
	var times [][]int64
	if sp.HasTimes {
		times = make([][]int64, sp.NumUsers)
	}
	for _, ref := range man.Shards {
		part, err := readShard(filepath.Join(dir, ref.File))
		if err == nil {
			err = checkShardPart(part, ref, sp)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d blob %s: %w", ref.ID, ref.File, err)
		}
		for j, u := range part.Users {
			rows[u] = part.Rows[j]
			if sp.HasTimes && part.Times != nil {
				times[u] = part.Times[j]
			}
		}
	}
	return core.AssembleModel(sp, rows, times)
}
