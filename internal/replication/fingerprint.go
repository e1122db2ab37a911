package replication

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"cfsf/internal/core"
)

// Fingerprint hashes a model's full persisted form — the shared blob
// followed by every shard blob, in shard order — and then the bits of
// every live GIS weight, item by item in list order. The blob wire
// structs hold only slices and scalars (no maps), so gob encoding is
// deterministic. The shared blob stores which neighbours each item keeps
// but not their weights, which a load derives from the matrix; hashing
// the live weights as well keeps them covered, so two models hash equal
// iff they are bit-identical in persisted state and in the weights they
// serve. Leader and follower expose this at /admin/fingerprint; comparing
// the two at the same applied sequence is the parity check.
func Fingerprint(mod *core.Model) (string, error) {
	h := sha256.New()
	if err := mod.SaveSharedBlob(h); err != nil {
		return "", fmt.Errorf("fingerprint shared: %w", err)
	}
	for s := 0; s < mod.Clusters().K; s++ {
		if err := mod.SaveShardBlob(h, s); err != nil {
			return "", fmt.Errorf("fingerprint shard %d: %w", s, err)
		}
	}
	gis := mod.GIS()
	var buf []byte
	for i := 0; i < gis.NumItems(); i++ {
		for _, n := range gis.Neighbors(i) {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(n.Score))
		}
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)), nil
}
