package replication

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"cfsf/internal/core"
)

// Fingerprint hashes a model's persisted form — the model file Save
// writes — and then every live GIS entry, its neighbour id and its
// weight's bits, item by item in list order. The file's wire struct holds
// only slices and scalars (no maps), so gob encoding is deterministic.
// The file stores each list's horizon bit for bit, so two models with
// the same lists and different horizons hash apart. It stores no list,
// which a load selects on the matrix under its horizon; hashing the live
// entries as well keeps them covered, so two models hash equal iff they
// are bit-identical in persisted state and in the lists they serve.
// Leader and follower expose this at /admin/fingerprint; comparing the
// two at the same applied sequence is the parity check.
func Fingerprint(mod *core.Model) (string, error) {
	h := sha256.New()
	if err := mod.Save(h); err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	gis := mod.GIS()
	var buf []byte
	for i := 0; i < gis.NumItems(); i++ {
		for _, n := range gis.Neighbors(i) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n.Index))
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
