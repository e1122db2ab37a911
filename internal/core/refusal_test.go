package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cfsf/internal/ratings"
)

// tau0Grid is the sha256 over the bits of every Predict(u, i) of
// refusalFixture's model, user-major, as commit 331211a served it (with
// time decay at τ = 0, the only τ since) and every build since has: the
// trained model and the ones loaded from testdata/file-v5.cfsf, which
// f163a25 saved. (Not a hash of file bytes: gob numbers types
// process-wide in order of first use, so those depend on what else the
// process encoded.)
const tau0Grid = "dfa456ac4d0c12f16104b31e50de070239ca53a3cc3c995463f07cbd4fecf654"

// gridHash is the sha256 over the big-endian bits of every Predict(u, i)
// of mod, user-major, each evaluated in id order (idOrderGrid): the form
// tau0Grid is pinned in.
func gridHash(mod *Model) string {
	h := sha256.New()
	for _, v := range idOrderGrid(mod, 1) {
		h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refusalFixture(t testing.TB) (*ratings.Matrix, Config) {
	t.Helper()
	b := ratings.NewBuilder(12, 10).SetScale(1, 5)
	for u := 0; u < 12; u++ {
		for i := 0; i < 10; i++ {
			if (u*7+i*3)%4 != 0 {
				if err := b.AddWithTime(u, i, float64(1+(u*i+u+i)%5), int64(1000+u*10+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cfg := DefaultConfig()
	cfg.M, cfg.K, cfg.Clusters, cfg.Seed = 4, 3, 2, 1
	return b.Build(), cfg
}
