package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"strings"
	"testing"

	"cfsf/internal/ratings"
)

// The four testdata blobs were written by commit 331211a, the last that
// honours Config.TimeDecayTau: Save and SaveSharedBlob of refusalFixture
// trained with τ = 0 (tau0.*) and τ = 500 (tau500.*). tau0Grid is that
// build's sha256 over the bits of every Predict(u, i) of the τ = 0 model,
// user-major — the same for the trained, the loaded and the assembled
// one. (Not a hash of blob bytes: gob numbers types process-wide in order
// of first use, so those depend on what else the process encoded.)
const tau0Grid = "dfa456ac4d0c12f16104b31e50de070239ca53a3cc3c995463f07cbd4fecf654"

// gridHash is the sha256 over the big-endian bits of every Predict(u, i)
// of mod, user-major: the form tau0Grid is pinned in.
func gridHash(mod *Model) string {
	h := sha256.New()
	for _, v := range gridPredictions(mod) {
		h.Write(binary.BigEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refusalFixture(t *testing.T) (*ratings.Matrix, Config) {
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

// TestTimeDecayTauIsRefused: every way a τ > 0 config can reach a model —
// Train, a saved model, a snapshot's shared blob — fails naming the
// field, and the same three with τ = 0 give the model the parent gave.
func TestTimeDecayTauIsRefused(t *testing.T) {
	m, cfg := refusalFixture(t)
	read := func(name string) *bytes.Reader {
		t.Helper()
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(data)
	}
	for _, tc := range []struct {
		name string
		open func(tau string) (*Model, error)
	}{
		{"Train", func(tau string) (*Model, error) {
			c := cfg
			if tau != "tau0" {
				c.TimeDecayTau = 500
			}
			return Train(m, c)
		}},
		{"Load", func(tau string) (*Model, error) {
			return Load(read(tau + ".model"))
		}},
		{"LoadSharedPart", func(tau string) (*Model, error) {
			sp, err := LoadSharedPart(read(tau + ".shared"))
			if err != nil {
				return nil, err
			}
			rows := make([][]ratings.Entry, sp.NumUsers)
			times := make([][]int64, sp.NumUsers)
			for u := range rows {
				rows[u], times[u] = m.UserRatings(u), m.UserRatingTimes(u)
			}
			return AssembleModel(sp, rows, times)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.open("tau500"); err == nil || !strings.Contains(err.Error(), "TimeDecayTau") {
				t.Errorf("τ = 500: err = %v, want one naming TimeDecayTau", err)
			}
			mod, err := tc.open("tau0")
			if err != nil {
				t.Fatalf("τ = 0: %v", err)
			}
			if got := gridHash(mod); got != tau0Grid {
				t.Errorf("τ = 0: prediction grid hashes to %s, want the parent's %s", got, tau0Grid)
			}
		})
	}
}
