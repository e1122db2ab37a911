package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// Two hashes of the model a first boot of the ledger fixture trains
// (synth.DefaultConfig through u.data and back, DefaultConfig). ledgerGrid
// was computed at commit 246d90a, whose GIS build accumulated every pair
// from both ends, ledgerGIS at ac5d191, whose lists ran to TopN 200.
// Neither depends on a blob format, which /admin/fingerprint does, nor on
// TopN: Eq. 12 reads the top M of each list, and they hash that.
const (
	// ledgerGIS is the sha256 of, item by item, the length of the list's
	// top-M prefix as a uint32 and then each of its entries' id as a
	// uint32 and score bits as a uint64, all little-endian.
	ledgerGIS = "d59554351d95805891c6c07c3d1bcf3134c17d2e14c956db0030c62ff41f9801"
	// ledgerGrid is the sha256 of the little-endian bits of Predict(u, i)
	// for every 7th user and every item, user-major.
	ledgerGrid = "e3b04f1bc9a21c7322ffc68cc2ef64dc38a1cc8f66a48f120789b04451cda0d9"
)

// TestLedgerModelMatchesTheTwoEndedBuild: the one-pass GIS build, which
// selects by the canonical order and cuts at the TopN buffer, leaves the
// ledger model's served GIS prefixes and predictions bit for bit where
// they were — the predictions summed in id order, as that build summed
// them; served in score order they are within 1e-12 of those.
func TestLedgerModelMatchesTheTwoEndedBuild(t *testing.T) {
	mod, err := Train(ledgerTrain(t), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	g := mod.GIS()
	for i := 0; i < g.NumItems(); i++ {
		list := mod.topItems(i)
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(list))))
		for _, n := range list {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(n.Index)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(n.Score)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ledgerGIS {
		t.Errorf("GIS content hashes to %s, want %s", got, ledgerGIS)
	}
	if got := predictGridHash(mod); got != ledgerGrid {
		t.Errorf("prediction grid hashes to %s, want %s", got, ledgerGrid)
	}
	requireNearIDOrder(t, mod, 7)
	if got, want := mod.Stats().GISNeighbors, 1000*DefaultConfig().GIS.TopN; got != want {
		t.Errorf("the GIS holds %d entries, want %d: every list cut at TopN", got, want)
	}
}

// requireNearIDOrder fails unless Predict(u, i), which sums Eq. 12 over
// the item's top-M prefix in score order, is within 1e-12 of its id-order
// evaluation (idOrderGrid) for every stride-th user and every item. The
// two sum the same cells, so they differ only by rounding.
func requireNearIDOrder(t *testing.T, mod *Model, stride int) {
	t.Helper()
	byID := idOrderGrid(mod, stride)
	q := mod.Matrix().NumItems()
	pairs := make([]Pair, len(byID))
	for k := range pairs {
		pairs[k] = Pair{User: k / q * stride, Item: k % q}
	}
	var moved int
	var worst float64
	for k, got := range mod.PredictBatch(pairs) {
		d := math.Abs(got - byID[k])
		if d > 1e-12 {
			t.Fatalf("Predict(%d, %d) = %v, %v in id order", pairs[k].User, pairs[k].Item, got, byID[k])
		}
		if d > 0 {
			moved++
		}
		worst = max(worst, d)
	}
	t.Logf("%d of %d cells differ from their id-order evaluation, by at most %.3g", moved, len(byID), worst)
}
