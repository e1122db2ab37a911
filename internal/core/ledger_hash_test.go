package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// Two hashes of the model a first boot of the ledger fixture trains
// (synth.DefaultConfig through u.data and back, DefaultConfig), computed
// at commit 246d90a, whose GIS build accumulated every pair from both
// ends. Neither depends on a blob format, which /admin/fingerprint does.
const (
	// ledgerGIS is the sha256 of, item by item, the list length as a
	// uint32 and then each entry's id as a uint32 and score bits as a
	// uint64, all little-endian.
	ledgerGIS = "3f629903d3eaddcddbf69a0421b7bcddadcb45ed489829d8d9a641e6588a8eb7"
	// ledgerGrid is the sha256 of the little-endian bits of Predict(u, i)
	// for every 7th user and every item, user-major.
	ledgerGrid = "e3b04f1bc9a21c7322ffc68cc2ef64dc38a1cc8f66a48f120789b04451cda0d9"
)

// TestLedgerModelMatchesTheTwoEndedBuild: the one-pass GIS build leaves
// the ledger model's GIS and predictions bit for bit where they were.
func TestLedgerModelMatchesTheTwoEndedBuild(t *testing.T) {
	var udata bytes.Buffer
	if err := ratings.WriteUData(&udata, synth.MustGenerate(synth.DefaultConfig()).Matrix); err != nil {
		t.Fatal(err)
	}
	m, err := ratings.ReadUData(&udata)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Train(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	g := mod.GIS()
	for i := 0; i < g.NumItems(); i++ {
		list := g.Neighbors(i)
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(list))))
		for _, n := range list {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(n.Index)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(n.Score)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ledgerGIS {
		t.Errorf("GIS content hashes to %s, want %s", got, ledgerGIS)
	}

	var pairs []Pair
	for u := 0; u < m.NumUsers(); u += 7 {
		for i := 0; i < m.NumItems(); i++ {
			pairs = append(pairs, Pair{User: u, Item: i})
		}
	}
	h.Reset()
	for _, v := range mod.PredictBatch(pairs) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ledgerGrid {
		t.Errorf("prediction grid hashes to %s, want %s", got, ledgerGrid)
	}
	if st := mod.Stats(); st.GISNeighbors != 199152 || st.GISPushOrder != 21 {
		t.Errorf("stats: %s, want 199152 entries, 21 by push order", st.GISSummary())
	}
}
