package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
	"cfsf/internal/synth"
)

// Two hashes of the ledger model after 6 000 single-rating Applies from
// ledgerStream: the sha256 of the little-endian bits of Predict(u, i) for
// every 7th user and every item, user-major, evaluated in id order, as
// computed at ac5d191, whose lists ran to TopN 200 and never selected
// again (on that stream their top-M prefixes happened to be exact); and
// of Recommend(u, 10) for every user, each entry's item as a uint32 and
// score bits as a uint64. ac5d191's recommendations, summed in id order,
// hashed to e19fb7d894a29658b3af1e207b3909fe2a65033e49adae08d2da7f079985ad78;
// summed in GIS score order the same 500 lists hold the same items, each
// score within 2.7e-15.
const (
	appliedLedgerGrid = "d64eca57de01ce55496188abd0f01e0563f483e2e37a02e0c73080874c090649"
	appliedLedgerRecs = "7bb307d880c9257ab19265e7baf16ac5153f7f2f5eed31327922c78a8ed76642"
)

// driftStream streams, one rating at a time in a seeded order, the
// ratings of m's second draw that the training half left out: every user
// keeps rating as in the draw the model was trained on, except each third
// user, who switches to the taste of the same user in another draw.
func driftStream(t *testing.T) (train *ratings.Matrix, next func() RatingUpdate) {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Users, cfg.Items = 300, 600
	before := synth.MustGenerate(cfg).Matrix
	cfg.Seed++
	after := synth.MustGenerate(cfg).Matrix

	b := ratings.NewBuilder(cfg.Users, cfg.Items).SetScale(before.MinRating(), before.MaxRating())
	var stream []RatingUpdate
	for u := 0; u < cfg.Users; u++ {
		row := before.UserRatings(u)
		for k, e := range row {
			if k%2 == 0 {
				b.MustAdd(u, int(e.Index), e.Value)
			} else if u%3 != 0 {
				stream = append(stream, RatingUpdate{User: u, Item: int(e.Index), Value: e.Value})
			}
		}
		if u%3 == 0 {
			for _, e := range after.UserRatings(u) {
				stream = append(stream, RatingUpdate{User: u, Item: int(e.Index), Value: e.Value})
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	k := 0
	return b.Build(), func() RatingUpdate {
		up := stream[k%len(stream)]
		k++
		return up
	}
}

// ledgerTrain is the matrix a first boot of the ledger fixture trains on
// (synth.DefaultConfig through u.data and back).
func ledgerTrain(t *testing.T) *ratings.Matrix {
	t.Helper()
	var udata bytes.Buffer
	if err := ratings.WriteUData(&udata, synth.MustGenerate(synth.DefaultConfig()).Matrix); err != nil {
		t.Fatal(err)
	}
	m, err := ratings.ReadUData(&udata)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// requireFreshGIS holds every list of g against the matrix m alone: the
// list must be exactly the candidates — every pair BuildGIS would keep,
// at its weight on m — that precede the list's horizon, in canonical
// order, and its top-M prefix must be a fresh BuildGIS's under g's
// options.
func requireFreshGIS(t *testing.T, g *similarity.GIS, m *ratings.Matrix, M int, ctx string) {
	t.Helper()
	opts := g.Options()
	fresh := similarity.BuildGIS(m, opts)
	opts.TopN = 0
	all := similarity.BuildGIS(m, opts)
	for j := 0; j < m.NumItems(); j++ {
		tau, cand := g.Horizon(j), all.Neighbors(j)
		n := len(cand)
		if tau != (mathx.Scored{}) {
			n = 0
			for n < len(cand) && mathx.Precedes(cand[n], tau) {
				n++
			}
		}
		got := g.Neighbors(j)
		if len(got) != n {
			t.Fatalf("%s: item %d holds %d entries, %d candidates precede its horizon %v", ctx, j, len(got), n, tau)
		}
		for k, e := range got {
			if e.Index != cand[k].Index || math.Float64bits(e.Score) != math.Float64bits(cand[k].Score) {
				t.Fatalf("%s: item %d entry %d = %v, the candidates rank %v there", ctx, j, k, e, cand[k])
			}
		}
		a, b := g.Neighbors(j), fresh.Neighbors(j)
		a, b = a[:min(len(a), M)], b[:min(len(b), M)]
		if len(a) != len(b) {
			t.Fatalf("%s: item %d serves %d entries, a fresh build %d", ctx, j, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("%s: item %d top-M entry %d = %v, a fresh build's %v", ctx, j, k, a[k], b[k])
			}
		}
	}
}

// predictGridHash is the sha256 of the little-endian bits of Predict(u, i)
// for every 7th user and every item, user-major, each evaluated in id
// order (idOrderGrid), as ledgerGrid and appliedLedgerGrid are pinned.
func predictGridHash(mod *Model) string {
	h := sha256.New()
	for _, v := range idOrderGrid(mod, 7) {
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// idOrderGrid evaluates Predict(u, i) for every stride-th user and every
// item, user-major, with each item's top-M prefix handed to the read
// kernel sorted by item id: the order in which the builds that pinned
// ledgerGrid, appliedLedgerGrid, tau0Grid and cutGrid summed Eq. 12. The
// cells and their arithmetic are Predict's; only the order of the sums
// differs.
func idOrderGrid(mod *Model, stride int) []float64 {
	m := mod.Matrix()
	tops := make([][]mathx.Scored, m.NumItems())
	for i := range tops {
		tops[i] = byID(mod.topItems(i))
	}
	var pairs []Pair
	for u := 0; u < m.NumUsers(); u += stride {
		for i := range tops {
			pairs = append(pairs, Pair{User: u, Item: i})
		}
	}
	out := make([]float64, len(pairs))
	parallel.ForChunked(len(pairs), mod.cfg.Workers, func(lo, hi int) {
		x := new(colIndex)
		for k := lo; k < hi; k++ {
			u, i := pairs[k].User, pairs[k].Item
			out[k] = mod.predictWith(x, u, i, tops[i]).Value
		}
	})
	return out
}

// recommendHash is the sha256 of Recommend(u, 10) for every user, each
// entry's item as a uint32 and score bits as a uint64, little-endian, as
// appliedLedgerRecs is pinned.
func recommendHash(mod *Model) string {
	h := sha256.New()
	for u := 0; u < mod.Matrix().NumUsers(); u++ {
		for _, r := range mod.Recommend(u, 10) {
			h.Write(binary.LittleEndian.AppendUint32(nil, uint32(r.Item)))
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Score)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAppliedGISIsAFreshBuild is the horizon's oracle. After 6 000 chained
// single-rating Applies — from ledgerStream on the ledger fixture, and
// from driftStream, where a third of the users change taste — at TopN =
// M, at the default buffer and at 200, every list is exactly its
// candidates on the final matrix that precede its horizon, and every
// top-M prefix is a fresh BuildGIS's. The lists ac5d191 kept, which had no
// horizon and were never selected again, fail this at TopN = M on the
// ledger stream: 772 of 1 000 top-M prefixes differed from a fresh build.
// Here the Applies at TopN = M must select lists again, which is what
// those lists lacked. On every chain the GIS a Save → Load selects under
// the stored horizons is the live one, bit for bit, horizons included; on
// the ledger stream at the default buffer the model also predicts, live
// and loaded, what ac5d191 served at TopN 200 (appliedLedgerGrid, in id
// order), and recommends appliedLedgerRecs. Under the race detector each
// chain is 600 Applies long and the hashes are not held.
func TestAppliedGISIsAFreshBuild(t *testing.T) {
	applies := 6000
	if raceEnabled {
		applies = 600
	}
	M := DefaultConfig().M
	for _, stream := range []string{"ledger", "drift"} {
		for _, topN := range []int{M, DefaultConfig().GIS.TopN, 200} {
			t.Run(fmt.Sprintf("%s TopN %d", stream, topN), func(t *testing.T) {
				var m *ratings.Matrix
				var next func() RatingUpdate
				if stream == "ledger" {
					m = ledgerTrain(t)
					next = ledgerStream(m.NumUsers(), m.NumItems())
				} else {
					m, next = driftStream(t)
				}
				cfg := DefaultConfig()
				cfg.GIS.TopN = topN
				mod, err := Train(m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := 0; k < applies; k++ {
					if mod, err = mod.Apply([]RatingUpdate{next()}); err != nil {
						t.Fatal(err)
					}
				}
				ctx := fmt.Sprintf("%s after %d Applies", t.Name(), applies)
				requireFreshGIS(t, mod.GIS(), mod.Matrix(), M, ctx)
				reselected := mod.Stats().GISReselected
				t.Logf("%d lists selected again, %.2f per 1 000 Applies", reselected, 1000*float64(reselected)/float64(applies))
				if topN == M && reselected == 0 {
					t.Fatalf("%s: no list was selected again at TopN = M", ctx)
				}
				var buf bytes.Buffer
				if err := mod.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf)
				if err != nil {
					t.Fatal(err)
				}
				requireSameGIS(t, mod.GIS(), loaded.GIS(), ctx+": Save → Load")
				if raceEnabled || stream != "ledger" || topN != DefaultConfig().GIS.TopN {
					return
				}
				for name, got := range map[string]*Model{"live": mod, "Save → Load": loaded} {
					if grid, recs := predictGridHash(got), recommendHash(got); grid != appliedLedgerGrid || recs != appliedLedgerRecs {
						t.Errorf("%s: grid %s, recommendations %s; want %s, %s", name, grid, recs, appliedLedgerGrid, appliedLedgerRecs)
					}
				}
			})
		}
	}
}
