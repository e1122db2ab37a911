package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/similarity"
)

func requireSameGIS(t *testing.T, want, got *similarity.GIS, ctx string) {
	t.Helper()
	if got.Options() != want.Options() || got.NumItems() != want.NumItems() {
		t.Fatalf("%s: options/items = %+v/%d, want %+v/%d", ctx, got.Options(), got.NumItems(), want.Options(), want.NumItems())
	}
	for i := 0; i < want.NumItems(); i++ {
		w, g := want.Neighbors(i), got.Neighbors(i)
		if len(g) != len(w) {
			t.Fatalf("%s: item %d has %d neighbours, want %d", ctx, i, len(g), len(w))
		}
		for k := range w {
			if g[k].Index != w[k].Index || math.Float64bits(g[k].Score) != math.Float64bits(w[k].Score) {
				t.Fatalf("%s: item %d entry %d = %v, want %v", ctx, i, k, g[k], w[k])
			}
		}
		if w, g := want.Horizon(i), got.Horizon(i); g.Index != w.Index || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s: item %d has horizon %v, want %v", ctx, i, g, w)
		}
	}
	if err := got.CheckHolders(want); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

func requireSameRecommendations(t *testing.T, want, got *Model, ctx string) {
	t.Helper()
	for u := 0; u < want.Matrix().NumUsers(); u++ {
		w, g := want.Recommend(u, 5), got.Recommend(u, 5)
		if len(w) != len(g) {
			t.Fatalf("%s: user %d gets %d recommendations, want %d", ctx, u, len(g), len(w))
		}
		for k := range w {
			if w[k] != g[k] {
				t.Fatalf("%s: user %d recommendation %d = %+v, want %+v", ctx, u, k, g[k], w[k])
			}
		}
	}
}

// cutGrid is gridHash of refusalFixture's model trained at TopN = M = 4
// with cutUpdates applied, as f163a25 served it when it saved that model
// as testdata/file-v5-cut.cfsf.
const cutGrid = "1b36613668d61125c36a735bebb6c93edf55ced4f418a8766654cd6b20068eab"

// cutUpdates are the ratings applied to the cut model of
// testdata/file-v5-cut.cfsf and of FuzzDecode's corpus.
var cutUpdates = []RatingUpdate{{User: 0, Item: 2, Value: 5}, {User: 3, Item: 0, Value: 1}, {User: 11, Item: 9, Value: 2}}

// TestModelFileV5LoadsAndResavesAsV6: f163a25, the last build to write
// model file version 5, saved two of refusalFixture's models, which store
// every GIS list as an id set beside its horizon: testdata/file-v5.cfsf,
// its file-v4.cfsf (which ac5d191 saved) loaded and saved again, whose GIS
// options run to TopN 200, and testdata/file-v5-cut.cfsf, trained at
// TopN = M = 4 with cutUpdates applied, so that nine of its ten horizons
// are set. Each decodes through the one fileWire, its sets skipped, loads
// to the grid that build served — tau0Grid and cutGrid — with the GIS,
// horizons included, recommendations, rows and timestamps of the model
// built here the same way, and re-saves as version 6, which loads to the
// same.
func TestModelFileV5LoadsAndResavesAsV6(t *testing.T) {
	for _, fx := range []struct {
		file, grid string
		topN       int
		updates    []RatingUpdate
	}{
		{"file-v5.cfsf", tau0Grid, 200, nil},
		{"file-v5-cut.cfsf", cutGrid, 4, cutUpdates},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		wire := wireOf(t, data)
		if wire.Version != 5 || wire.Config.GIS.TopN != fx.topN {
			t.Fatalf("%s is a version %d file at TopN %d, want version 5 at %d", fx.file, wire.Version, wire.Config.GIS.TopN, fx.topN)
		}
		m, cfg := refusalFixture(t)
		cfg.GIS = wire.Config.GIS
		live, err := Train(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if live, err = live.Apply(fx.updates); err != nil {
			t.Fatal(err)
		}
		old, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := old.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if v := wireOf(t, buf.Bytes()).Version; v != 6 {
			t.Fatalf("%s: the re-save is a version %d file, want 6", fx.file, v)
		}
		t.Logf("%s: %d bytes, its version 6 re-save %d", fx.file, len(data), buf.Len())
		resaved, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for ctx, got := range map[string]*Model{fx.file: old, fx.file + " re-saved": resaved} {
			if h := gridHash(got); h != fx.grid {
				t.Fatalf("%s: prediction grid hashes to %s, want %s", ctx, h, fx.grid)
			}
			requireSameGIS(t, live.GIS(), got.GIS(), ctx)
			requireSameRecommendations(t, live, got, ctx)
			lm := live.Matrix()
			for u := 0; u < lm.NumUsers(); u++ {
				if !slices.Equal(got.Matrix().UserRatings(u), lm.UserRatings(u)) || !slices.Equal(got.Matrix().UserRatingTimes(u), lm.UserRatingTimes(u)) {
					t.Fatalf("%s: user %d's row or timestamps differ from the fixture's", ctx, u)
				}
			}
		}
	}
}

// wireOf is the payload of the model file data.
func wireOf(t *testing.T, data []byte) fileWire {
	t.Helper()
	payload, err := readBlob(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var wire fileWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

// frameOf gob-encodes wire and frames it as a model file.
func frameOf(t testing.TB, wire any) *bytes.Buffer {
	t.Helper()
	var payload, blob bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if err := writeBlob(&blob, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return &blob
}

// TestFutureWireVersionsAreRefused: a model file one version ahead of
// what this build writes is refused by its number, whatever it holds.
func TestFutureWireVersionsAreRefused(t *testing.T) {
	if fileWireVersion != 6 {
		t.Fatalf("this build writes model file version %d; the tests here pin 6", fileWireVersion)
	}
	mod, _ := trainSmall(t)
	file := fileWireOf(t, mod)
	file.Version = fileWireVersion + 1
	if _, err := Load(frameOf(t, file)); err == nil || !strings.Contains(err.Error(), "unsupported model file version 7") {
		t.Errorf("Load: err = %v, want a refusal naming version 7", err)
	}
}

// fileWireOf decodes the payload Save writes for mod, for tests that
// change one thing in it before framing it again.
func fileWireOf(t testing.TB, mod *Model) fileWire {
	t.Helper()
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := readBlob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wire fileWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestModelFileGISMustCoverTheItems: a model file whose GIS horizons
// cover another number of items than the model has is refused at load
// rather than at the first Predict.
func TestModelFileGISMustCoverTheItems(t *testing.T) {
	mod, _ := trainSmall(t)
	if _, err := Load(frameOf(t, fileWireOf(t, mod))); err != nil {
		t.Fatalf("the unmodified file: %v", err)
	}
	taus, _, _, _ := fileColumns(mod, fileWireOf(t, mod).Scale)
	for _, tc := range []struct {
		name   string
		mutate func(*similarity.Snapshot)
	}{
		{"one item short", func(s *similarity.Snapshot) {
			s.TauIDs, s.TauScores = mathx.EncodeRice(taus[:len(taus)-1]), s.TauScores[:len(s.TauScores)-8]
		}},
		{"no GIS at all", func(s *similarity.Snapshot) { *s = similarity.Snapshot{Opts: s.Opts} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := fileWireOf(t, mod)
			tc.mutate(&wire.GIS)
			if _, err := Load(frameOf(t, wire)); err == nil || !strings.Contains(err.Error(), "corrupt model file") {
				t.Fatalf("err = %v, want a corrupt-file refusal", err)
			}
		})
	}
}

// TestSaveLoadKeepsTimes: the model file carries the timestamps, so a
// model loaded from it is timed, and saves them again.
func TestSaveLoadKeepsTimes(t *testing.T) {
	m, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Matrix().HasTimes() {
		t.Fatal("a timed model saved and loaded came back untimed")
	}
	for u := 0; u < m.NumUsers(); u++ {
		if got, want := loaded.Matrix().UserRatingTimes(u), m.UserRatingTimes(u); !slices.Equal(got, want) {
			t.Fatalf("user %d timestamps = %v, want %v", u, got, want)
		}
	}
	buf.Reset()
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Times == nil {
		t.Fatal("the loaded model's file carries no timestamps")
	}
	for u := 0; u < m.NumUsers(); u++ {
		if want := m.UserRatingTimes(u); !slices.Equal(f.Times[u], want) {
			t.Fatalf("user %d timestamps in the re-save = %v, want %v", u, f.Times[u], want)
		}
	}
}

// FuzzDecode: a model file is outside input twice — read from disk, and
// fetched from a leader — and its checksum guards only against damage in
// between. So whatever gob payload a valid frame carries, Decode must
// refuse it or accept it without panicking, and a model it accepts must
// save to a file that decodes again. Payloads stay under 4 KiB so that no
// accepted file's dimensions, which size the centroids and smoothing
// tables, outgrow a test machine. The corpus is refusalFixture's model as
// this build saves it and as f163a25 saved it (testdata/file-v5.cfsf), and
// the same model cut to TopN = M = 4 with cutUpdates folded in, so that
// its horizons are set: as this build saves it, with the horizon of a
// list moved to its last entry, to the zero τ and past the catalogue, and
// as f163a25 saved it (testdata/file-v5-cut.cfsf).
func FuzzDecode(f *testing.F) {
	m, cfg := refusalFixture(f)
	mod, err := Train(m, cfg)
	if err != nil {
		f.Fatal(err)
	}
	cfg.GIS.TopN = cfg.M
	cut, err := Train(m, cfg)
	if err != nil {
		f.Fatal(err)
	}
	if cut, err = cut.Apply(cutUpdates); err != nil {
		f.Fatal(err)
	}
	var files [][]byte
	for _, mod := range []*Model{mod, cut} {
		var buf bytes.Buffer
		if err := mod.Save(&buf); err != nil {
			f.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	for _, name := range []string{"file-v5.cfsf", "file-v5-cut.cfsf"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		files = append(files, data)
	}
	for _, file := range files {
		payload, err := readBlob(bytes.NewReader(file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	last := cut.GIS().Neighbors(0)[cfg.M-1]
	for _, tau := range []mathx.Scored{last, {}, {Index: 10, Score: .5}} {
		wire := fileWireOf(f, cut)
		taus := make([]uint64, 10)
		for i := range taus {
			taus[i] = uint64(cut.GIS().Horizon(i).Index)
		}
		taus[0] = uint64(tau.Index)
		wire.GIS.TauIDs = mathx.EncodeRice(taus)
		binary.LittleEndian.PutUint64(wire.GIS.TauScores, math.Float64bits(tau.Score))
		payload, err := readBlob(frameOf(f, wire))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > 4<<10 {
			return
		}
		var framed bytes.Buffer
		if err := writeBlob(&framed, payload); err != nil {
			t.Fatal(err)
		}
		file, err := Decode(&framed)
		if err != nil {
			return
		}
		mod, err := file.Model()
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := mod.Save(&out); err != nil {
			t.Fatalf("an accepted model does not save: %v", err)
		}
		if _, err := Decode(&out); err != nil {
			t.Fatalf("an accepted model saves to a file Decode refuses: %v", err)
		}
	})
}
