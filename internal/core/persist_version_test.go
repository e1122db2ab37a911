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

// TestModelFileV4LoadsAndResavesAsV5: testdata/file-v4.cfsf is
// refusalFixture's model saved by ac5d191, the last build to write model
// file version 4, whose GIS options ran to TopN 200. It stores no
// horizons, so its lists are selected again at load; it loads to the grid
// that build served (tau0Grid), the GIS — horizons included — rows and
// timestamps the model trained here under the options the fixture was
// written with holds, and re-saves as version 5, which loads to the same.
func TestModelFileV4LoadsAndResavesAsV5(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "file-v4.cfsf"))
	if err != nil {
		t.Fatal(err)
	}
	wire := wireOf(t, data)
	if wire.Version != 4 {
		t.Fatalf("the fixture is a version %d file, want 4", wire.Version)
	}
	if wire.Config.GIS.TopN != 200 {
		t.Fatalf("the fixture's GIS options run to TopN %d, want 200", wire.Config.GIS.TopN)
	}
	m, cfg := refusalFixture(t)
	cfg.GIS = wire.Config.GIS
	live, err := Train(m, cfg)
	if err != nil {
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
	if v := wireOf(t, buf.Bytes()).Version; v != 5 {
		t.Fatalf("the re-save is a version %d file, want 5", v)
	}
	t.Logf("version 4: %d bytes, its version 5 re-save %d", len(data), buf.Len())
	resaved, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for ctx, got := range map[string]*Model{"version 4": old, "its version 5 re-save": resaved} {
		if h := gridHash(got); h != tau0Grid {
			t.Fatalf("%s: prediction grid hashes to %s, want %s", ctx, h, tau0Grid)
		}
		requireSameGIS(t, live.GIS(), got.GIS(), ctx)
		requireSameRecommendations(t, live, got, ctx)
		for u := 0; u < m.NumUsers(); u++ {
			if !slices.Equal(got.Matrix().UserRatings(u), m.UserRatings(u)) || !slices.Equal(got.Matrix().UserRatingTimes(u), m.UserRatingTimes(u)) {
				t.Fatalf("%s: user %d's row or timestamps differ from the fixture's", ctx, u)
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
	if fileWireVersion != 5 {
		t.Fatalf("this build writes model file version %d; the tests here pin 5", fileWireVersion)
	}
	mod, _ := trainSmall(t)
	file := fileWireOf(t, mod)
	file.Version = fileWireVersion + 1
	if _, err := Load(frameOf(t, file)); err == nil || !strings.Contains(err.Error(), "unsupported model file version 6") {
		t.Errorf("Load: err = %v, want a refusal naming version 6", err)
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

// TestModelFileGISMustCoverTheItems: a model file whose GIS is
// malformed, or is sound but covers another number of items than the
// model has, is refused at load rather than at the first Predict.
func TestModelFileGISMustCoverTheItems(t *testing.T) {
	mod, _ := trainSmall(t)
	if _, err := Load(frameOf(t, fileWireOf(t, mod))); err != nil {
		t.Fatalf("the unmodified file: %v", err)
	}
	gis, _, _, _ := fileColumns(mod, fileWireOf(t, mod).Scale)
	for _, tc := range []struct {
		name   string
		mutate func(*similarity.Snapshot)
	}{
		{"one item short", func(s *similarity.Snapshot) {
			last := len(s.Lens) - 1
			s.SetCode = mathx.EncodeRice(gis[:len(gis)-int(s.Lens[last])])
			s.Lens = s.Lens[:last]
		}},
		{"no GIS at all", func(s *similarity.Snapshot) { *s = similarity.Snapshot{Opts: s.Opts} }},
		{"lengths beyond the entries", func(s *similarity.Snapshot) { s.Lens[0]++ }},
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
// this build saves it and as ac5d191 saved it (testdata/file-v4.cfsf), and
// the same model cut to TopN = M = 4 with a few Applies folded in, so that
// its horizons are set: as this build saves it, and with the horizon of a
// list moved to its last entry, to the zero τ and past the catalogue.
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
	if cut, err = cut.Apply([]RatingUpdate{{User: 0, Item: 2, Value: 5}, {User: 3, Item: 0, Value: 1}, {User: 11, Item: 9, Value: 2}}); err != nil {
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
	v4, err := os.ReadFile(filepath.Join("testdata", "file-v4.cfsf"))
	if err != nil {
		f.Fatal(err)
	}
	files = append(files, v4)
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
