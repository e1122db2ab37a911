package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
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

// TestOlderBlobsLoadAndResaveAsVersion4: the testdata files really are
// the versions they are named for — tau0.* version 1 (per-item neighbour
// lists), v2.* version 2 (Lens, Index, Score), written by 246d90a, and
// v3.* version 3 (Lens, IDs, Scores raw), written by fd1273f, all from
// refusalFixture, as an unframed `-model` file and as a manifest's shared
// blob — and carry that layout alone; they load with the weights they
// store; what they load to re-saves as a model file, its GIS as id sets
// alone (weights and list order derived at load); and the
// models loaded from each, the ones loaded from their re-saves and the
// model trained live hold the same GIS entry for entry and answer every
// Predict and Recommend the same, the grid hashing to tau0Grid.
func TestOlderBlobsLoadAndResaveAsVersion4(t *testing.T) {
	m, cfg := refusalFixture(t)
	live, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// wantLayout checks a GIS snapshot carries the layout of the given
	// blob version alone; 5 stands for the model file's, Rice-coded id
	// sets without weights.
	wantLayout := func(ctx string, version int, snap similarity.Snapshot) {
		t.Helper()
		ids, scores := len(snap.Lens) > 0 && len(snap.IDs) > 0, len(snap.Scores) > 0
		flat := len(snap.Index) > 0 || len(snap.Score) > 0
		perItem := len(snap.Neighbors) > 0
		sets := len(snap.Lens) > 0 && len(snap.SetCode.Bits) > 0
		if ids != (version == 3 || version == 4) || scores != (version == 3) || flat != (version == 2) || perItem != (version == 1) || sets != (version == 5) {
			t.Fatalf("%s: version %d carries ids=%v scores=%v flat=%v per-item=%v sets=%v", ctx, version, ids, scores, flat, perItem, sets)
		}
	}
	compare := func(ctx string, got *Model) {
		t.Helper()
		requireSameGIS(t, live.GIS(), got.GIS(), ctx)
		requireSamePredictions(t, gridPredictions(live), gridPredictions(got), ctx)
		requireSameRecommendations(t, live, got, ctx)
		if h := gridHash(got); h != tau0Grid {
			t.Fatalf("%s: prediction grid hashes to %s, want %s", ctx, h, tau0Grid)
		}
	}
	// resave writes old as a model file and loads that back.
	resave := func(ctx string, old *Model) *Model {
		t.Helper()
		var buf bytes.Buffer
		if err := old.Save(&buf); err != nil {
			t.Fatal(err)
		}
		f, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		wantLayout(ctx, 5, f.GIS)
		mod, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		return mod
	}
	fixtures := []struct {
		name    string
		version int
	}{{"tau0", 1}, {"v2", 2}, {"v3", 3}}

	t.Run("model", func(t *testing.T) {
		for _, fx := range fixtures {
			data, err := os.ReadFile("testdata/" + fx.name + ".model")
			if err != nil {
				t.Fatal(err)
			}
			var wire modelWire
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
				t.Fatal(err)
			}
			if wire.Version != fx.version {
				t.Fatalf("%s: wire version %d, want %d", fx.name, wire.Version, fx.version)
			}
			wantLayout(fx.name, fx.version, wire.GIS)
			old, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			compare(fmt.Sprintf("loaded from version %d", fx.version), old)
			compare(fmt.Sprintf("loaded from the re-save of version %d", fx.version), resave(fx.name+" re-saved", old))
		}
	})

	t.Run("shared blob", func(t *testing.T) {
		for _, fx := range fixtures {
			data, err := os.ReadFile("testdata/" + fx.name + ".shared")
			if err != nil {
				t.Fatal(err)
			}
			payload, err := readBlob(bytes.NewReader(data), blobKindShared)
			if err != nil {
				t.Fatal(err)
			}
			var wire sharedWire
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
				t.Fatal(err)
			}
			if wire.Version != fx.version {
				t.Fatalf("%s: wire version %d, want %d", fx.name, wire.Version, fx.version)
			}
			wantLayout(fx.name, fx.version, wire.GIS)
			sp, err := LoadSharedPart(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			rows, times := make([][]ratings.Entry, sp.NumUsers), make([][]int64, sp.NumUsers)
			for u := range rows {
				rows[u], times[u] = m.UserRatings(u), m.UserRatingTimes(u)
			}
			old, err := AssembleModel(sp, rows, times)
			if err != nil {
				t.Fatal(err)
			}
			compare(fmt.Sprintf("assembled from version %d", fx.version), old)
			compare(fmt.Sprintf("loaded from the re-save of version %d", fx.version), resave(fx.name+" re-saved", old))
		}
	})
}

// sharedWireOf is the payload a shared blob of mod held, for tests that
// change one thing in it before framing it as a blob.
func sharedWireOf(mod *Model) sharedWire {
	return sharedWire{Version: sharedBlobVersion, Config: mod.cfg, NumUsers: mod.m.NumUsers(), NumItems: mod.m.NumItems(),
		MinRating: mod.m.MinRating(), MaxRating: mod.m.MaxRating(), HasTimes: mod.m.HasTimes(),
		GIS: listOrdered(mod.GIS(), mod.cfg.blendsContent()), Clusters: mod.clusters}
}

// listOrdered is g's snapshot in the layout shared blob version 4 and
// model file version 1 stored: each list in list order, one id in
// IDWidth bytes, the weights left to derive unless withScores is set.
func listOrdered(g *similarity.GIS, withScores bool) similarity.Snapshot {
	snap := similarity.Snapshot{Lens: make([]int32, g.NumItems()), Opts: g.Options()}
	w := similarity.IDWidth(g.NumItems())
	for i := range snap.Lens {
		snap.Lens[i] = int32(len(g.Neighbors(i)))
		for _, n := range g.Neighbors(i) {
			if w == 2 {
				snap.IDs = binary.LittleEndian.AppendUint16(snap.IDs, uint16(n.Index))
			} else {
				snap.IDs = binary.LittleEndian.AppendUint32(snap.IDs, uint32(n.Index))
			}
			if withScores {
				snap.Scores = binary.LittleEndian.AppendUint64(snap.Scores, math.Float64bits(n.Score))
			}
		}
	}
	return snap
}

func sharedBlobOf(t *testing.T, wire sharedWire) *bytes.Buffer {
	t.Helper()
	return frameOf(t, blobKindShared, wire)
}

// frameOf gob-encodes wire and frames it as a blob of the given kind.
func frameOf(t *testing.T, kind byte, wire any) *bytes.Buffer {
	t.Helper()
	var payload, blob bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if err := writeBlob(&blob, kind, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return &blob
}

// TestFutureWireVersionsAreRefused: a file one version ahead of what this
// build knows is refused by its number, whatever it holds: a model file,
// and the older formats this build only reads.
func TestFutureWireVersionsAreRefused(t *testing.T) {
	if fileWireVersion != 3 || sharedBlobVersion != 4 || modelWireVersion != 4 {
		t.Fatalf("this build writes model file version %d and reads shared blob version %d and model version %d; the tests here pin 3, 4 and 4",
			fileWireVersion, sharedBlobVersion, modelWireVersion)
	}
	mod, _ := trainSmall(t)
	file := fileWireOf(t, mod)
	file.Version = fileWireVersion + 1
	if _, err := Load(frameOf(t, blobKindModel, file)); err == nil || !strings.Contains(err.Error(), "version 4") {
		t.Errorf("Load of a model file: err = %v, want a refusal naming version 4", err)
	}

	var buf bytes.Buffer
	model := modelWire{Version: modelWireVersion + 1, Config: mod.cfg, Matrix: mod.m, GIS: mod.gisSnapshot(), Clusters: mod.clusters}
	if err := gob.NewEncoder(&buf).Encode(model); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "version 5") {
		t.Errorf("Load of an unframed file: err = %v, want a refusal naming version 5", err)
	}

	shared := sharedWireOf(mod)
	shared.Version = sharedBlobVersion + 1
	if _, err := LoadSharedPart(sharedBlobOf(t, shared)); err == nil || !strings.Contains(err.Error(), "version 5") {
		t.Errorf("LoadSharedPart: err = %v, want a refusal naming version 5", err)
	}
}

// fileWireOf decodes the payload Save writes for mod, for tests that
// change one thing in it before framing it again.
func fileWireOf(t *testing.T, mod *Model) fileWire {
	t.Helper()
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	payload, err := readBlob(&buf, blobKindModel)
	if err != nil {
		t.Fatal(err)
	}
	var wire fileWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

// fileWireV1Of is mod's payload as a version 1 model file held it: row
// items one int32 each beside float64 values and int64 timestamps, and
// the clustering whole, deep-copied so a test can change it.
func fileWireV1Of(t *testing.T, mod *Model) fileWire {
	t.Helper()
	wire := fileWireOf(t, mod)
	wire.Version, wire.GIS = 1, listOrdered(mod.GIS(), mod.cfg.blendsContent())
	wire.ItemCode, wire.Scale, wire.ValueCode, wire.TimeCode = mathx.RiceCode{}, nil, mathx.RiceCode{}, mathx.RiceCode{}
	for u := 0; u < mod.m.NumUsers(); u++ {
		for _, e := range mod.m.UserRatings(u) {
			wire.Items, wire.Values = append(wire.Items, e.Index), append(wire.Values, e.Value)
		}
		wire.Times = append(wire.Times, mod.m.UserRatingTimes(u)...)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(mod.clusters); err != nil {
		t.Fatal(err)
	}
	wire.Clusters = nil
	if err := gob.NewDecoder(&buf).Decode(&wire.Clusters); err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestSharedBlobGISMustCoverTheItems: a shared blob whose GIS is
// malformed, or is sound but covers another number of items than the
// model has, is refused at load rather than at the first Predict.
func TestSharedBlobGISMustCoverTheItems(t *testing.T) {
	mod, _ := trainSmall(t)
	if _, err := LoadSharedPart(sharedBlobOf(t, sharedWireOf(mod))); err != nil {
		t.Fatalf("the unmodified blob: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*similarity.Snapshot)
	}{
		{"one item short", func(s *similarity.Snapshot) {
			last := len(s.Lens) - 1
			w := similarity.IDWidth(len(s.Lens))
			n := len(s.IDs)/w - int(s.Lens[last])
			s.Lens, s.IDs = s.Lens[:last], s.IDs[:n*similarity.IDWidth(last)]
		}},
		{"no GIS at all", func(s *similarity.Snapshot) { *s = similarity.Snapshot{Opts: s.Opts} }},
		{"lengths beyond the entries", func(s *similarity.Snapshot) { s.Lens[0]++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := sharedWireOf(mod)
			tc.mutate(&wire.GIS)
			if _, err := LoadSharedPart(sharedBlobOf(t, wire)); err == nil || !strings.Contains(err.Error(), "corrupt shared blob") {
				t.Fatalf("err = %v, want a corrupt-blob refusal", err)
			}
		})
	}
}

// TestSaveLoadKeepsTimes: the model file carries the timestamps (the
// unframed file's version 1 had no place for them and dropped every one),
// so a model loaded from it is timed, and saves them again.
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
