package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

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

// TestOlderBlobsLoadAndResaveAsVersion4: the testdata blobs really are
// the versions they are named for — tau0.* version 1 (per-item neighbour
// lists), v2.* version 2 (Lens, Index, Score), written by 246d90a, and
// v3.* version 3 (Lens, IDs, Scores raw), written by fd1273f, all from
// refusalFixture — and carry that layout alone; they load with the
// weights they store; what they load to re-saves as version 4 (Lens and
// IDs, no Scores: the weights are derived at load); and the models loaded
// from each, the ones loaded from their re-saves and the model trained
// live hold the same GIS entry for entry and answer every Predict and
// Recommend the same, the grid hashing to tau0Grid.
func TestOlderBlobsLoadAndResaveAsVersion4(t *testing.T) {
	m, cfg := refusalFixture(t)
	live, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantLayout := func(ctx string, version, wantVersion int, snap similarity.Snapshot) {
		t.Helper()
		if version != wantVersion {
			t.Fatalf("%s: wire version %d, want %d", ctx, version, wantVersion)
		}
		ids, scores := len(snap.Lens) > 0 && len(snap.IDs) > 0, len(snap.Scores) > 0
		flat := len(snap.Index) > 0 || len(snap.Score) > 0
		perItem := len(snap.Neighbors) > 0
		if ids != (wantVersion >= 3) || scores != (wantVersion == 3) || flat != (wantVersion == 2) || perItem != (wantVersion == 1) {
			t.Fatalf("%s: version %d carries ids=%v scores=%v flat=%v per-item=%v", ctx, version, ids, scores, flat, perItem)
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
			wantLayout(fx.name, wire.Version, fx.version, wire.GIS)
			old, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			compare(fmt.Sprintf("loaded from version %d", fx.version), old)

			var buf bytes.Buffer
			if err := old.Save(&buf); err != nil {
				t.Fatal(err)
			}
			wire = modelWire{}
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&wire); err != nil {
				t.Fatal(err)
			}
			wantLayout(fx.name+" re-saved", wire.Version, 4, wire.GIS)
			resaved, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			compare(fmt.Sprintf("loaded from the version-4 re-save of version %d", fx.version), resaved)
		}
	})

	t.Run("shared blob", func(t *testing.T) {
		decode := func(blob []byte) sharedWire {
			t.Helper()
			payload, err := readBlob(bytes.NewReader(blob), blobKindShared)
			if err != nil {
				t.Fatal(err)
			}
			var wire sharedWire
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
				t.Fatal(err)
			}
			return wire
		}
		assemble := func(blob []byte) *Model {
			t.Helper()
			sp, err := LoadSharedPart(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			rows, times := make([][]ratings.Entry, sp.NumUsers), make([][]int64, sp.NumUsers)
			for u := range rows {
				rows[u], times[u] = m.UserRatings(u), m.UserRatingTimes(u)
			}
			mod, err := AssembleModel(sp, rows, times)
			if err != nil {
				t.Fatal(err)
			}
			return mod
		}
		for _, fx := range fixtures {
			data, err := os.ReadFile("testdata/" + fx.name + ".shared")
			if err != nil {
				t.Fatal(err)
			}
			wantLayout(fx.name, decode(data).Version, fx.version, decode(data).GIS)
			old := assemble(data)
			compare(fmt.Sprintf("assembled from version %d", fx.version), old)

			var buf bytes.Buffer
			if err := old.SaveSharedBlob(&buf); err != nil {
				t.Fatal(err)
			}
			wire := decode(buf.Bytes())
			wantLayout(fx.name+" re-saved", wire.Version, 4, wire.GIS)
			compare(fmt.Sprintf("assembled from the version-4 re-save of version %d", fx.version), assemble(buf.Bytes()))
		}
	})
}

// sharedWireOf is the payload SaveSharedBlob writes for mod, for tests
// that change one thing in it before framing it as a blob.
func sharedWireOf(mod *Model) sharedWire {
	return sharedWire{Version: sharedBlobVersion, Config: mod.cfg, NumUsers: mod.m.NumUsers(), NumItems: mod.m.NumItems(),
		MinRating: mod.m.MinRating(), MaxRating: mod.m.MaxRating(), HasTimes: mod.m.HasTimes(),
		GIS: mod.gisSnapshot(), Clusters: mod.clusters}
}

func sharedBlobOf(t *testing.T, wire sharedWire) *bytes.Buffer {
	t.Helper()
	var payload, blob bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		t.Fatal(err)
	}
	if err := writeBlob(&blob, blobKindShared, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return &blob
}

// TestFutureWireVersionsAreRefused: a blob one version ahead of this
// build is refused by its number, whatever it holds — the rule a
// version-3 build applies to the version-4 blobs this one writes.
func TestFutureWireVersionsAreRefused(t *testing.T) {
	if sharedBlobVersion != 4 || modelWireVersion != 4 {
		t.Fatalf("this build writes shared blob version %d and model version %d; the tests here pin 4", sharedBlobVersion, modelWireVersion)
	}
	mod, _ := trainSmall(t)
	var buf bytes.Buffer
	model := modelWire{Version: modelWireVersion + 1, Config: mod.cfg, Matrix: mod.m, GIS: mod.gisSnapshot(), Clusters: mod.clusters}
	if err := gob.NewEncoder(&buf).Encode(model); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), "version 5") {
		t.Errorf("Load: err = %v, want a refusal naming version 5", err)
	}

	shared := sharedWireOf(mod)
	shared.Version = sharedBlobVersion + 1
	if _, err := LoadSharedPart(sharedBlobOf(t, shared)); err == nil || !strings.Contains(err.Error(), "version 5") {
		t.Errorf("LoadSharedPart: err = %v, want a refusal naming version 5", err)
	}
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

// TestSaveLoadKeepsTimes: the one-file form carries the timestamps (its
// version 1 had no place for them and dropped every one), so a model
// loaded from it is timed and writes shard blobs with a Times section.
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
	for c := 0; c < loaded.Clusters().K; c++ {
		buf.Reset()
		if err := loaded.SaveShardBlob(&buf, c); err != nil {
			t.Fatal(err)
		}
		part, err := LoadShardPart(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if part.Times == nil {
			t.Fatalf("shard %d blob of the loaded model carries no Times section", c)
		}
		for j, u := range part.Users {
			if want := m.UserRatingTimes(u); !slices.Equal(part.Times[j], want) {
				t.Fatalf("shard %d user %d timestamps = %v, want %v", c, u, part.Times[j], want)
			}
		}
	}
}
