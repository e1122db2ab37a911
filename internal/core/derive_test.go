package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
	"cfsf/internal/synth"
)

// requireLoadsAsLive: the one-file form and the manifest's blobs of mod,
// written and loaded back, serve mod's GIS — ids, order and weight bits —
// and so the model mod is.
func requireLoadsAsLive(t *testing.T, mod *Model, ctx string) {
	t.Helper()
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatalf("%s: Load: %v", ctx, err)
	}
	requireSameGIS(t, mod.GIS(), loaded.GIS(), ctx+": Load(Save)")
	shared, shards := saveParts(t, mod)
	assembled := assembleFromParts(t, shared, shards)
	requireSameGIS(t, mod.GIS(), assembled.GIS(), ctx+": assembled from the blobs")
	for _, got := range []*Model{loaded, assembled} {
		for u := 0; u < mod.Matrix().NumUsers(); u += 37 {
			for i := 0; i < mod.Matrix().NumItems(); i += 13 {
				if a, b := mod.Predict(u, i), got.Predict(u, i); a != b {
					t.Fatalf("%s: Predict(%d, %d) = %v loaded, %v live", ctx, u, i, b, a)
				}
			}
		}
	}
}

// TestLoadDerivesTheServedGIS: a load derives every GIS weight from the
// matrix, and what it derives is what the saved model served, bit for
// bit — on the ledger fixture after Train, at every 100th of 600 chained
// Applies from ledgerStream (every 5th a 16-rating array, one batch adding
// user 500 and item 1000), and after a retrain fold (Train of the applied
// matrix, then more Applies); and on a smaller fixture under Cosine,
// significance weighting, a threshold and co-rating floors 0 and 2.
func TestLoadDerivesTheServedGIS(t *testing.T) {
	t.Run("ledger", func(t *testing.T) {
		cfg := DefaultConfig()
		mod, err := Train(synth.MustGenerate(synth.DefaultConfig()).Matrix, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireLoadsAsLive(t, mod, "after Train")
		p, q := mod.Matrix().NumUsers(), mod.Matrix().NumItems()
		next := ledgerStream(p, q)
		steps, grow := 600, 250
		if testing.Short() {
			steps, grow = 100, 50
		}
		for step := 1; step <= steps; step++ {
			batch := []RatingUpdate{next()}
			if step%5 == 0 {
				for len(batch) < 16 {
					batch = append(batch, next())
				}
			}
			if step == grow {
				batch = append(batch, RatingUpdate{User: p, Item: q, Value: 4})
			}
			if mod, err = mod.Apply(batch); err != nil {
				t.Fatal(err)
			}
			if step%100 == 0 {
				requireLoadsAsLive(t, mod, fmt.Sprintf("after %d Applies", step))
			}
		}
		if mod.Matrix().NumUsers() != p+1 || mod.Matrix().NumItems() != q+1 {
			t.Fatalf("the stream left the model %dx%d, want a new user and a new item", mod.Matrix().NumUsers(), mod.Matrix().NumItems())
		}
		if mod, err = Train(mod.Matrix(), cfg); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			if mod, err = mod.Apply([]RatingUpdate{next()}); err != nil {
				t.Fatal(err)
			}
		}
		requireLoadsAsLive(t, mod, "after a retrain fold")
	})

	for _, tc := range []struct {
		name string
		gis  func(*similarity.GISOptions)
	}{
		{"cosine", func(o *similarity.GISOptions) { o.Metric = similarity.Cosine }},
		{"significance", func(o *similarity.GISOptions) { o.SignificanceGamma = 25 }},
		{"min co-ratings 0", func(o *similarity.GISOptions) { o.MinCoRatings = 0 }},
		{"min co-ratings 2, threshold", func(o *similarity.GISOptions) { o.MinCoRatings, o.Threshold = 2, 0.15 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := synth.MustGenerate(smallSynth())
			cfg := smallConfig()
			tc.gis(&cfg.GIS)
			mod, err := Train(d.Matrix, cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireLoadsAsLive(t, mod, "after Train")
			rng := rand.New(rand.NewSource(3))
			for k := 0; k < 30; k++ {
				m := mod.Matrix()
				if mod, err = mod.Apply(randomUpdates(rng, m.NumUsers(), m.NumItems(), 1+k%4)); err != nil {
					t.Fatal(err)
				}
			}
			requireLoadsAsLive(t, mod, "after 30 Applies")
		})
	}
}

// TestContentBlendedWeightsAreStored: a GIS that blends in item
// attributes has weights no matrix reproduces — nor does Refresh, which
// leaves blended entries in place beside Eq. 5 ones — so its snapshot
// carries them, 8 bytes an entry, and the loaded model serves them
// unchanged.
func TestContentBlendedWeightsAreStored(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	cfg := smallConfig()
	cfg.ContentBlend = 0.3
	cfg.ItemFeatures = make([][]float64, d.Matrix.NumItems())
	for i, genres := range d.ItemGenres {
		cfg.ItemFeatures[i] = make([]float64, 18)
		for _, g := range genres {
			cfg.ItemFeatures[i][g] = 1
		}
	}
	mod, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 10; k++ {
		if mod, err = mod.Apply(randomUpdates(rng, 120, 150, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if snap := mod.gisSnapshot(); len(snap.Scores) != 8*mod.GIS().TotalNeighbors() {
		t.Fatalf("a blended GIS of %d entries snapshots %d score bytes", mod.GIS().TotalNeighbors(), len(snap.Scores))
	}
	if _, err := similarity.FromSnapshot(mod.gis.Snapshot(false), mod.Matrix()); err == nil {
		t.Fatal("the blended GIS derived from the matrix alone: the fixture no longer shows why its weights are stored")
	}
	requireLoadsAsLive(t, mod, "blended")
}

// TestNonCoRatedNeighbourIsRefused: a version-4 blob or model file whose
// ids were edited to name a neighbour that shares no rater with its item
// passes the layout checks — the id is inside the catalogue — and is
// refused when the weights are derived, naming the item, the entry and
// the neighbour.
func TestNonCoRatedNeighbourIsRefused(t *testing.T) {
	base, _ := trainSmall(t)
	// Item q is new and rated by user 0 alone.
	q := base.Matrix().NumItems()
	mod, err := base.Apply([]RatingUpdate{{User: 0, Item: q, Value: 4}})
	if err != nil {
		t.Fatal(err)
	}
	item := -1
	for i := 0; i < q && item < 0; i++ {
		rated := slices.ContainsFunc(mod.Matrix().ItemRatings(i), func(e ratings.Entry) bool { return e.Index == 0 })
		if !rated && len(mod.GIS().Neighbors(i)) > 0 {
			item = i
		}
	}
	if item < 0 {
		t.Fatal("every item with neighbours is rated by user 0")
	}
	snap := mod.gisSnapshot()
	at := 0
	for i := 0; i < item; i++ {
		at += int(snap.Lens[i])
	}
	binary.LittleEndian.PutUint16(snap.IDs[2*at:], uint16(q)) // 2-byte ids: 151 items
	want := fmt.Sprintf("item %d entry 0: neighbour %d is not co-rated", item, q)

	wire := sharedWireOf(mod)
	wire.GIS = snap
	sp, err := LoadSharedPart(sharedBlobOf(t, wire))
	if err != nil {
		t.Fatalf("LoadSharedPart refused what only the matrix can refuse: %v", err)
	}
	m := mod.Matrix()
	rows, times := make([][]ratings.Entry, m.NumUsers()), make([][]int64, m.NumUsers())
	for u := range rows {
		rows[u], times[u] = m.UserRatings(u), m.UserRatingTimes(u)
	}
	if !m.HasTimes() {
		times = nil
	}
	if _, err := AssembleModel(sp, rows, times); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("AssembleModel: err = %v, want one containing %q", err, want)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(modelWire{Version: modelWireVersion, Config: mod.cfg, Matrix: m, GIS: snap, Clusters: mod.clusters}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Load: err = %v, want one containing %q", err, want)
	}
}
