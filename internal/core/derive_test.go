package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
	"cfsf/internal/synth"
)

// requireLoadsAsLive: mod's model file, written and loaded back, serves
// mod's GIS — ids, order and weight bits — and its clustering, and so the
// model mod is: every Predict on a strided grid and every third user's
// Recommend.
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
	requireSameClusters(t, mod.Clusters(), loaded.Clusters(), ctx+": Load(Save)")
	for u := 0; u < mod.Matrix().NumUsers(); u += 37 {
		for i := 0; i < mod.Matrix().NumItems(); i += 13 {
			if a, b := mod.Predict(u, i), loaded.Predict(u, i); a != b {
				t.Fatalf("%s: Predict(%d, %d) = %v loaded, %v live", ctx, u, i, b, a)
			}
		}
	}
	for u := 0; u < mod.Matrix().NumUsers(); u += 3 {
		if w, g := mod.Recommend(u, 5), loaded.Recommend(u, 5); !slices.Equal(w, g) {
			t.Fatalf("%s: Recommend(%d, 5) = %v loaded, %v live", ctx, u, g, w)
		}
	}
}

// requireSameClusters: got is want's clustering field by field, floats by
// their bits.
func requireSameClusters(t *testing.T, want, got *cluster.Result, ctx string) {
	t.Helper()
	same := got.K == want.K && got.Iterations == want.Iterations && math.Float64bits(got.Inertia) == math.Float64bits(want.Inertia) &&
		slices.Equal(got.Assign, want.Assign) && slices.EqualFunc(got.Members, want.Members, slices.Equal[[]int]) &&
		slices.EqualFunc(got.Count, want.Count, slices.Equal[[]int32]) &&
		slices.EqualFunc(got.Mean, want.Mean, func(a, b []float64) bool {
			return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
		})
	if !same {
		t.Fatalf("%s: the clustering loads different from the one served", ctx)
	}
}

// duplicatedColumns is m with every item column repeated once under the
// id q+i (q = m's item count): each pair of twins is co-rated by the
// same users with the same values, so every third item's Eq. 5 weight
// with one twin equals its weight with the other, and only mathx.Precedes'
// tie-break on the id orders them in a list.
func duplicatedColumns(m *ratings.Matrix) *ratings.Matrix {
	q := m.NumItems()
	b := ratings.NewBuilder(m.NumUsers(), 2*q).SetScale(m.MinRating(), m.MaxRating())
	for u := 0; u < m.NumUsers(); u++ {
		for _, e := range m.UserRatings(u) {
			b.MustAdd(u, int(e.Index), e.Value)
			b.MustAdd(u, q+int(e.Index), e.Value)
		}
	}
	return b.Build()
}

// tiedNeighbours counts the list entries whose weight equals the one
// before them: the entries the id tie-break placed.
func tiedNeighbours(g *similarity.GIS) int {
	n := 0
	for i := 0; i < g.NumItems(); i++ {
		l := g.Neighbors(i)
		for k := 1; k < len(l); k++ {
			if l[k].Score == l[k-1].Score {
				n++
			}
		}
	}
	return n
}

// TestLoadDerivesTheServedGIS: a load selects every GIS list on the
// matrix under the horizon the file stores, and derives the clustering's
// centroids from its assignment, and what it derives is what the saved
// model served, bit for bit — on the ledger fixture after Train, at every
// 100th of 600 chained Applies from ledgerStream (every 5th a 16-rating
// array, one batch adding user 500 and item 1000), and after each of two
// retrain folds (Train of the applied matrix, then more Applies); on a
// smaller fixture under five GIS configurations — Cosine, significance
// weighting, co-rating floors 0 and 2 with a threshold, no truncation —
// and on that fixture with every item column duplicated, so that weights
// tie and the id tie-break orders the twins.
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
		for fold := 1; fold <= 2; fold++ {
			if mod, err = Train(mod.Matrix(), cfg); err != nil {
				t.Fatal(err)
			}
			requireLoadsAsLive(t, mod, fmt.Sprintf("after retrain fold %d", fold))
			for k := 0; k < 20; k++ {
				if mod, err = mod.Apply([]RatingUpdate{next()}); err != nil {
					t.Fatal(err)
				}
			}
			requireLoadsAsLive(t, mod, fmt.Sprintf("after retrain fold %d and 20 Applies", fold))
		}
	})

	t.Run("duplicated columns", func(t *testing.T) {
		m := duplicatedColumns(synth.MustGenerate(smallSynth()).Matrix)
		mod, err := Train(m, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if n := tiedNeighbours(mod.GIS()); n < 100 {
			t.Fatalf("%d list entries tie with the one before: the fixture no longer makes the id tie-break decide", n)
		}
		requireLoadsAsLive(t, mod, "after Train")
		rng := rand.New(rand.NewSource(5))
		for k := 0; k < 30; k++ {
			if mod, err = mod.Apply(randomUpdates(rng, m.NumUsers(), m.NumItems(), 1+k%4)); err != nil {
				t.Fatal(err)
			}
		}
		requireLoadsAsLive(t, mod, "after 30 Applies")
	})

	for _, tc := range []struct {
		name string
		gis  func(*similarity.GISOptions)
	}{
		{"cosine", func(o *similarity.GISOptions) { o.Metric = similarity.Cosine }},
		{"significance", func(o *similarity.GISOptions) { o.SignificanceGamma = 25 }},
		{"min co-ratings 0", func(o *similarity.GISOptions) { o.MinCoRatings = 0 }},
		{"min co-ratings 2, threshold", func(o *similarity.GISOptions) { o.MinCoRatings, o.Threshold = 2, 0.15 }},
		{"untruncated", func(o *similarity.GISOptions) { o.TopN = 0 }},
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

// TestContentBlendedModelsAreNotPersisted: a GIS that blends in item
// attributes has weights no matrix reproduces, and after an Apply its
// lists hold blended and Eq. 5 weights side by side (Refresh recomputes
// Eq. 5 weights only): a function of nothing a model file stores. So Save
// refuses such a model, saying why, and Decode refuses a file — version 5
// or 6 — whose configuration blends content.
func TestContentBlendedModelsAreNotPersisted(t *testing.T) {
	const why = "a GIS that blends in item attributes is not persisted"
	mod := blendedModel(t)
	if err := mod.Save(io.Discard); err == nil || !strings.Contains(err.Error(), why) {
		t.Fatalf("Save: err = %v, want one containing %q", err, why)
	}
	plain, _ := trainSmall(t)
	for _, v := range []int{fileWireVersion - 1, fileWireVersion} {
		wire := fileWireOf(t, plain)
		wire.Version, wire.Config.ContentBlend, wire.Config.ItemFeatures = v, mod.cfg.ContentBlend, mod.cfg.ItemFeatures
		if _, err := Decode(frameOf(t, wire)); err == nil || !strings.Contains(err.Error(), why) {
			t.Fatalf("Decode of a version %d file: err = %v, want one containing %q", v, err, why)
		}
	}
}

// blendedModel is smallSynth trained with its genres blended into the
// GIS (ContentBlend 0.3), then ten Applies of two random ratings each.
func blendedModel(t *testing.T) *Model {
	t.Helper()
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
	return mod
}
