package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	mod, d := trainSmall(t)

	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// The loaded model must predict identically.
	for u := 0; u < 30; u++ {
		for i := 0; i < 20; i++ {
			a, b := mod.Predict(u, i), loaded.Predict(u, i)
			if a != b {
				t.Fatalf("Predict(%d,%d): %g != %g after load", u, i, a, b)
			}
		}
	}
	lc, mc := loaded.Config(), mod.Config()
	if lc.M != mc.M || lc.K != mc.K || lc.Clusters != mc.Clusters ||
		lc.Lambda != mc.Lambda || lc.Delta != mc.Delta ||
		lc.OriginalWeight != mc.OriginalWeight {
		t.Error("config did not round-trip")
	}
	if loaded.Matrix().NumRatings() != d.Matrix.NumRatings() {
		t.Error("matrix did not round-trip")
	}
	if loaded.GIS().TotalNeighbors() != mod.GIS().TotalNeighbors() {
		t.Error("GIS did not round-trip")
	}
}

func TestSaveLoadFile(t *testing.T) {
	mod, _ := trainSmall(t)
	path := filepath.Join(t.TempDir(), "model.cfsf")
	if err := mod.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Predict(1, 2), mod.Predict(1, 2); got != want {
		t.Errorf("file round trip: %g != %g", got, want)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage input must error")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must error")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file must error")
	}
}

func TestLoadedModelSupportsUpdates(t *testing.T) {
	mod, _ := trainSmall(t)
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	next, err := loaded.WithUpdates([]RatingUpdate{{User: 0, Item: 5, Value: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := next.Matrix().Rating(0, 5); !ok || r != 4 {
		t.Errorf("update after load: %g,%v", r, ok)
	}
}

// TestModelFileRefusesEveryFault enumerates the faults a stored model file
// can suffer, on refusalFixture's file: one bit flipped at every byte, a
// cut at every length, a byte appended. Load must refuse each one with an
// error — not load a different model, and not panic.
func TestModelFileRefusesEveryFault(t *testing.T) {
	m, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Load(bytes.NewReader(good)); err != nil {
		t.Fatalf("the unmodified file: %v", err)
	}
	refused := func(what string, data []byte) {
		t.Helper()
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s loaded", what)
		}
	}
	for at := range good {
		bad := bytes.Clone(good)
		bad[at] ^= 1 << (at % 8)
		refused(fmt.Sprintf("bit %d of byte %d flipped", at%8, at), bad)
		refused(fmt.Sprintf("the file cut to %d bytes", at), good[:at])
	}
	refused("a byte appended", append(bytes.Clone(good), 0))
	t.Logf("%d bytes, each flipped and cut at", len(good))
}

// TestLoadRefusesABadClustering: a clustering that breaks one of
// cluster.Result.Check's rules, in a file whose checksum holds, is refused
// at load naming the user or cluster at fault — from a model file, and
// from a shared blob, where an assignment of -5 used to panic the
// assembly inside smoothing.New.
func TestLoadRefusesABadClustering(t *testing.T) {
	mod, _ := trainSmall(t)
	for _, tc := range []struct {
		name   string
		mutate func(c *cluster.Result)
		want   string
	}{
		{"a negative assignment", func(c *cluster.Result) { c.Assign[0] = -5 }, "user 0 assigned to cluster -5"},
		{"an assignment past K", func(c *cluster.Result) { c.Assign[3] = c.K }, fmt.Sprintf("user 3 assigned to cluster %d", mod.clusters.K)},
		{"an assignment Members does not list", func(c *cluster.Result) { c.Assign[3] = (c.Assign[3] + 1) % c.K }, "user 3"},
		{"a member list out of order", func(c *cluster.Result) {
			l := c.Members[1]
			l[0], l[1] = l[1], l[0]
		}, "cluster 1 lists user"},
		{"a user missing from Members", func(c *cluster.Result) { c.Members[2] = c.Members[2][1:] }, "not listed"},
		{"one mean row short", func(c *cluster.Result) { c.Mean[1] = c.Mean[1][1:] }, "cluster 1 has"},
		{"one count row short", func(c *cluster.Result) { c.Count[0] = nil }, "cluster 0 has"},
		{"K without its lists", func(c *cluster.Result) { c.K++ }, "K = "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			file := fileWireOf(t, mod)
			tc.mutate(file.Clusters)
			if _, err := Load(frameOf(t, blobKindModel, file)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load: err = %v, want one naming %q", err, tc.want)
			}
			shared := sharedWireOf(mod)
			shared.Clusters = file.Clusters
			sp, err := LoadSharedPart(sharedBlobOf(t, shared))
			if err == nil {
				rows, times := matrixRows(mod.m)
				_, err = AssembleModel(sp, rows, times)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadSharedPart and AssembleModel: err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// matrixRows is m's rows and, for a timed matrix, their timestamps, in
// the form AssembleModel takes.
func matrixRows(m *ratings.Matrix) (rows [][]ratings.Entry, times [][]int64) {
	rows = make([][]ratings.Entry, m.NumUsers())
	if m.HasTimes() {
		times = make([][]int64, m.NumUsers())
	}
	for u := range rows {
		rows[u] = m.UserRatings(u)
		if times != nil {
			times[u] = m.UserRatingTimes(u)
		}
	}
	return rows, times
}
