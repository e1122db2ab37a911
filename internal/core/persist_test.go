package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
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
// can suffer, on refusalFixture's file as this build writes it (version
// 2: id sets, the clustering's assignment, gap-coded rows): one bit
// flipped at every byte, a cut at every length, a byte appended. Load
// must refuse each one with an error — not load a different model, and
// not panic.
func TestModelFileRefusesEveryFault(t *testing.T) {
	m, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := fileWireOf(t, mod).Version; v != 2 {
		t.Fatalf("Save writes version %d, the faults here are enumerated on version 2", v)
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

// TestModelFileRefusesAMalformedSet: a version 2 file whose checksum
// holds but whose gap-coded GIS sets or rows are malformed, or which
// carries a part it must leave to the load to derive, is refused, the
// error naming the item or user at fault, or the part.
func TestModelFileRefusesAMalformedSet(t *testing.T) {
	m, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, p := m.NumItems(), m.NumUsers()
	first, last := -1, -1 // the first and last items whose lists hold entries
	for i := 0; i < q; i++ {
		if len(mod.GIS().Neighbors(i)) > 0 {
			last = i
			if first < 0 {
				first = i
			}
		}
	}
	if first < 0 {
		t.Fatal("the fixture GIS is empty")
	}
	lastRow := len(m.UserRatings(p-1)) - 1
	for _, tc := range []struct {
		name, want string
		mutate     func(w *fileWire)
	}{
		{"a set gap running past its bytes", fmt.Sprintf("item %d entry %d: the id gap runs past", last, len(mod.GIS().Neighbors(last))-1),
			func(w *fileWire) { w.GIS.Set[len(w.GIS.Set)-1] = 0x80 }},
		{"a set id past the items", fmt.Sprintf("item %d entry 0: the id after neighbour -1 passes the %d items", first, q),
			func(w *fileWire) { w.GIS.Set[0] = byte(q) }},
		{"set bytes left over", fmt.Sprintf("1 set bytes after the list of item %d", q-1),
			func(w *fileWire) { w.GIS.Set = append(w.GIS.Set, 0) }},
		{"a row gap running past its bytes", fmt.Sprintf("user %d entry %d: the item gap runs past", p-1, lastRow),
			func(w *fileWire) { w.RowItems[len(w.RowItems)-1] = 0x80 }},
		{"a row gap overrunning the items", fmt.Sprintf("user 0 entry 0: the item after item -1 overruns the %d items", q),
			func(w *fileWire) { w.RowItems[0] = byte(q) }},
		{"row bytes left over", fmt.Sprintf("1 row item bytes after the row of user %d", p-1),
			func(w *fileWire) { w.RowItems = append(w.RowItems, 0) }},
		{"GIS ids in list order", "stores no GIS list in list order", func(w *fileWire) { w.GIS.IDs = []byte{0, 0} }},
		{"Eq. 5 weights", "stores no GIS weights", func(w *fileWire) { w.GIS.Scores = mod.gis.Snapshot(true).Scores }},
		{"cluster Members", "stores no cluster Members", func(w *fileWire) { w.Clusters.Members = mod.clusters.Members }},
		{"cluster Mean", "stores no cluster Mean", func(w *fileWire) { w.Clusters.Mean = mod.clusters.Mean }},
		{"cluster Count", "stores no cluster Count", func(w *fileWire) { w.Clusters.Count = mod.clusters.Count }},
		{"version 1 row items", "stores no version 1 row Items", func(w *fileWire) { w.Items = []int32{0} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := fileWireOf(t, mod)
			if _, err := Load(frameOf(t, blobKindModel, wire)); err != nil {
				t.Fatalf("the unmodified file: %v", err)
			}
			tc.mutate(&wire)
			if _, err := Load(frameOf(t, blobKindModel, wire)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestModelFileV1LoadsAndResavesAsV2: testdata/file-v1.cfsf is a version 1
// model file of refusalFixture's model, written by 773b6e0, the last
// build to write that version — GIS ids in list order, the clustering
// whole, row items one int32 each. It loads to the grid that build served
// (tau0Grid) and the GIS the model trained here holds, and re-saves as
// version 2, which loads to the same.
func TestModelFileV1LoadsAndResavesAsV2(t *testing.T) {
	m, cfg := refusalFixture(t)
	live, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "file-v1.cfsf"))
	if err != nil {
		t.Fatal(err)
	}
	wireOf := func(data []byte) fileWire {
		t.Helper()
		payload, err := readBlob(bytes.NewReader(data), blobKindModel)
		if err != nil {
			t.Fatal(err)
		}
		var wire fileWire
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
			t.Fatal(err)
		}
		return wire
	}
	if w := wireOf(data); w.Version != 1 || len(w.GIS.IDs) == 0 || len(w.GIS.Set) > 0 || len(w.Clusters.Mean) == 0 || len(w.Items) == 0 || len(w.RowItems) > 0 {
		t.Fatalf("the fixture is not a version 1 file: version %d, %d id bytes, %d set bytes, %d mean rows, %d items, %d row item bytes",
			w.Version, len(w.GIS.IDs), len(w.GIS.Set), len(w.Clusters.Mean), len(w.Items), len(w.RowItems))
	}
	old, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := old.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if w := wireOf(buf.Bytes()); w.Version != 2 || len(w.GIS.Set) == 0 || len(w.GIS.IDs) > 0 || len(w.Clusters.Mean) > 0 || len(w.Items) > 0 {
		t.Fatalf("the re-save is not a version 2 file: version %d, %d set bytes, %d id bytes, %d mean rows, %d items",
			w.Version, len(w.GIS.Set), len(w.GIS.IDs), len(w.Clusters.Mean), len(w.Items))
	}
	resaved, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for ctx, got := range map[string]*Model{"version 1": old, "its version 2 re-save": resaved} {
		if h := gridHash(got); h != tau0Grid {
			t.Fatalf("%s: prediction grid hashes to %s, want %s", ctx, h, tau0Grid)
		}
		requireSameGIS(t, live.GIS(), got.GIS(), ctx)
		requireSameRecommendations(t, live, got, ctx)
	}
}

// TestLoadRefusesABadClustering: a clustering that breaks one of
// cluster.Result.Check's rules, in a file whose checksum holds, is refused
// at load naming the user or cluster at fault — from a version 1 model
// file and from a shared blob, which store the clustering whole (where an
// assignment of -5 used to panic the assembly inside smoothing.New), and,
// for a fault in the assignment, from a version 2 model file, which
// stores the assignment alone and derives the rest.
func TestLoadRefusesABadClustering(t *testing.T) {
	mod, _ := trainSmall(t)
	for _, tc := range []struct {
		name   string
		mutate func(c *cluster.Result)
		want   string
		v2     bool // the fault is in what a version 2 file stores
	}{
		{"a negative assignment", func(c *cluster.Result) { c.Assign[0] = -5 }, "user 0 assigned to cluster -5", true},
		{"an assignment past K", func(c *cluster.Result) { c.Assign[3] = c.K }, fmt.Sprintf("user 3 assigned to cluster %d", mod.clusters.K), true},
		{"an assignment Members does not list", func(c *cluster.Result) { c.Assign[3] = (c.Assign[3] + 1) % c.K }, "user 3", false},
		{"a member list out of order", func(c *cluster.Result) {
			l := c.Members[1]
			l[0], l[1] = l[1], l[0]
		}, "cluster 1 lists user", false},
		{"a user missing from Members", func(c *cluster.Result) { c.Members[2] = c.Members[2][1:] }, "not listed", false},
		{"one mean row short", func(c *cluster.Result) { c.Mean[1] = c.Mean[1][1:] }, "cluster 1 has", false},
		{"one count row short", func(c *cluster.Result) { c.Count[0] = nil }, "cluster 0 has", false},
		{"K without its lists", func(c *cluster.Result) { c.K++ }, "K = ", false},
		{"K above the users", func(c *cluster.Result) { c.K = len(c.Assign) + 1 }, fmt.Sprintf("K = %d", mod.m.NumUsers()+1), true},
		{"an assignment short", func(c *cluster.Result) { c.Assign = c.Assign[1:] }, fmt.Sprintf("%d assignments for %d users", mod.m.NumUsers()-1, mod.m.NumUsers()), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v1 := fileWireV1Of(t, mod)
			tc.mutate(v1.Clusters)
			if _, err := Load(frameOf(t, blobKindModel, v1)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load of a version 1 file: err = %v, want one naming %q", err, tc.want)
			}
			shared := sharedWireOf(mod)
			shared.Clusters = v1.Clusters
			sp, err := LoadSharedPart(sharedBlobOf(t, shared))
			if err == nil {
				rows, times := matrixRows(mod.m)
				_, err = AssembleModel(sp, rows, times)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("LoadSharedPart and AssembleModel: err = %v, want one naming %q", err, tc.want)
			}
			if !tc.v2 {
				return
			}
			v2 := fileWireOf(t, mod)
			tc.mutate(v2.Clusters)
			if _, err := Load(frameOf(t, blobKindModel, v2)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load of a version 2 file: err = %v, want one naming %q", err, tc.want)
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
