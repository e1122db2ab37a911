package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/cluster"
	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
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
// 6: the GIS horizons, Rice-coded row items, value indexes and time
// deltas, the clustering's assignment) and as f163a25 wrote it (version
// 5, testdata/file-v5.cfsf, which adds every GIS list as an id set): one
// bit flipped at every byte, a cut at every length, a byte appended. Load
// must refuse each one with an error — not load a different model, and
// not panic.
func TestModelFileRefusesEveryFault(t *testing.T) {
	m, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v := fileWireOf(t, mod).Version; v != 6 {
		t.Fatalf("Save writes version %d, the faults here are enumerated on version 6", v)
	}
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v5, err := os.ReadFile(filepath.Join("testdata", "file-v5.cfsf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, good := range [][]byte{buf.Bytes(), v5} {
		if _, err := Load(bytes.NewReader(good)); err != nil {
			t.Fatalf("the unmodified file: %v", err)
		}
		refused := func(what string, data []byte) {
			t.Helper()
			if _, err := Load(bytes.NewReader(data)); err == nil {
				t.Fatalf("version %d: %s loaded", wireOf(t, good).Version, what)
			}
		}
		for at := range good {
			bad := bytes.Clone(good)
			bad[at] ^= 1 << (at % 8)
			refused(fmt.Sprintf("bit %d of byte %d flipped", at%8, at), bad)
			refused(fmt.Sprintf("the file cut to %d bytes", at), good[:at])
		}
		refused("a byte appended", append(bytes.Clone(good), 0))
		t.Logf("version %d: %d bytes, each flipped and cut at", wireOf(t, good).Version, len(good))
	}
}

// riceLen is the bits mathx's Rice code spends on v at parameter k.
func riceLen(v uint64, k uint8) int {
	if q := v >> k; q < 32 {
		return int(q) + 1 + int(k)
	}
	return 32 + 64
}

// runPastEnd sets every bit of code from the start of the last of vals'
// codes on, so that code's unary run, and no earlier code, runs past the
// bytes.
func runPastEnd(code *mathx.RiceCode, vals []uint64) {
	start := 0
	for _, v := range vals[:len(vals)-1] {
		start += riceLen(v, code.K)
	}
	code.Bits = bytes.Clone(code.Bits)
	for b := start; b < 8*len(code.Bits); b++ {
		code.Bits[b/8] |= 1 << (b % 8)
	}
}

// fileColumns is what a model file of mod codes in its Rice columns:
// the GIS horizon ids, the row items' gaps, the value indexes into scale
// and the time deltas, each in file order.
func fileColumns(mod *Model, scale []float64) (taus, items, values, times []uint64) {
	for i := 0; i < mod.GIS().NumItems(); i++ {
		taus = append(taus, uint64(mod.GIS().Horizon(i).Index))
	}
	prevTime := int64(0)
	for u := 0; u < mod.m.NumUsers(); u++ {
		prev := int32(-1)
		for _, e := range mod.m.UserRatings(u) {
			at, _ := slices.BinarySearch(scale, e.Value)
			items, values, prev = append(items, uint64(e.Index-prev-1)), append(values, uint64(at)), e.Index
		}
		for _, ts := range mod.m.UserRatingTimes(u) {
			times, prevTime = append(times, mathx.DeltaCode(prevTime, ts)), ts
		}
	}
	return taus, items, values, times
}

// TestModelFileRefusesAMalformedSet: a model file whose checksum holds
// but whose Rice-coded GIS horizons, rows, values or timestamps are
// malformed, whose value scale is unsound, which carries a part it must
// leave to the load to derive, or whose item count its horizons do not
// bear out, is refused, the error naming the item or the user and the
// entry at fault, or the part. A refusal allocates next to nothing: an
// item count of 1<<40 is refused before anything is sized by it.
func TestModelFileRefusesAMalformedSet(t *testing.T) {
	m, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q, p := m.NumItems(), m.NumUsers()
	if !m.HasTimes() {
		t.Fatal("the fixture is untimed")
	}
	scale := fileWireOf(t, mod).Scale
	taus, items, values, times := fileColumns(mod, scale)
	lastRow := len(m.UserRatings(p-1)) - 1
	top, topEntry := -1, -1 // the first user rating the top of the scale, and where
	for u := 0; u < p && top < 0; u++ {
		for j, e := range m.UserRatings(u) {
			if e.Value == scale[len(scale)-1] {
				top, topEntry = u, j
				break
			}
		}
	}
	withFirst := func(vals []uint64, v uint64) mathx.RiceCode {
		return mathx.EncodeRice(append([]uint64{v}, vals[1:]...))
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(w *fileWire)
	}{
		{"a horizon id running past its bytes", fmt.Sprintf("horizon of item %d: the code at bit", q-1),
			func(w *fileWire) { runPastEnd(&w.GIS.TauIDs, taus) }},
		{"a horizon id past the items", fmt.Sprintf("horizon of item 0 names item %d of %d", q, q),
			func(w *fileWire) { w.GIS.TauIDs = withFirst(taus, uint64(q)) }},
		{"horizon bytes left over", fmt.Sprintf("horizon code after item %d, the last: 1 bytes left over", q-1),
			func(w *fileWire) { w.GIS.TauIDs.Bits = append(w.GIS.TauIDs.Bits, 0) }},
		{"an item count of 1<<40", fmt.Sprintf("GIS horizons hold %d weight bytes, model has %d items", 8*q, 1<<40),
			func(w *fileWire) { w.NumItems = 1 << 40 }},
		{"a row gap running past its bytes", fmt.Sprintf("user %d entry %d: item: the code at bit", p-1, lastRow),
			func(w *fileWire) { runPastEnd(&w.ItemCode, items) }},
		{"a row gap overrunning the items", fmt.Sprintf("user 0 entry 0: the item after item -1 overruns the %d items", q),
			func(w *fileWire) { w.ItemCode = withFirst(items, uint64(q)) }},
		{"row bytes left over", fmt.Sprintf("item column after the row of user %d, the last: 1 bytes left over", p-1),
			func(w *fileWire) { w.ItemCode.Bits = append(w.ItemCode.Bits, 0) }},
		{"a value code running past its bytes", fmt.Sprintf("user %d entry %d: value: the code at bit", p-1, lastRow),
			func(w *fileWire) { runPastEnd(&w.ValueCode, values) }},
		{"a time code running past its bytes", fmt.Sprintf("user %d entry %d: time: the code at bit", p-1, lastRow),
			func(w *fileWire) { runPastEnd(&w.TimeCode, times) }},
		{"time bytes left over", fmt.Sprintf("time column after the row of user %d, the last: 1 bytes left over", p-1),
			func(w *fileWire) { w.TimeCode.Bits = append(w.TimeCode.Bits, 0) }},
		{"timestamps in an untimed file", "timestamps in a file whose matrix carries none", func(w *fileWire) { w.HasTimes = false }},
		{"a value index past the scale", fmt.Sprintf("user %d entry %d: value index %d past the %d scale values", top, topEntry, len(scale)-1, len(scale)-1),
			func(w *fileWire) { w.Scale = w.Scale[:len(w.Scale)-1] }},
		{"a scale out of order", fmt.Sprintf("scale value 1 (%v) does not ascend from %v", scale[0], scale[1]),
			func(w *fileWire) { w.Scale[0], w.Scale[1] = w.Scale[1], w.Scale[0] }},
		{"a repeated scale value", fmt.Sprintf("scale value 1 (%v) does not ascend from %v", scale[0], scale[0]),
			func(w *fileWire) { w.Scale[1] = w.Scale[0] }},
		{"a scale value that is not finite", "scale value 0 is NaN, not finite", func(w *fileWire) { w.Scale[0] = math.NaN() }},
		{"an infinite scale value", "scale value 2 is +Inf, not finite", func(w *fileWire) { w.Scale[2] = math.Inf(1) }},
		{"a Rice parameter past 63", "item column: Rice parameter k = 64, past 63", func(w *fileWire) { w.ItemCode.K = 64 }},
		{"a horizon code parameter past 63", "horizon code: Rice parameter k = 64, past 63", func(w *fileWire) { w.GIS.TauIDs.K = 64 }},
		{"cluster Members", "stores no cluster Members", func(w *fileWire) { w.Clusters.Members = mod.clusters.Members }},
		{"cluster Mean", "stores no cluster Mean", func(w *fileWire) { w.Clusters.Mean = mod.clusters.Mean }},
		{"cluster Count", "stores no cluster Count", func(w *fileWire) { w.Clusters.Count = mod.clusters.Count }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := fileWireOf(t, mod)
			if _, err := Load(frameOf(t, wire)); err != nil {
				t.Fatalf("the unmodified file: %v", err)
			}
			tc.mutate(&wire)
			file := frameOf(t, wire)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(file)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
				t.Fatalf("the refusal allocated %d bytes", n)
			}
		})
	}
}

// TestLoadRefusesABadClustering: a clustering that breaks one of
// cluster.Result.Check's rules, in a file whose checksum holds, is refused
// at load. A fault in the assignment — what a model file stores, deriving
// the rest — is refused naming the user or cluster at fault. A fault in
// the member lists, centroids or counts can only come with them, and a
// file carrying them is refused for it, whatever they hold.
func TestLoadRefusesABadClustering(t *testing.T) {
	mod, _ := trainSmall(t)
	const whole = "stores no cluster Members"
	for _, tc := range []struct {
		name   string
		mutate func(c *cluster.Result)
		want   string
		stored bool // the fault is in what a model file stores
	}{
		{"a negative assignment", func(c *cluster.Result) { c.Assign[0] = -5 }, "user 0 assigned to cluster -5", true},
		{"an assignment past K", func(c *cluster.Result) { c.Assign[3] = c.K }, fmt.Sprintf("user 3 assigned to cluster %d", mod.clusters.K), true},
		{"an assignment Members does not list", func(c *cluster.Result) { c.Assign[3] = (c.Assign[3] + 1) % c.K }, whole, false},
		{"a member list out of order", func(c *cluster.Result) {
			l := c.Members[1]
			l[0], l[1] = l[1], l[0]
		}, whole, false},
		{"a user missing from Members", func(c *cluster.Result) { c.Members[2] = c.Members[2][1:] }, whole, false},
		{"one mean row short", func(c *cluster.Result) { c.Mean[1] = c.Mean[1][1:] }, whole, false},
		{"one count row short", func(c *cluster.Result) { c.Count[0] = nil }, whole, false},
		{"K without its lists", func(c *cluster.Result) { c.K++ }, whole, false},
		{"K above the users", func(c *cluster.Result) { c.K = len(c.Assign) + 1 }, fmt.Sprintf("K = %d", mod.m.NumUsers()+1), true},
		{"an assignment short", func(c *cluster.Result) { c.Assign = c.Assign[1:] }, fmt.Sprintf("%d assignments for %d users", mod.m.NumUsers()-1, mod.m.NumUsers()), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire := fileWireOf(t, mod)
			if !tc.stored {
				wire.Clusters = wholeClustering(t, mod)
			}
			tc.mutate(wire.Clusters)
			if _, err := Load(frameOf(t, wire)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load: err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// wholeClustering is a deep copy of mod's clustering, member lists,
// centroids and counts included, for a test to change.
func wholeClustering(t *testing.T, mod *Model) *cluster.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(mod.clusters); err != nil {
		t.Fatal(err)
	}
	var c *cluster.Result
	if err := gob.NewDecoder(&buf).Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestModelFileColumnBytes fences each column of the ledger fixture's
// model file (synth.DefaultConfig, DefaultConfig: the model bench/ serves
// and a first boot snapshots), so that when one regresses the failure
// names it; CI fences only the whole file (BenchmarkBootLedger). The
// values column counts its Scale table with it, the horizons their raw
// weights with their Rice-coded ids.
func TestModelFileColumnBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the 500×1000 ledger fixture")
	}
	d := synth.MustGenerate(synth.DefaultConfig())
	mod, err := Train(d.Matrix, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wire := fileWireOf(t, mod)
	for _, col := range []struct {
		name  string
		code  mathx.RiceCode
		extra int
		fence int
	}{
		{"GIS horizons", wire.GIS.TauIDs, len(wire.GIS.TauScores), 10_000},
		{"row items", wire.ItemCode, 0, 30_000},
		{"values", wire.ValueCode, 8 * len(wire.Scale), 18_500},
		{"times", wire.TimeCode, 0, 150_000},
	} {
		n := len(col.code.Bits) + col.extra
		t.Logf("%s: %d bytes at k = %d", col.name, n, col.code.K)
		if n > col.fence {
			t.Errorf("%s take %d bytes, over their fence of %d", col.name, n, col.fence)
		}
	}
	t.Logf("the whole file: %d bytes, %d ratings, scale %v", buf.Len(), d.Matrix.NumRatings(), wire.Scale)
}

// TestSaveLoadManyDistinctValues: a matrix whose values are not a short
// discrete scale — here 90 distinct values among 120 ratings —
// saves a Scale of every distinct value and loads back bit for bit, as a
// five-valued one does.
func TestSaveLoadManyDistinctValues(t *testing.T) {
	b := ratings.NewBuilder(12, 10).SetScale(1, 5)
	for u := 0; u < 12; u++ {
		for i := 0; i < 10; i++ {
			if err := b.Add(u, i, 1+4*float64((u*37+i*11)%101)/100); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := b.Build()
	_, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := fileWireOf(t, mod)
	if len(wire.Scale) < 64 {
		t.Fatalf("the fixture holds %d distinct values, not a long scale", len(wire.Scale))
	}
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < m.NumUsers(); u++ {
		if !slices.Equal(loaded.Matrix().UserRatings(u), m.UserRatings(u)) {
			t.Fatalf("user %d's row loads as %v, want %v", u, loaded.Matrix().UserRatings(u), m.UserRatings(u))
		}
	}
	requireSamePredictions(t, gridPredictions(mod), gridPredictions(loaded), "Save → Load")
	t.Logf("%d distinct values of %d ratings", len(wire.Scale), m.NumRatings())
}

// TestSaveLoadValuesOffTheScale: Save writes what the matrix holds and a
// load takes it back bit for bit, values off the matrix's own 1..5 scale
// and −0 beside +0 included. A model can hold such values: a build up to
// ddea235 applied 0.5 or 7 to a 1..5 model and saved them, and a matrix
// built on an explicit scale is not checked against it. A load that
// refused them would make every later snapshot of such a model
// unloadable.
func TestSaveLoadValuesOffTheScale(t *testing.T) {
	negZero := math.Copysign(0, -1)
	b := ratings.NewBuilder(12, 10).SetScale(1, 5)
	for u := 0; u < 12; u++ {
		for i := 0; i < 10; i++ {
			if (u*7+i*3)%4 != 0 {
				b.MustAdd(u, i, float64(1+(u*i+u+i)%5))
			}
		}
	}
	b.MustAdd(0, 1, 0.5)
	b.MustAdd(1, 2, 7)
	b.MustAdd(2, 3, negZero)
	b.MustAdd(3, 4, 0)
	m := b.Build()
	_, cfg := refusalFixture(t)
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale := fileWireOf(t, mod).Scale
	want := []float64{negZero, 0, 0.5, 1, 2, 3, 4, 5, 7}
	if !slices.EqualFunc(scale, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
		t.Fatalf("Scale %v, want %v with −0 first", scale, want)
	}
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lm := loaded.Matrix()
	if lm.MinRating() != 1 || lm.MaxRating() != 5 {
		t.Fatalf("the loaded scale is %v..%v, want 1..5", lm.MinRating(), lm.MaxRating())
	}
	for u := 0; u < m.NumUsers(); u++ {
		got, want := lm.UserRatings(u), m.UserRatings(u)
		if !slices.EqualFunc(got, want, func(a, b ratings.Entry) bool {
			return a.Index == b.Index && math.Float64bits(a.Value) == math.Float64bits(b.Value)
		}) {
			t.Fatalf("user %d's row loads as %v, want %v", u, got, want)
		}
	}
	requireSamePredictions(t, gridPredictions(mod), gridPredictions(loaded), "Save → Load")
}
