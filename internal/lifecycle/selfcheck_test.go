package lifecycle

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/mathx"
	"cfsf/internal/similarity"
	"cfsf/internal/wal"
)

// referenceSharedCheck is the comparison the snapshot self-check made
// before it held the decoded file against the live model directly: the
// live model is serialised and decoded too, and what the two decoded files
// store besides their rows must be deeply equal. It stays as the reference
// the direct comparison must agree with on every row below (the direct one
// sees strictly more: here both sides have been through the same encoder
// and decoder).
func referenceSharedCheck(got *core.File, live *core.Model) error {
	var buf bytes.Buffer
	if err := live.Save(&buf); err != nil {
		return err
	}
	want, err := core.Decode(&buf)
	if err != nil {
		return err
	}
	shared := func(f *core.File) []any {
		return []any{f.Config, f.NumUsers, f.NumItems, f.MinRating, f.MaxRating, f.HasTimes, f.GIS, f.Clusters}
	}
	if !reflect.DeepEqual(shared(got), shared(want)) {
		return fmt.Errorf("reloaded shared part diverges from the serving model")
	}
	return nil
}

// retrainedFixture is TestRetrainIsReplayed's model after the retrain:
// the base model, five ratings applied one batch each, a retrain at that
// watermark. It returns the manager still open so the caller can
// snapshot it.
func retrainedFixture(t *testing.T) *Manager {
	t.Helper()
	m, err := Open(bootWith(newBaseModel(t)), Config{DataDir: t.TempDir(), Fsync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	for i := 0; i < 5; i++ {
		seq, _, err := m.Submit(testUpdate(i))
		if err != nil {
			t.Fatal(err)
		}
		waitUntil(t, "lead rating applied", func() bool { return m.AppliedSeq() >= seq })
	}
	if !m.TriggerRetrain() {
		t.Fatal("retrain trigger refused while idle")
	}
	waitUntil(t, "retrain landed", func() bool { return retrainsLanded(m) > 0 })
	return m
}

// reloadShared writes mod as a model file and decodes it again, the way
// verifySnapshot meets it.
func reloadShared(t *testing.T, mod *core.Model) *core.File {
	t.Helper()
	var buf bytes.Buffer
	if err := mod.Save(&buf); err != nil {
		t.Fatal(err)
	}
	file, err := core.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// TestSelfCheckCatchesEverySingleFlip decodes a freshly written model
// file and changes one thing besides its rows at a time. Each change
// must fail compareSharedToLive, the half of verifySnapshot that holds
// everything but the rows, with an error naming the part; the unmodified
// file must pass; and the old round-trip comparison must give the same
// verdict on every row.
func TestSelfCheckCatchesEverySingleFlip(t *testing.T) {
	base := newBaseModel(t)
	emptyList := -1
	for i := 0; i < base.GIS().NumItems(); i++ {
		if len(base.GIS().Neighbors(i)) == 0 {
			emptyList = i
		}
	}
	if emptyList < 0 {
		t.Fatal("the base model has no item with an empty neighbour list: the fixture no longer covers nil against empty")
	}
	for _, fx := range []struct {
		name string
		mod  *core.Model
	}{
		{"base model with an empty neighbour list", base},
		{"after five ratings and a retrain", retrainedFixture(t).Model()},
	} {
		t.Run(fx.name, func(t *testing.T) {
			if err := compareSharedToLive(reloadShared(t, fx.mod), fx.mod); err != nil {
				t.Fatalf("the unmodified file fails the self-check: %v", err)
			}
			if err := referenceSharedCheck(reloadShared(t, fx.mod), fx.mod); err != nil {
				t.Fatalf("the unmodified file fails the reference check: %v", err)
			}
		})
	}

	// relist replaces the decoded file's GIS with the base model's
	// neighbour ids, edited, in the layout model files carry: id sets
	// alone, every weight derived on the serving matrix.
	relist := func(t *testing.T, sp *core.File, edit func(lists [][]int32) [][]int32) {
		t.Helper()
		lists := make([][]int32, base.GIS().NumItems())
		for i := range lists {
			for _, n := range base.GIS().Neighbors(i) {
				lists[i] = append(lists[i], n.Index)
			}
		}
		lists = edit(lists)
		snap := sp.GIS
		snap.Lens = make([]int32, len(lists))
		var gaps []uint64
		for i, l := range lists {
			snap.Lens[i] = int32(len(l))
			slices.Sort(l)
			prev := int32(-1)
			for _, id := range l {
				gaps, prev = append(gaps, uint64(id-prev-1)), id
			}
		}
		snap.SetCode = mathx.EncodeRice(gaps)
		sp.GIS = snap
	}
	// withScores replaces the decoded file's GIS with the base model's,
	// weights carried — a blended model's layout — the lowest bit of item
	// i's first weight flipped.
	withScores := func(t *testing.T, sp *core.File, i int) {
		t.Helper()
		snap := base.GIS().Snapshot(true)
		entry := 0
		for _, n := range snap.Lens[:i] {
			entry += int(n)
		}
		snap.Scores[8*entry] ^= 1
		sp.GIS = snap
	}
	// full is an item whose list, and whose successor's, are not empty.
	full := -1
	for i := 0; i+1 < base.GIS().NumItems(); i++ {
		if len(base.GIS().Neighbors(i)) > 0 && len(base.GIS().Neighbors(i+1)) > 0 {
			full = i
			break
		}
	}
	if full < 0 {
		t.Fatal("no two adjacent items with neighbours")
	}
	cl := base.Clusters()
	rated := -1 // an item cluster 0 has a mean for
	for i, n := range cl.Count[0] {
		if n > 0 {
			rated = i
			break
		}
	}
	if rated < 0 {
		t.Fatal("cluster 0 rated nothing")
	}

	type flip struct {
		name   string
		part   string // what the error must name
		mutate func(t *testing.T, sp *core.File)
	}
	last := base.GIS().NumItems() - 1
	flips := []flip{
		{"one Index", fmt.Sprintf("item %d ", full), func(t *testing.T, sp *core.File) {
			relist(t, sp, func(l [][]int32) [][]int32 { l[full][0] = (l[full][0] + 1) % int32(len(l)); return l })
		}},
		{"one byte of Set", fmt.Sprintf("item %d ", full), func(t *testing.T, sp *core.File) {
			// The lowest low bit of the Rice code of item full's first
			// gap flips: that id moves by one and its later ids with it.
			code := &sp.GIS.SetCode
			if code.K == 0 {
				t.Fatal("the set code has k = 0: no low bit to flip")
			}
			bit := 0
			for i := 0; i <= full; i++ {
				ids := make([]int32, 0, len(base.GIS().Neighbors(i)))
				for _, n := range base.GIS().Neighbors(i) {
					ids = append(ids, n.Index)
				}
				slices.Sort(ids)
				prev := int32(-1)
				for _, id := range ids {
					q := int(uint64(id-prev-1) >> code.K)
					if q >= 32 {
						t.Fatalf("item %d's gap before id %d escapes the unary code", i, id)
					}
					if i == full {
						bit += q + 1
						break
					}
					bit += q + 1 + int(code.K)
					prev = id
				}
			}
			code.Bits = slices.Clone(code.Bits)
			code.Bits[bit/8] ^= 1 << (bit % 8)
		}},
		{"one bit of Scores", "GIS list of item", func(t *testing.T, sp *core.File) {
			withScores(t, sp, full)
		}},
		{"one Lens", fmt.Sprintf("item %d ", full), func(t *testing.T, sp *core.File) {
			relist(t, sp, func(l [][]int32) [][]int32 {
				l[full], l[full+1] = append(l[full], l[full+1][0]), l[full+1][1:]
				return l
			})
		}},
		{"an entry in an empty list", fmt.Sprintf("item %d ", emptyList), func(t *testing.T, sp *core.File) {
			relist(t, sp, func(l [][]int32) [][]int32 { l[emptyList] = []int32{0}; return l })
		}},
		{"a trailing entry", fmt.Sprintf("item %d ", last), func(t *testing.T, sp *core.File) {
			relist(t, sp, func(l [][]int32) [][]int32 { l[last] = append(l[last], 0); return l })
		}},
		{"a trailing item", "GIS does not reload on the serving matrix", func(t *testing.T, sp *core.File) {
			relist(t, sp, func(l [][]int32) [][]int32 { return append(l, nil) })
		}},
		{"one bit of a horizon weight", fmt.Sprintf("horizon of item %d ", full), func(t *testing.T, sp *core.File) {
			sp.GIS.TauScores = slices.Clone(sp.GIS.TauScores)
			sp.GIS.TauScores[8*full] ^= 1
		}},
		{"one horizon id", fmt.Sprintf("horizon of item %d ", full), func(t *testing.T, sp *core.File) {
			ids := make([]uint64, base.GIS().NumItems())
			for i := range ids {
				ids[i] = uint64(base.GIS().Horizon(i).Index)
			}
			ids[full]++
			sp.GIS.TauIDs = mathx.EncodeRice(ids)
		}},
		{"Opts.TopN", "GIS options", func(t *testing.T, sp *core.File) { sp.GIS.Opts.TopN++ }},
		{"one Assign", "clustering Assign", func(t *testing.T, sp *core.File) { sp.Clusters.Assign[3] ^= 1 }},
		{"one Members entry", "clustering Members", func(t *testing.T, sp *core.File) { sp.Clusters.Members[0][0]++ }},
		{"one Members list emptied", "clustering Members", func(t *testing.T, sp *core.File) { sp.Clusters.Members[1] = nil }},
		{"one Mean cell", "clustering Mean", func(t *testing.T, sp *core.File) {
			c := &sp.Clusters.Mean[0][rated]
			*c = math.Float64frombits(math.Float64bits(*c) ^ 1)
		}},
		{"one Count cell", "clustering Count", func(t *testing.T, sp *core.File) { sp.Clusters.Count[0][rated]++ }},
		{"Iterations", "clustering K/Iterations/Inertia", func(t *testing.T, sp *core.File) { sp.Clusters.Iterations++ }},
		{"one bit of Inertia", "clustering K/Iterations/Inertia", func(t *testing.T, sp *core.File) {
			sp.Clusters.Inertia = math.Float64frombits(math.Float64bits(sp.Clusters.Inertia) ^ 1)
		}},
		{"NumItems", "dimensions", func(t *testing.T, sp *core.File) { sp.NumItems++ }},
		{"NumUsers", "dimensions", func(t *testing.T, sp *core.File) { sp.NumUsers-- }},
		{"MaxRating", "rating scale", func(t *testing.T, sp *core.File) { sp.MaxRating++ }},
		{"HasTimes", "HasTimes", func(t *testing.T, sp *core.File) { sp.HasTimes = !sp.HasTimes }},
	}
	// One row per Config field, found by reflection so that a field added
	// to core.Config and forgotten in diffConfig fails here.
	cfgType := reflect.TypeOf(core.Config{})
	for f := 0; f < cfgType.NumField(); f++ {
		field := cfgType.Field(f)
		flips = append(flips, flip{"Config." + field.Name, "config field " + field.Name + " ", func(t *testing.T, sp *core.File) {
			v := reflect.ValueOf(&sp.Config).Elem().FieldByIndex(field.Index)
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 0.125)
			case reflect.Bool:
				v.SetBool(!v.Bool())
			case reflect.Slice: // ItemFeatures
				v.Set(reflect.ValueOf([][]float64{{1}}))
			case reflect.Struct: // GIS
				opts := v.Interface().(similarity.GISOptions)
				opts.MinCoRatings++
				v.Set(reflect.ValueOf(opts))
			default:
				t.Fatalf("core.Config.%s has kind %v: teach this table to change it", field.Name, v.Kind())
			}
		}})
	}

	for _, tc := range flips {
		t.Run(tc.name, func(t *testing.T) {
			sp := reloadShared(t, base)
			tc.mutate(t, sp)
			err := compareSharedToLive(sp, base)
			if err == nil {
				t.Fatal("the self-check passed the changed file")
			}
			if !strings.Contains(err.Error(), tc.part) {
				t.Errorf("error %q does not name %q", err, tc.part)
			}
			if referenceSharedCheck(sp, base) == nil {
				t.Error("the reference round-trip check passed what the direct one refused: they must agree")
			}
		})
	}
}

// TestSelfCheckReadsTheFileOnDisk drives verifySnapshot the way Snapshot
// does — through the file a snapshot wrote — on the retrain fixture: it
// passes against the model and watermark that were written, and fails,
// naming the file and what diverges, against another watermark and the
// pre-retrain model. Its row half, compareRowsToLive, refuses one value
// and one timestamp changed in the decoded file.
func TestSelfCheckReadsTheFileOnDisk(t *testing.T) {
	m := retrainedFixture(t)
	info, err := m.Snapshot()
	if err != nil || info.Skipped {
		t.Fatalf("snapshot = %+v, %v", info, err)
	}
	if got := m.reg.Counter("lifecycle_snapshots_verified_total").Value(); got < 1 {
		t.Fatalf("snapshots verified = %d: the self-check is always on", got)
	}
	live := m.Model()
	if err := verifySnapshot(info.Path, info.CoveredSeq, live); err != nil {
		t.Fatalf("the written model fails its own self-check: %v", err)
	}
	for _, tc := range []struct {
		name string
		seq  uint64
		mod  *core.Model
		want string
	}{
		{"another watermark", info.CoveredSeq + 1, live, "watermark"},
		{"the pre-retrain model", info.CoveredSeq, newBaseModel(t), "GIS"},
	} {
		err := verifySnapshot(info.Path, tc.seq, tc.mod)
		if err == nil || !strings.Contains(err.Error(), filepath.Base(info.Path)) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("against %s: err = %v, want a refusal naming %s and %q", tc.name, err, filepath.Base(info.Path), tc.want)
		}
	}

	decode := func() *core.File {
		t.Helper()
		f, err := os.Open(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		file, err := core.Decode(f)
		if err != nil {
			t.Fatal(err)
		}
		if file.Times == nil {
			t.Fatal("the fixture's file carries no timestamps")
		}
		return file
	}
	file := decode()
	file.Rows[2][0].Value = math.Float64frombits(math.Float64bits(file.Rows[2][0].Value) ^ 1)
	if err := compareRowsToLive(file, live.Matrix()); err == nil || !strings.Contains(err.Error(), "row of user 2 diverges at entry 0") {
		t.Errorf("one value changed: err = %v", err)
	}
	file = decode()
	file.Times[3][0]++
	if err := compareRowsToLive(file, live.Matrix()); err == nil || !strings.Contains(err.Error(), "timestamps of user 3") {
		t.Errorf("one timestamp changed: err = %v", err)
	}
}
