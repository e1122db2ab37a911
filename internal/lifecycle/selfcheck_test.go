package lifecycle

import (
	"bytes"
	"encoding/binary"
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

	// rehorizon replaces the decoded file's GIS horizon ids and weights
	// with the base model's, edited, in the layout model files carry.
	rehorizon := func(sp *core.File, edit func(tau []mathx.Scored) []mathx.Scored) {
		tau := make([]mathx.Scored, base.GIS().NumItems())
		for i := range tau {
			tau[i] = base.GIS().Horizon(i)
		}
		tau = edit(tau)
		ids := make([]uint64, len(tau))
		sp.GIS.TauScores = nil
		for i, h := range tau {
			ids[i] = uint64(h.Index)
			sp.GIS.TauScores = binary.LittleEndian.AppendUint64(sp.GIS.TauScores, math.Float64bits(h.Score))
		}
		sp.GIS.TauIDs = mathx.EncodeRice(ids)
	}
	// full is an item whose list is not empty and holds every candidate,
	// under the zero horizon.
	full := -1
	for i := 0; i < base.GIS().NumItems() && full < 0; i++ {
		if len(base.GIS().Neighbors(i)) > 0 && base.GIS().Horizon(i) == (mathx.Scored{}) {
			full = i
		}
	}
	if full < 0 {
		t.Fatal("no list of the base model holds every candidate")
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
	flips := []flip{
		{"a horizon on the last entry of a list", fmt.Sprintf("GIS list of item %d reloads with %d entries", full, len(base.GIS().Neighbors(full))-1), func(t *testing.T, sp *core.File) {
			rehorizon(sp, func(tau []mathx.Scored) []mathx.Scored {
				l := base.GIS().Neighbors(full)
				tau[full] = l[len(l)-1]
				return tau
			})
		}},
		{"a horizon above every weight", fmt.Sprintf("GIS list of item %d reloads with 0 entries", full), func(t *testing.T, sp *core.File) {
			rehorizon(sp, func(tau []mathx.Scored) []mathx.Scored {
				tau[full] = mathx.Scored{Score: math.MaxFloat64}
				return tau
			})
		}},
		{"a trailing item", "GIS does not reload on the serving matrix", func(t *testing.T, sp *core.File) {
			rehorizon(sp, func(tau []mathx.Scored) []mathx.Scored { return append(tau, mathx.Scored{}) })
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
// pre-retrain model — its clustering: neither model cuts a list, so the
// horizons, all the GIS a file stores, agree. Its row half, compareRowsToLive, refuses one value
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
		{"the pre-retrain model", info.CoveredSeq, newBaseModel(t), "clustering"},
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
