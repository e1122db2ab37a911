package lifecycle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/similarity"
	"cfsf/internal/wal"
)

// referenceSharedCheck is the comparison verifyWrittenParts made before
// it held the decoded blob against the live model directly: the live
// model's shared part is serialised and decoded too, and the two decoded
// forms must be deeply equal. It stays as the reference the direct
// comparison must agree with on every row below (the direct one sees
// strictly more: here both sides have been through the same encoder and
// decoder).
func referenceSharedCheck(got *core.SharedPart, live *core.Model) error {
	var buf bytes.Buffer
	if err := live.SaveSharedBlob(&buf); err != nil {
		return err
	}
	want, err := core.LoadSharedPart(&buf)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
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

// reloadShared writes mod's shared blob and decodes it again, the way
// verifyWrittenParts meets it.
func reloadShared(t *testing.T, mod *core.Model) *core.SharedPart {
	t.Helper()
	var buf bytes.Buffer
	if err := mod.SaveSharedBlob(&buf); err != nil {
		t.Fatal(err)
	}
	sp, err := core.LoadSharedPart(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSelfCheckCatchesEverySingleFlip decodes a freshly written shared
// blob and changes one thing at a time. Each change must fail the
// comparison verifyWrittenParts makes, with an error naming the part; the
// unmodified blob must pass; and the old round-trip comparison must give
// the same verdict on every row.
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
				t.Fatalf("the unmodified blob fails the self-check: %v", err)
			}
			if err := referenceSharedCheck(reloadShared(t, fx.mod), fx.mod); err != nil {
				t.Fatalf("the unmodified blob fails the reference check: %v", err)
			}
		})
	}

	// relist replaces the decoded part's GIS with the base model's
	// neighbour ids, edited, in the layout version-4 blobs carry: ids
	// alone, every weight derived on the serving matrix.
	relist := func(t *testing.T, sp *core.SharedPart, edit func(lists [][]int32) [][]int32) {
		t.Helper()
		lists := make([][]int32, base.GIS().NumItems())
		for i := range lists {
			for _, n := range base.GIS().Neighbors(i) {
				lists[i] = append(lists[i], n.Index)
			}
		}
		lists = edit(lists)
		snap := similarity.Snapshot{Lens: make([]int32, len(lists)), Opts: sp.GIS.Opts}
		for i, l := range lists {
			snap.Lens[i] = int32(len(l))
			for _, id := range l {
				snap.IDs = binary.LittleEndian.AppendUint16(snap.IDs, uint16(id))
			}
		}
		sp.GIS = snap
	}
	// withScores replaces the decoded part's GIS with the base model's,
	// weights carried — raw (version 3's layout and a blended model's) or
	// flat (version 2's) — one weight's lowest bit flipped.
	withScores := func(t *testing.T, sp *core.SharedPart, flat bool, entry int) {
		t.Helper()
		snap := base.GIS().Snapshot(true)
		if !flat {
			snap.Scores[8*entry] ^= 1
			sp.GIS = snap
			return
		}
		v2 := similarity.Snapshot{Lens: snap.Lens, Opts: snap.Opts}
		for i := 0; i < base.GIS().NumItems(); i++ {
			for _, n := range base.GIS().Neighbors(i) {
				v2.Index, v2.Score = append(v2.Index, n.Index), append(v2.Score, n.Score)
			}
		}
		v2.Score[entry] = math.Float64frombits(math.Float64bits(v2.Score[entry]) ^ 1)
		sp.GIS = v2
	}
	// rawEntry is the position, in the flat entry order blobs carry, of
	// item i's first neighbour whose id keeps within the catalogue with its
	// lowest bit flipped.
	rawEntry := func(t *testing.T, g *similarity.GIS, i int) int {
		t.Helper()
		at := 0
		for j := 0; j < i; j++ {
			at += len(g.Neighbors(j))
		}
		for k, n := range g.Neighbors(i) {
			if int(n.Index^1) < g.NumItems() {
				return at + k
			}
		}
		t.Fatalf("item %d has no neighbour whose id can flip its lowest bit", i)
		return 0
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
		mutate func(t *testing.T, sp *core.SharedPart)
	}
	last := base.GIS().NumItems() - 1
	flips := []flip{
		{"one Index", fmt.Sprintf("item %d ", full), func(t *testing.T, sp *core.SharedPart) {
			relist(t, sp, func(l [][]int32) [][]int32 { l[full][0] = (l[full][0] + 1) % int32(len(l)); return l })
		}},
		{"one bit of one Score", "GIS list of item", func(t *testing.T, sp *core.SharedPart) {
			withScores(t, sp, true, rawEntry(t, base.GIS(), full))
		}},
		{"one byte of IDs", fmt.Sprintf("item %d ", full), func(t *testing.T, sp *core.SharedPart) {
			sp.GIS.IDs = slices.Clone(sp.GIS.IDs)
			sp.GIS.IDs[rawEntry(t, base.GIS(), full)*similarity.IDWidth(len(sp.GIS.Lens))] ^= 1
		}},
		{"one bit of Scores", "GIS list of item", func(t *testing.T, sp *core.SharedPart) {
			withScores(t, sp, false, rawEntry(t, base.GIS(), full))
		}},
		{"one Lens", fmt.Sprintf("item %d ", full), func(t *testing.T, sp *core.SharedPart) {
			relist(t, sp, func(l [][]int32) [][]int32 {
				l[full], l[full+1] = append(l[full], l[full+1][0]), l[full+1][1:]
				return l
			})
		}},
		{"an entry in an empty list", fmt.Sprintf("item %d ", emptyList), func(t *testing.T, sp *core.SharedPart) {
			relist(t, sp, func(l [][]int32) [][]int32 { l[emptyList] = []int32{0}; return l })
		}},
		{"a trailing entry", fmt.Sprintf("item %d ", last), func(t *testing.T, sp *core.SharedPart) {
			relist(t, sp, func(l [][]int32) [][]int32 { l[last] = append(l[last], 0); return l })
		}},
		{"a trailing item", "GIS does not reload on the serving matrix", func(t *testing.T, sp *core.SharedPart) {
			relist(t, sp, func(l [][]int32) [][]int32 { return append(l, nil) })
		}},
		{"Opts.TopN", "GIS options", func(t *testing.T, sp *core.SharedPart) { sp.GIS.Opts.TopN++ }},
		{"one Assign", "clustering Assign", func(t *testing.T, sp *core.SharedPart) { sp.Clusters.Assign[3] ^= 1 }},
		{"one Members entry", "clustering Members", func(t *testing.T, sp *core.SharedPart) { sp.Clusters.Members[0][0]++ }},
		{"one Members list emptied", "clustering Members", func(t *testing.T, sp *core.SharedPart) { sp.Clusters.Members[1] = nil }},
		{"one Mean cell", "clustering Mean", func(t *testing.T, sp *core.SharedPart) {
			c := &sp.Clusters.Mean[0][rated]
			*c = math.Float64frombits(math.Float64bits(*c) ^ 1)
		}},
		{"one Count cell", "clustering Count", func(t *testing.T, sp *core.SharedPart) { sp.Clusters.Count[0][rated]++ }},
		{"Iterations", "clustering K/Iterations/Inertia", func(t *testing.T, sp *core.SharedPart) { sp.Clusters.Iterations++ }},
		{"one bit of Inertia", "clustering K/Iterations/Inertia", func(t *testing.T, sp *core.SharedPart) {
			sp.Clusters.Inertia = math.Float64frombits(math.Float64bits(sp.Clusters.Inertia) ^ 1)
		}},
		{"NumItems", "dimensions", func(t *testing.T, sp *core.SharedPart) { sp.NumItems++ }},
		{"NumUsers", "dimensions", func(t *testing.T, sp *core.SharedPart) { sp.NumUsers-- }},
		{"MaxRating", "rating scale", func(t *testing.T, sp *core.SharedPart) { sp.MaxRating++ }},
		{"HasTimes", "HasTimes", func(t *testing.T, sp *core.SharedPart) { sp.HasTimes = !sp.HasTimes }},
	}
	// One row per Config field, found by reflection so that a field added
	// to core.Config and forgotten in diffConfig fails here.
	cfgType := reflect.TypeOf(core.Config{})
	for f := 0; f < cfgType.NumField(); f++ {
		field := cfgType.Field(f)
		flips = append(flips, flip{"Config." + field.Name, "config field " + field.Name + " ", func(t *testing.T, sp *core.SharedPart) {
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
				t.Fatal("the self-check passed the changed blob")
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

// TestVerifyWrittenPartsReadsTheBlobsOnDisk drives the self-check the way
// Snapshot does — through the files a snapshot wrote — on the retrain
// fixture: it passes against the model that was written and fails, naming
// the shared blob, against any other.
func TestVerifyWrittenPartsReadsTheBlobsOnDisk(t *testing.T) {
	m := retrainedFixture(t)
	info, err := m.Snapshot()
	if err != nil || info.Skipped || !info.SharedWritten {
		t.Fatalf("snapshot = %+v, %v", info, err)
	}
	if got := m.reg.Counter("lifecycle_snapshots_verified_total").Value(); got < 1 {
		t.Fatalf("snapshots verified = %d: the self-check is always on", got)
	}
	m.snapMu.Lock()
	man := m.lastManifest
	m.snapMu.Unlock()
	all := map[int]bool{}
	for _, ref := range man.Shards {
		all[ref.ID] = true
	}
	dir := snapshotDir(m.cfg.DataDir)
	if err := verifyWrittenParts(dir, man, all, true, m.Model()); err != nil {
		t.Fatalf("the written model fails its own self-check: %v", err)
	}
	err = verifyWrittenParts(dir, man, nil, true, newBaseModel(t))
	if err == nil || !strings.Contains(err.Error(), man.Shared.File) {
		t.Fatalf("against the pre-retrain model: err = %v, want a refusal naming %s", err, man.Shared.File)
	}
}
