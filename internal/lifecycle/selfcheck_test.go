package lifecycle

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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

	// fromSnapshot replaces the decoded part's GIS with the one snap
	// decodes to.
	fromSnapshot := func(t *testing.T, sp *core.SharedPart, snap similarity.Snapshot) {
		t.Helper()
		gis, err := similarity.FromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		sp.GIS = gis
	}
	// regis rewrites the decoded part's GIS through the version-2 layout,
	// one int32 and one float64 per entry, for the flips that change the
	// lists' shape rather than one entry.
	regis := func(t *testing.T, sp *core.SharedPart, mutate func(*similarity.Snapshot)) {
		t.Helper()
		snap := similarity.Snapshot{Lens: make([]int32, sp.GIS.NumItems()), Opts: sp.GIS.Options()}
		for i := range snap.Lens {
			snap.Lens[i] = int32(len(sp.GIS.Neighbors(i)))
			for _, n := range sp.GIS.Neighbors(i) {
				snap.Index, snap.Score = append(snap.Index, n.Index), append(snap.Score, n.Score)
			}
		}
		mutate(&snap)
		fromSnapshot(t, sp, snap)
	}
	// rawEntry is the position, in the version-3 layout the blob carries,
	// of item i's first neighbour whose id keeps within the catalogue with
	// its lowest bit flipped.
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
	flips := []flip{
		{"one Index", "GIS list of item", func(t *testing.T, sp *core.SharedPart) { sp.GIS.Neighbors(full)[0].Index++ }},
		{"one bit of one Score", "GIS list of item", func(t *testing.T, sp *core.SharedPart) {
			n := &sp.GIS.Neighbors(full)[0]
			n.Score = math.Float64frombits(math.Float64bits(n.Score) ^ 1)
		}},
		{"one byte of IDs", "GIS list of item", func(t *testing.T, sp *core.SharedPart) {
			snap := sp.GIS.Snapshot()
			snap.IDs[rawEntry(t, sp.GIS, full)*similarity.IDWidth(len(snap.Lens))] ^= 1
			fromSnapshot(t, sp, snap)
		}},
		{"one bit of Scores", "GIS list of item", func(t *testing.T, sp *core.SharedPart) {
			snap := sp.GIS.Snapshot()
			snap.Scores[rawEntry(t, sp.GIS, full)*8] ^= 1
			fromSnapshot(t, sp, snap)
		}},
		{"one Lens", "GIS list of item", func(t *testing.T, sp *core.SharedPart) {
			regis(t, sp, func(s *similarity.Snapshot) { s.Lens[full]++; s.Lens[full+1]-- })
		}},
		{"an entry in an empty list", fmt.Sprintf("GIS list of item %d ", emptyList), func(t *testing.T, sp *core.SharedPart) {
			regis(t, sp, func(s *similarity.Snapshot) {
				at := 0
				for _, n := range s.Lens[:emptyList] {
					at += int(n)
				}
				s.Lens[emptyList] = 1
				s.Index = append(s.Index[:at:at], append([]int32{0}, s.Index[at:]...)...)
				s.Score = append(s.Score[:at:at], append([]float64{.5}, s.Score[at:]...)...)
			})
		}},
		{"a trailing entry", "GIS list of item", func(t *testing.T, sp *core.SharedPart) {
			regis(t, sp, func(s *similarity.Snapshot) {
				s.Lens[len(s.Lens)-1]++
				s.Index, s.Score = append(s.Index, 0), append(s.Score, .25)
			})
		}},
		{"a trailing item", "GIS reloads with", func(t *testing.T, sp *core.SharedPart) {
			regis(t, sp, func(s *similarity.Snapshot) { s.Lens = append(s.Lens, 0) })
		}},
		{"Opts.TopN", "GIS options", func(t *testing.T, sp *core.SharedPart) {
			regis(t, sp, func(s *similarity.Snapshot) { s.Opts.TopN++ })
		}},
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
