package lifecycle

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
)

// compareSharedToLive holds what a decoded model file stores besides its
// rows against the model it was written from, value by value: the
// configuration, the dimensions, the GIS a boot from the file would serve
// — every list selected under its stored horizon on the live matrix, the
// way File.Model selects it on the one it rebuilds — entry by entry, every
// list's horizon, the index of which lists hold each item, and every
// field of the clustering. So every snapshot also holds the live GIS to
// its horizon invariant — each list is exactly its candidates that
// precede its horizon — and its maintained holder index to the one the
// reload derives from its lists, before a later Apply skips a list on the
// strength of it. Slices compare by length and
// content, because gob does not tell a nil slice from an empty one; floats
// compare by their bits.
// Nothing on the live side has been through the encoder, so a fault in
// the encoder and its mirror image in the decoder cannot cancel each
// other out. The error names the part that diverges.
func compareSharedToLive(sp *core.File, live *core.Model) error {
	if field := diffConfig(sp.Config, live.Config()); field != "" {
		return fmt.Errorf("config field %s diverges from the serving model", field)
	}
	mx := live.Matrix()
	if sp.NumUsers != mx.NumUsers() || sp.NumItems != mx.NumItems() {
		return fmt.Errorf("dimensions reload as %dx%d, model is %dx%d", sp.NumUsers, sp.NumItems, mx.NumUsers(), mx.NumItems())
	}
	if !sameBits(sp.MinRating, mx.MinRating()) || !sameBits(sp.MaxRating, mx.MaxRating()) {
		return fmt.Errorf("rating scale reloads as [%v, %v], model has [%v, %v]", sp.MinRating, sp.MaxRating, mx.MinRating(), mx.MaxRating())
	}
	if sp.HasTimes != mx.HasTimes() {
		return fmt.Errorf("HasTimes reloads as %v, model has %v", sp.HasTimes, mx.HasTimes())
	}

	gis := live.GIS()
	if sp.GIS.Opts != gis.Options() {
		return fmt.Errorf("GIS options reload as %+v, model has %+v", sp.GIS.Opts, gis.Options())
	}
	loaded, err := similarity.FromSnapshot(sp.GIS, mx)
	if err != nil {
		return fmt.Errorf("GIS does not reload on the serving matrix: %w", err)
	}
	for i := 0; i < gis.NumItems(); i++ {
		got, want := loaded.Neighbors(i), gis.Neighbors(i)
		if len(got) != len(want) {
			return fmt.Errorf("GIS list of item %d reloads with %d entries, model has %d", i, len(got), len(want))
		}
		for k, n := range want {
			if got[k].Index != n.Index || !sameBits(got[k].Score, n.Score) {
				return fmt.Errorf("GIS list of item %d diverges at entry %d", i, k)
			}
		}
		if got, want := loaded.Horizon(i), gis.Horizon(i); got.Index != want.Index || !sameBits(got.Score, want.Score) {
			return fmt.Errorf("GIS horizon of item %d reloads as %v, model has %v", i, got, want)
		}
	}
	if err := gis.CheckHolders(loaded); err != nil {
		return fmt.Errorf("GIS holder index diverges from the reloaded lists': %w", err)
	}

	got, want := sp.Clusters, live.Clusters()
	if got.K != want.K || got.Iterations != want.Iterations || !sameBits(got.Inertia, want.Inertia) {
		return fmt.Errorf("clustering K/Iterations/Inertia reload as %d/%d/%v, model has %d/%d/%v",
			got.K, got.Iterations, got.Inertia, want.K, want.Iterations, want.Inertia)
	}
	if !slices.Equal(got.Assign, want.Assign) {
		return fmt.Errorf("clustering Assign diverges from the serving model")
	}
	if !slices.EqualFunc(got.Members, want.Members, slices.Equal[[]int]) {
		return fmt.Errorf("clustering Members diverges from the serving model")
	}
	if !slices.EqualFunc(got.Mean, want.Mean, sameFloats) {
		return fmt.Errorf("clustering Mean diverges from the serving model")
	}
	if !slices.EqualFunc(got.Count, want.Count, slices.Equal[[]int32]) {
		return fmt.Errorf("clustering Count diverges from the serving model")
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }

// diffConfig returns the name of the first field two configurations
// differ in, or "" when they are equal.
func diffConfig(got, want core.Config) string {
	for _, f := range []struct {
		name string
		same bool
	}{
		{"M", got.M == want.M},
		{"K", got.K == want.K},
		{"Clusters", got.Clusters == want.Clusters},
		{"Lambda", sameBits(got.Lambda, want.Lambda)},
		{"Delta", sameBits(got.Delta, want.Delta)},
		{"OriginalWeight", sameBits(got.OriginalWeight, want.OriginalWeight)},
		{"CandidateFactor", got.CandidateFactor == want.CandidateFactor},
		{"GIS", got.GIS == want.GIS},
		{"ItemFeatures", slices.EqualFunc(got.ItemFeatures, want.ItemFeatures, sameFloats)},
		{"ContentBlend", sameBits(got.ContentBlend, want.ContentBlend)},
		{"ClusterMaxIter", got.ClusterMaxIter == want.ClusterMaxIter},
		{"ClusterMetric", got.ClusterMetric == want.ClusterMetric},
		{"Seed", got.Seed == want.Seed},
		{"Workers", got.Workers == want.Workers},
		{"DisableSmoothing", got.DisableSmoothing == want.DisableSmoothing},
		{"DisableCache", got.DisableCache == want.DisableCache},
		{"FullUserSearch", got.FullUserSearch == want.FullUserSearch},
		{"RecommendCacheSize", got.RecommendCacheSize == want.RecommendCacheSize},
	} {
		if !f.same {
			return f.name
		}
	}
	return ""
}

// verifySnapshot reads the snapshot file at path back from disk (frame,
// checksum, decoder) and demands it reproduce the serving model
// bit-for-bit: the watermark it was written at, the configuration, GIS and
// clustering (compareSharedToLive), and every matrix row and timestamp.
// The error names the file and the part that diverges.
func verifySnapshot(path string, seq uint64, live *core.Model) error {
	err := func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		file, err := core.Decode(f)
		if err != nil {
			return err
		}
		if file.Seq != seq {
			return fmt.Errorf("watermark reloads as %d, model is at %d", file.Seq, seq)
		}
		if err := compareSharedToLive(file, live); err != nil {
			return err
		}
		return compareRowsToLive(file, live.Matrix())
	}()
	if err != nil {
		return fmt.Errorf("snapshot %s: %w", filepath.Base(path), err)
	}
	return nil
}

// compareRowsToLive holds a decoded file's rows and timestamps against
// the serving matrix, entry by entry. compareSharedToLive has already
// held the dimensions and timestamp presence.
func compareRowsToLive(file *core.File, mx *ratings.Matrix) error {
	for u, row := range file.Rows {
		want := mx.UserRatings(u)
		if len(row) != len(want) {
			return fmt.Errorf("row of user %d reloads with %d entries, model has %d", u, len(row), len(want))
		}
		for k, e := range want {
			if row[k].Index != e.Index || !sameBits(row[k].Value, e.Value) {
				return fmt.Errorf("row of user %d diverges at entry %d", u, k)
			}
		}
		if file.Times != nil && !slices.Equal(file.Times[u], mx.UserRatingTimes(u)) {
			return fmt.Errorf("timestamps of user %d diverge from the serving model", u)
		}
	}
	return nil
}
