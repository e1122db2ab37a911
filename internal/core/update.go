package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cfsf/internal/ratings"
	"cfsf/internal/smoothing"
)

// RatingUpdate is one new or revised rating fed to Apply or WithUpdates.
// User and Item ids one past the current bounds grow the matrix (a new
// user or a new catalogue item). Both accept any non-negative id — an id
// far past the bounds allocates every row up to it — so callers exposed
// to untrusted input (internal/server) must enforce a growth margin:
// reject ids at or beyond current bounds + margin before applying. The
// serving default margin of 1 admits exactly the next fresh user/item id.
type RatingUpdate struct {
	User  int
	Item  int
	Value float64
	// Time is an optional unix timestamp for the rating (0 = untimed). It
	// is stored and persisted with the rating; no prediction reads it.
	Time int64
}

// WithUpdates returns a new model that incorporates the given ratings
// without rerunning the full offline phase — the paper's §VI future work
// ("how it can keep GIS up-to-date"). The original model is untouched and
// stays valid. It rebuilds every derived structure from scratch, which
// makes it the reference Apply is pinned to bit-for-bit; serving code
// calls Apply.
//
// Incremental steps:
//
//   - the rating matrix is rebuilt (it is immutable by design; the
//     rebuild is a single O(nnz) pass);
//   - GIS neighbour lists are refreshed only for the items whose columns
//     changed (similarity.GIS.Refresh);
//   - users whose rows changed (and brand-new users) are reassigned to
//     their nearest existing centroid — K-means itself does not rerun;
//   - smoothing deviations and iCluster rankings are recomputed (both
//     are cheap O(nnz) passes);
//   - the per-user neighbour cache starts cold.
//
// Accuracy note: because centroids are not re-fitted, a long stream of
// updates slowly degrades the clustering; retrain fully at a cadence that
// suits the application (the Stats of the returned model record how much
// cheaper the refresh was).
//
//cfsf:wallclock-ok refresh durations recorded in TrainStats only; no clock value reaches predictions or replayed state
func (mod *Model) WithUpdates(updates []RatingUpdate) (*Model, error) {
	if len(updates) == 0 {
		return mod, nil
	}
	start := time.Now()

	numUsers, numItems := mod.m.NumUsers(), mod.m.NumItems()
	for _, up := range updates {
		if up.User < 0 || up.Item < 0 {
			return nil, fmt.Errorf("cfsf: negative id in update (%d,%d)", up.User, up.Item)
		}
		if up.User >= numUsers {
			numUsers = up.User + 1
		}
		if up.Item >= numItems {
			numItems = up.Item + 1
		}
	}

	// Rebuild the immutable matrix with the updates applied.
	b := ratings.NewBuilder(numUsers, numItems)
	b.SetScale(mod.m.MinRating(), mod.m.MaxRating())
	hasTimes := mod.m.HasTimes()
	for u := 0; u < mod.m.NumUsers(); u++ {
		times := mod.m.UserRatingTimes(u)
		for k, e := range mod.m.UserRatings(u) {
			if hasTimes {
				if err := b.AddWithTime(u, int(e.Index), e.Value, times[k]); err != nil {
					return nil, err
				}
				continue
			}
			b.MustAdd(u, int(e.Index), e.Value)
		}
	}
	changedUsers := map[int]bool{}
	changedItems := map[int]bool{}
	for _, up := range updates {
		var err error
		if hasTimes || up.Time != 0 {
			err = b.AddWithTime(up.User, up.Item, up.Value, up.Time)
		} else {
			err = b.Add(up.User, up.Item, up.Value)
		}
		if err != nil {
			return nil, err
		}
		changedUsers[up.User] = true
		changedItems[up.Item] = true
	}
	m := b.Build()

	// Sorted so the refresh passes below see the changed sets in a fixed
	// order: map iteration order varies per run, and an order-dependent
	// refresh would break bit-for-bit replay.
	itemList := make([]int, 0, len(changedItems))
	for i := range changedItems {
		itemList = append(itemList, i)
	}
	sort.Ints(itemList)
	userList := make([]int, 0, len(changedUsers))
	for u := range changedUsers {
		userList = append(userList, u)
	}
	sort.Ints(userList)

	next := &Model{cfg: mod.cfg, m: m}

	t := time.Now()
	gisOpts := mod.gis.Options()
	next.gis = mod.gis.Refresh(m, itemList, gisOpts)
	next.stats.GISDuration = time.Since(t)
	next.stats.GISNeighbors = next.gis.TotalNeighbors()

	t = time.Now()
	next.clusters = mod.clusters.ReassignUsers(m, userList)
	next.stats.ClusterDuration = time.Since(t)
	next.stats.ClusterIters = 0 // no K-means pass ran

	t = time.Now()
	next.sm = smoothing.New(m, next.clusters)
	next.stats.SmoothDuration = time.Since(t)

	t = time.Now()
	next.ic = smoothing.BuildICluster(next.sm, mod.cfg.Workers)
	next.stats.IClusterDuration = time.Since(t)

	next.neighborCache = make([]atomic.Pointer[[]likeMinded], m.NumUsers())
	next.initRecCache()
	t = time.Now()
	next.buildTopM(mod)
	next.stats.MirrorDuration = time.Since(t)
	next.stats.Incremental = true
	next.stats.UpdatesApplied = len(updates)
	next.stats.TotalDuration = time.Since(start)
	return next, nil
}
