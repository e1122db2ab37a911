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

// checkUpdate refuses update k of a batch when an id is negative or the
// value lies off the model's rating scale (NaN included): a matrix holds
// only values on its own scale, the one a model file's value table is
// checked against at load.
func (mod *Model) checkUpdate(k int, up RatingUpdate) error {
	if up.User < 0 || up.Item < 0 {
		return fmt.Errorf("cfsf: negative id in update (%d,%d)", up.User, up.Item)
	}
	if lo, hi := mod.m.MinRating(), mod.m.MaxRating(); !(up.Value >= lo && up.Value <= hi) {
		return fmt.Errorf("cfsf: update %d rates (%d,%d) %g, outside the scale %g..%g", k, up.User, up.Item, up.Value, lo, hi)
	}
	return nil
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
//   - smoothing deviations are recomputed (a cheap O(nnz) pass);
//   - the per-user neighbour cache starts cold.
//
// Accuracy note: because centroids are not re-fitted, a long stream of
// updates slowly degrades the clustering; retrain fully at a cadence that
// suits the application (the Stats of the returned model record how much
// cheaper the refresh was).
//
// Clock reads: refresh durations recorded in TrainStats only; no clock value reaches predictions or replayed state.
func (mod *Model) WithUpdates(updates []RatingUpdate) (*Model, error) {
	if len(updates) == 0 {
		return mod, nil
	}
	start := time.Now()

	numUsers, numItems := mod.m.NumUsers(), mod.m.NumItems()
	for k, up := range updates {
		if err := mod.checkUpdate(k, up); err != nil {
			return nil, err
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
	itemList := make([]int, len(updates))
	for k, up := range updates {
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
		itemList[k] = up.Item
	}
	m := b.Build()

	// The changed users sorted, so the cluster reassignment below visits
	// them in one order whatever the map's iteration order. The changed
	// items need no order and may repeat: GIS.Refresh reads them into a
	// dense set.
	userList := make([]int, 0, len(changedUsers))
	for u := range changedUsers {
		userList = append(userList, u)
	}
	sort.Ints(userList)

	next := &Model{cfg: mod.cfg, m: m}

	t := time.Now()
	next.gis = mod.gis.Refresh(m, itemList, mod.cfg.M)
	next.stats.GISDuration = time.Since(t)
	next.stats.GISNeighbors = next.gis.TotalNeighbors()
	next.stats.GISReselected = mod.stats.GISReselected + next.gis.Reselected()

	t = time.Now()
	next.clusters = mod.clusters.ReassignUsers(m, userList)
	next.stats.ClusterDuration = time.Since(t)
	next.stats.ClusterIters = 0 // no K-means pass ran

	t = time.Now()
	next.sm = smoothing.New(m, next.clusters)
	next.stats.SmoothDuration = time.Since(t)

	next.neighborCache = make([]atomic.Pointer[[]likeMinded], m.NumUsers())
	next.initRecCache()
	next.stats.Incremental = true
	next.stats.UpdatesApplied = len(updates)
	next.stats.TotalDuration = time.Since(start)
	return next, nil
}
