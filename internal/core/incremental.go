package core

import (
	"sort"
	"sync/atomic"
	"time"

	"cfsf/internal/ratings"
)

// Apply folds a batch of rating updates into a new model: the online
// write path every serving role (leader, boot replay, follower,
// standalone server) takes. The receiver is untouched and stays valid.
// The result is bit-for-bit the model WithUpdates returns — every
// floating-point aggregate included — but each pass reads and writes only
// what the batch changed, sharing the rest with the receiver:
//
//   - the changed users' matrix rows and the changed items' columns
//     (ratings.Upserted; the global mean comes from the per-user sums);
//   - the changed items' GIS lists, selected again from their candidates,
//     and the lists that hold a changed item or gain one;
//   - in the clusters a changed user sat in or joins, the centroid cells
//     of the items that user's row holds or the batch wrote;
//   - the Eq. 8 deviations and fill-memo columns of every item in a
//     changed user's row (a new rating moves the user's mean, which
//     shifts the whole row's centred values), in those clusters and
//     globally.
//
// Besides those, an Apply copies its per-user and per-item slice headers.
// Only the GIS selection of the changed items fans out over
// Config.Workers; every other pass runs on the calling goroutine.
//
// No per-user cluster ranking is kept: the like-minded selection ranks
// a user's clusters on the cache miss that reads them (gatherCandidates).
//
// It is total: every batch WithUpdates accepts goes through it, the
// first timed update into an untimed matrix included (ratings.Upserted
// promotes the matrix; no model structure reads a timestamp).
//
// Clock reads: refresh durations recorded in TrainStats only; no clock value reaches predictions or replayed state.
func (mod *Model) Apply(updates []RatingUpdate) (*Model, error) {
	if len(updates) == 0 {
		return mod, nil
	}
	start := time.Now()

	ups := make([]ratings.Upsert, len(updates))
	changedUsers := map[int]bool{}
	// The changed items as the batch names them, in any order and with
	// repeats: GIS.Refresh reads the list into a dense set.
	itemList := make([]int, len(updates))
	for k, up := range updates {
		if err := mod.checkUpdate(k, up); err != nil {
			return nil, err
		}
		ups[k] = ratings.Upsert{User: up.User, Item: up.Item, Value: up.Value, Time: up.Time}
		changedUsers[up.User] = true
		itemList[k] = up.Item
	}

	m, err := mod.m.Upserted(ups)
	if err != nil {
		return nil, err
	}

	// The changed users sorted, as WithUpdates sorts them: the cluster
	// refresh visits them in one order whatever the map's iteration order.
	userList := make([]int, 0, len(changedUsers))
	for u := range changedUsers {
		userList = append(userList, u)
	}
	sort.Ints(userList)

	out := &Model{cfg: mod.cfg, m: m}

	t := time.Now()
	out.gis = mod.gis.Refresh(m, itemList, mod.cfg.M)
	out.stats.GISDuration = time.Since(t)
	out.stats.GISNeighbors = mod.stats.GISNeighbors + out.gis.NeighborDelta()
	out.stats.GISReselected = mod.stats.GISReselected + out.gis.Reselected()

	t = time.Now()
	cl, affected := mod.clusters.RefreshUsers(m, userList, ups...)
	out.clusters = cl
	out.stats.ClusterDuration = time.Since(t)
	out.stats.ClusterIters = 0 // no K-means pass ran

	n := 0
	for _, u := range userList {
		n += len(m.UserRatings(u))
	}
	affItems := make(map[int]bool, n)
	for _, u := range userList {
		for _, e := range m.UserRatings(u) {
			affItems[int(e.Index)] = true
		}
	}

	t = time.Now()
	out.sm = mod.sm.Refresh(m, cl, affected, affItems)
	out.stats.SmoothDuration = time.Since(t)

	out.neighborCache = make([]atomic.Pointer[[]likeMinded], m.NumUsers())
	out.initRecCache()
	out.stats.Incremental = true
	out.stats.UpdatesApplied = len(updates)
	out.stats.TotalDuration = time.Since(start)
	return out, nil
}
