package core

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cfsf/internal/ratings"
	"cfsf/internal/smoothing"
)

// Apply folds a batch of rating updates into a new model: the online
// write path every serving role (leader, boot replay, follower,
// standalone server) takes. The receiver is untouched and stays valid.
// The result is bit-for-bit the model WithUpdates returns — every
// floating-point aggregate included — but Apply rebuilds only the
// structures a batch can actually invalidate:
//
//   - changed users' matrix rows and changed items' columns (the rest of
//     the immutable matrix is shared, not re-sorted);
//   - GIS neighbour lists of the changed items (same Refresh call the
//     monolithic path makes);
//   - cluster statistics of the affected shards (each changed user's old
//     and new cluster);
//   - smoothing deviations of the affected shards plus the global
//     deviations of every item in a changed user's row (a new rating
//     moves the user's mean, which shifts the whole row's centred
//     values);
//   - iCluster entries for the affected shards (re-sorted per user) and
//     full rankings for the changed users themselves.
//
// It is total: every batch WithUpdates accepts goes through it, the
// first timed update into an untimed matrix included (ratings.Upserted
// promotes the matrix; no model structure reads a timestamp).
//
//cfsf:wallclock-ok refresh durations recorded in TrainStats only; no clock value reaches predictions or replayed state
func (mod *Model) Apply(updates []RatingUpdate) (*Model, error) {
	if len(updates) == 0 {
		return mod, nil
	}
	start := time.Now()

	ups := make([]ratings.Upsert, len(updates))
	changedUsers := map[int]bool{}
	changedItems := map[int]bool{}
	for k, up := range updates {
		if up.User < 0 || up.Item < 0 {
			return nil, fmt.Errorf("cfsf: negative id in update (%d,%d)", up.User, up.Item)
		}
		ups[k] = ratings.Upsert{User: up.User, Item: up.Item, Value: up.Value, Time: up.Time}
		changedUsers[up.User] = true
		changedItems[up.Item] = true
	}

	m, err := mod.m.Upserted(ups)
	if err != nil {
		return nil, err
	}

	// Sorted for the same reason as WithUpdates: the refresh passes must
	// see the changed sets in a fixed order or replay diverges.
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

	out := &Model{cfg: mod.cfg, m: m}

	t := time.Now()
	out.gis = mod.gis.Refresh(m, itemList, mod.gis.Options())
	out.stats.GISDuration = time.Since(t)
	out.stats.GISNeighbors = out.gis.TotalNeighbors()

	t = time.Now()
	cl, affected := mod.clusters.RefreshUsers(m, userList)
	out.clusters = cl
	out.stats.ClusterDuration = time.Since(t)
	out.stats.ClusterIters = 0 // no K-means pass ran

	affItems := map[int]bool{}
	for u := range changedUsers {
		for _, e := range m.UserRatings(u) {
			affItems[int(e.Index)] = true
		}
	}

	t = time.Now()
	out.sm = mod.sm.Refresh(m, cl, affected, affItems, mod.cfg.Workers)
	out.stats.SmoothDuration = time.Since(t)

	t = time.Now()
	out.ic = smoothing.RefreshICluster(mod.ic, out.sm, affected, changedUsers, mod.cfg.Workers)
	out.stats.IClusterDuration = time.Since(t)

	out.neighborCache = make([]atomic.Pointer[[]likeMinded], m.NumUsers())
	out.initRecCache()
	t = time.Now()
	out.buildTopM(mod)
	out.stats.MirrorDuration = time.Since(t)
	out.stats.Incremental = true
	out.stats.UpdatesApplied = len(updates)
	out.stats.TotalDuration = time.Since(start)
	return out, nil
}
