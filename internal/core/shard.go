package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"cfsf/internal/similarity"
	"cfsf/internal/smoothing"
)

// ShardedModel views a trained Model as C per-cluster shards behind a
// thin router. The shard boundary is the user-cluster boundary of the
// offline phase (Eq. 6): each shard owns its users' matrix rows, their
// Eq. 8 smoothing deviations, and their iCluster rankings, while the GIS
// stays one shared read-mostly structure refreshed copy-on-write (item
// similarity is global by construction — splitting it per user cluster
// would change the algorithm).
//
// The wrapper changes who rebuilds what, not what is computed: Apply
// produces exactly the model WithUpdates would (bit-for-bit), but a batch
// confined to one shard rebuilds only that shard's structures. A
// ShardedModel is immutable like the Model it wraps; Apply and
// RetrainShard return new values. An unsharded deployment is the C=1
// special case.
type ShardedModel struct {
	mod    *Model       //cfsf:immutable
	shards []ShardStats //cfsf:immutable
	// dirty lists, ascending, the shards whose persisted rows this value's
	// construction invalidated relative to its predecessor (see
	// DirtyShards). It describes the transition, not cumulative state:
	// each Apply/RetrainShard result carries only its own step's dirt.
	dirty []int //cfsf:immutable
}

// ShardStats describes one shard of a ShardedModel.
type ShardStats struct {
	ID      int `json:"id"`
	Users   int `json:"users"`
	Ratings int `json:"ratings"`
	// Applies counts the Apply batches that touched this shard; Applied
	// counts the rating updates of those batches that were routed to it,
	// so Applied summed over the shards is the number of ratings applied.
	Applies int `json:"applies"`
	Applied int `json:"applied"`
	// LastApplyMS is the duration of the most recent apply that touched
	// this shard (the whole batch's duration, attributed to each shard it
	// touched).
	LastApplyMS float64 `json:"last_apply_ms"`
	// Retrains counts RetrainShard passes; LastRetrainMS is the duration
	// of the latest one.
	Retrains      int     `json:"retrains"`
	LastRetrainMS float64 `json:"last_retrain_ms"`
}

// NewSharded wraps an already-trained model. The shard count is the
// model's cluster count.
func NewSharded(mod *Model) *ShardedModel {
	return &ShardedModel{mod: mod, shards: make([]ShardStats, mod.clusters.K)}
}

// Model returns the wrapped monolithic model (the serving view: Predict,
// Recommend, persistence all operate on it unchanged).
func (s *ShardedModel) Model() *Model { return s.mod }

// NumShards returns the shard (= cluster) count.
func (s *ShardedModel) NumShards() int { return s.mod.clusters.K }

// ShardOf routes a user id to its shard: assigned users go to their
// cluster, users beyond the current assignment (new users) are routed
// round-robin by id so a routing decision made before the apply is stable
// across crash-recovery replay.
func (s *ShardedModel) ShardOf(user int) int {
	if user >= 0 && user < len(s.mod.clusters.Assign) {
		return s.mod.clusters.Assign[user]
	}
	return user % s.NumShards()
}

// Apply folds a batch of rating updates into a new ShardedModel. Batches
// that permit it take the shard-local incremental path (rebuilding only
// the touched shards); batches that dirty every shard (time decay, a
// times-transition) fall back to the monolithic WithUpdates pass. Either
// way the resulting model is bit-for-bit the one WithUpdates returns.
//
//cfsf:wallclock-ok apply duration recorded in ShardStats only; no clock value reaches predictions or replayed state
func (s *ShardedModel) Apply(updates []RatingUpdate) (*ShardedModel, error) {
	if len(updates) == 0 {
		return s, nil
	}
	// Attribute the batch to shards by pre-apply routing, so counters
	// match the routing decision a queueing layer made.
	touched := map[int]int{} // shard -> updates routed to it
	for _, up := range updates {
		if up.User < 0 {
			return nil, fmt.Errorf("cfsf: negative id in update (%d,%d)", up.User, up.Item)
		}
		touched[s.ShardOf(up.User)]++
	}
	start := time.Now()
	next, ok, err := s.mod.withUpdatesIncremental(updates)
	if err != nil {
		return nil, err
	}
	if !ok {
		next, err = s.mod.WithUpdates(updates)
		if err != nil {
			return nil, err
		}
	}
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	// Persistence dirt is the union of each changed user's pre-apply
	// routing and post-apply assignment: the refresh pass can move a user
	// to another cluster, invalidating both the shard that lost the row
	// and the one that gained it.
	dirtySet := make(map[int]bool, len(touched))
	for c := range touched {
		dirtySet[c] = true
	}
	for _, up := range updates {
		if up.User < len(next.clusters.Assign) {
			dirtySet[next.clusters.Assign[up.User]] = true
		}
	}
	out := &ShardedModel{mod: next, shards: append([]ShardStats(nil), s.shards...), dirty: sortedShardSet(dirtySet)}
	for c, n := range touched {
		if c < len(out.shards) {
			out.shards[c].Applies++
			out.shards[c].Applied += n
			out.shards[c].LastApplyMS = ms
		}
	}
	return out, nil
}

// RetrainShard re-fits one shard: its members are re-placed on their
// nearest current centroid (one Lloyd assignment sweep restricted to the
// shard) and every structure the moves invalidate is refreshed. Users
// that migrate to another cluster change shard. Combined with RebuildGIS
// and swept across all shards, this is the sharded replacement for a
// stop-the-world full retrain: each step locks in only one shard's worth
// of recompute.
//
//cfsf:wallclock-ok retrain duration recorded in ShardStats only; no clock value reaches predictions or replayed state
func (s *ShardedModel) RetrainShard(shard int) (*ShardedModel, error) {
	if shard < 0 || shard >= s.NumShards() {
		return nil, fmt.Errorf("cfsf: shard %d out of range [0,%d)", shard, s.NumShards())
	}
	start := time.Now()
	mod := s.mod
	members := mod.clusters.Members[shard]
	moved := make([]int, 0, 8)
	if len(members) > 0 {
		place := mod.clusters.NearestAll(mod.m, members)
		for j, u := range members {
			if place[j] != shard {
				moved = append(moved, u)
			}
		}
	}
	out := &ShardedModel{mod: mod, shards: append([]ShardStats(nil), s.shards...), dirty: []int{shard}}
	if len(moved) > 0 {
		cl, affected := mod.clusters.RefreshUsers(mod.m, moved)
		affItems := map[int]bool{}
		movedSet := map[int]bool{}
		for _, u := range moved {
			movedSet[u] = true
			for _, e := range mod.m.UserRatings(u) {
				affItems[int(e.Index)] = true
			}
		}
		next := &Model{cfg: mod.cfg, m: mod.m, gis: mod.gis, clusters: cl, stats: mod.stats, decay: mod.decay,
			// The GIS pointer is unchanged, so the id-sorted mirror carries over wholesale.
			topM: mod.topM, topM2: mod.topM2}
		next.sm = mod.sm.Refresh(mod.m, cl, affected, affItems, mod.cfg.Workers)
		next.ic = smoothing.RefreshICluster(mod.ic, next.sm, affected, movedSet, mod.cfg.Workers)
		next.neighborCache = make([]atomic.Pointer[[]likeMinded], mod.m.NumUsers())
		next.initRecCache()
		out.mod = next
		dirtySet := map[int]bool{shard: true}
		for _, u := range moved {
			dirtySet[cl.Assign[u]] = true
		}
		out.dirty = sortedShardSet(dirtySet)
	}
	out.shards[shard].Retrains++
	out.shards[shard].LastRetrainMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, nil
}

// RebuildGIS recomputes the shared item-similarity structure from scratch
// on the current matrix. Incremental GIS refreshes only heal the changed
// items' own lists (truncated lists of unchanged items can go stale, see
// similarity.Refresh); a retrain sweep starts here so every shard's pass
// reads fresh similarities.
func (s *ShardedModel) RebuildGIS() *ShardedModel {
	mod := s.mod
	gisOpts := mod.gis.Options()
	var gis *similarity.GIS
	if mod.cfg.ContentBlend > 0 && len(mod.cfg.ItemFeatures) > 0 {
		gis = similarity.BuildGISWithContent(mod.m, mod.cfg.ItemFeatures, mod.cfg.ContentBlend, gisOpts)
	} else {
		gis = similarity.BuildGIS(mod.m, gisOpts)
	}
	next := &Model{cfg: mod.cfg, m: mod.m, gis: gis, clusters: mod.clusters,
		sm: mod.sm, ic: mod.ic, stats: mod.stats, decay: mod.decay}
	next.stats.GISNeighbors = gis.TotalNeighbors()
	next.neighborCache = make([]atomic.Pointer[[]likeMinded], mod.m.NumUsers())
	// A from-scratch GIS shares no backing arrays with the old one, so the
	// id-sorted mirror is rebuilt in full.
	next.initRecCache()
	next.buildTopM(nil)
	return &ShardedModel{mod: next, shards: append([]ShardStats(nil), s.shards...)}
}

// ShardStats returns a copy of the per-shard statistics with live user
// and rating counts filled in from the current clustering.
func (s *ShardedModel) ShardStats() []ShardStats {
	out := append([]ShardStats(nil), s.shards...)
	for c := range out {
		out[c].ID = c
		out[c].Users = len(s.mod.clusters.Members[c])
		n := 0
		for _, u := range s.mod.clusters.Members[c] {
			n += len(s.mod.m.UserRatings(u))
		}
		out[c].Ratings = n
	}
	return out
}
