package core

import (
	"fmt"
	"time"
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
// ShardedModel is immutable like the Model it wraps; Apply returns a new
// value. An unsharded deployment is the C=1 special case.
type ShardedModel struct {
	mod    *Model       //cfsf:immutable
	shards []ShardStats //cfsf:immutable
	// dirty lists, ascending, the shards whose persisted rows this value's
	// construction invalidated relative to its predecessor (see
	// DirtyShards). It describes the transition, not cumulative state:
	// each Apply result carries only its own step's dirt.
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

// Apply folds a batch of rating updates into a new ShardedModel through
// the shard-local incremental path (rebuilding only the touched shards).
// The resulting model is bit-for-bit the one the from-scratch WithUpdates
// returns; there is no batch it hands over to that pass.
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
	next, err := s.mod.withUpdatesIncremental(updates)
	if err != nil {
		return nil, err
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
