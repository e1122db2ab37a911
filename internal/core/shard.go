package core

// ShardStats describes one shard of a model: a user cluster of the
// offline phase (Eq. 6).
type ShardStats struct {
	ID      int `json:"id"`
	Users   int `json:"users"`
	Ratings int `json:"ratings"`
}

// ShardStats returns every shard's member count and the ratings those
// members hold.
func (mod *Model) ShardStats() []ShardStats {
	out := make([]ShardStats, mod.clusters.K)
	for c, members := range mod.clusters.Members {
		out[c] = ShardStats{ID: c, Users: len(members)}
		for _, u := range members {
			out[c].Ratings += len(mod.m.UserRatings(u))
		}
	}
	return out
}

// ShardedModel is a delegating shim over Model. It exists only because
// the frozen bench/ladder.go compiles against it; nothing else calls it.
type ShardedModel struct {
	mod *Model //cfsf:immutable
}

// NewSharded wraps mod.
func NewSharded(mod *Model) *ShardedModel { return &ShardedModel{mod: mod} }

// Model returns the wrapped model.
func (s *ShardedModel) Model() *Model { return s.mod }

// Apply is Model.Apply; the result wraps nil when err is set.
func (s *ShardedModel) Apply(updates []RatingUpdate) (*ShardedModel, error) {
	next, err := s.mod.Apply(updates)
	return NewSharded(next), err
}

// ShardOf returns an assigned user's cluster and any other id modulo C.
func (s *ShardedModel) ShardOf(user int) int {
	if user >= 0 && user < len(s.mod.clusters.Assign) {
		return s.mod.clusters.Assign[user]
	}
	return user % s.mod.clusters.K
}
