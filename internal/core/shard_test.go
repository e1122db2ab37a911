package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"cfsf/internal/ratings"
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
			Value: float64(rng.Intn(9)+2) / 2, // 1 to 5 by halves, on the scale
		}
	}
	return ups
}

// TestShardedParityProperty is the incremental/from-scratch parity
// property test: Apply and WithUpdates, fed the same update stream from
// the same trained seed, must predict identically — not approximately,
// exactly — across a chain of update batches.
func TestShardedParityProperty(t *testing.T) {
	mod, d := trainSmall(t)
	applied, mono := mod, mod
	rng := rand.New(rand.NewSource(1234))
	users, items := d.Matrix.NumUsers(), d.Matrix.NumItems()
	for round := 0; round < 6; round++ {
		ups := randomUpdates(rng, users, items, rng.Intn(6)+1)
		var err error
		mono, err = mono.WithUpdates(ups)
		if err != nil {
			t.Fatal(err)
		}
		applied, err = applied.Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		users, items = mono.Matrix().NumUsers(), mono.Matrix().NumItems()
		requireSamePredictions(t, gridPredictions(mono), gridPredictions(applied), "round")
		if !applied.Stats().Incremental {
			t.Fatal("Apply should report incremental stats")
		}
	}
}

// TestShardedApplySingleClusterBatch: a batch confined to one shard, and
// one spanning two, each match the from-scratch result.
func TestShardedApplySingleClusterBatch(t *testing.T) {
	mod, _ := trainSmall(t)
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
	requireApplyMatchesWithUpdates(t, mod, ups, "single-cluster batch")

	other := -1
	for c := 1; c < mod.Clusters().K; c++ {
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
	requireApplyMatchesWithUpdates(t, mod, two, "two-shard batch")
}

func requireApplyMatchesWithUpdates(t *testing.T, mod *Model, ups []RatingUpdate, ctx string) {
	t.Helper()
	got, err := mod.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePredictions(t, gridPredictions(want), gridPredictions(got), ctx)
}

// untimedSmall is trainSmall's model over the same ratings without their
// timestamps.
func untimedSmall(t *testing.T) *Model {
	t.Helper()
	timed := synth.MustGenerate(smallSynth()).Matrix
	b := ratings.NewBuilder(timed.NumUsers(), timed.NumItems()).SetScale(timed.MinRating(), timed.MaxRating())
	for u := 0; u < timed.NumUsers(); u++ {
		for _, e := range timed.UserRatings(u) {
			b.MustAdd(u, int(e.Index), e.Value)
		}
	}
	mod, err := Train(b.Build(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if mod.Matrix().HasTimes() {
		t.Fatal("fixture is timed; the transition is not exercised")
	}
	return mod
}

// TestApplyIsTotal: the first timed rating into an untimed model — the
// one batch that used to be handed to the from-scratch WithUpdates pass —
// goes through Apply like any other and still yields WithUpdates' model
// (same predictions, same saved bytes).
func TestApplyIsTotal(t *testing.T) {
	mod := untimedSmall(t)
	ups := []RatingUpdate{
		{User: 1, Item: 2, Value: 4, Time: 1700000100},
		{User: 3, Item: 5, Value: 2},
	}
	want, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mod.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Matrix().HasTimes() {
		t.Fatal("timed update left the matrix untimed")
	}
	requireSamePredictions(t, gridPredictions(want), gridPredictions(got), "times transition")
	var wantBytes, gotBytes bytes.Buffer
	if err := want.Save(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBytes.Bytes(), gotBytes.Bytes()) {
		t.Fatal("Save bytes differ from WithUpdates' model")
	}
	if st := got.Stats(); !st.Incremental || st.UpdatesApplied != len(ups) {
		t.Fatalf("stats = %+v, want an incremental apply of %d", st, len(ups))
	}
	// WithUpdates re-sorts every row into a fresh backing array; only the
	// shard-local path shares an untouched user's row with its predecessor.
	if a, b := mod.Matrix().UserRatings(0), got.Matrix().UserRatings(0); &a[0] != &b[0] {
		t.Fatal("untouched user's row was rebuilt: the batch went through the from-scratch pass")
	}
}

// TestApplySharesWhatItDoesNotChange: a single-rating Apply leaves every
// cluster the rating's user neither sat in nor joined with the parent's
// own centroid rows and member list, and every item outside the user's
// row with the parent's own fill-memo column; and the GIS entry count it
// carries forward from its edits is the one a count of every list gives,
// along a chain that adds a user and an item.
func TestApplySharesWhatItDoesNotChange(t *testing.T) {
	mod, d := trainSmall(t)
	rng := rand.New(rand.NewSource(57))
	users, items := d.Matrix.NumUsers(), d.Matrix.NumItems()
	for step := 0; step < 40; step++ {
		up := randomUpdates(rng, users-1, items-1, 1)
		switch step {
		case 10:
			up[0].User = mod.Matrix().NumUsers()
		case 20:
			up[0].Item = mod.Matrix().NumItems()
		}
		next, err := mod.Apply(up)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := next.Stats().GISNeighbors, next.GIS().TotalNeighbors(); got != want {
			t.Fatalf("step %d: stats count %d GIS entries, the lists hold %d", step, got, want)
		}
		u := up[0].User
		before, after := mod.Clusters(), next.Clusters()
		for c := 0; c < after.K; c++ {
			if (u < len(before.Assign) && before.Assign[u] == c) || after.Assign[u] == c {
				continue
			}
			if len(before.Mean[c]) != len(after.Mean[c]) {
				continue // the catalogue grew: the row is padded
			}
			if &before.Mean[c][0] != &after.Mean[c][0] || &before.Count[c][0] != &after.Count[c][0] {
				t.Fatalf("step %d: cluster %d's centroid row was copied", step, c)
			}
			if len(before.Members[c]) > 0 && &before.Members[c][0] != &after.Members[c][0] {
				t.Fatalf("step %d: cluster %d's member list was copied", step, c)
			}
		}
		rated := map[int]bool{}
		for _, e := range next.Matrix().UserRatings(u) {
			rated[int(e.Index)] = true
		}
		was, now := mod.Smoother().Memo(), next.Smoother().Memo()
		for i := range was {
			if !rated[i] && &was[i][0] != &now[i][0] {
				t.Fatalf("step %d: memo column %d, outside user %d's row, was copied", step, i, u)
			}
		}
		mod = next
	}
}

// TestTrainIsAFunctionOfMatrixAndConfig is the property a journaled
// retrain leans on: whoever holds the ratings folded up to a watermark —
// the live leader after a chain of incremental applies, a boot that
// loaded them from a snapshot file, a follower — gets the same model out of Train,
// to the byte of its persisted form, so a retrain record needs to carry
// nothing but the watermark. Re-running Train on its own result changes
// nothing (the re-fold of a record a snapshot already holds), the copies
// stay equal under a further apply, and the worker count is not an input.
func TestTrainIsAFunctionOfMatrixAndConfig(t *testing.T) {
	mod, d := trainSmall(t)
	live := mod
	rng := rand.New(rand.NewSource(99))
	users, items := d.Matrix.NumUsers(), d.Matrix.NumItems()
	for i := 0; i < 200; i++ {
		up := randomUpdates(rng, users-1, items-1, 1)
		switch i {
		case 50:
			up[0].User = users // a brand-new user
		case 120:
			up[0].Item = items // a brand-new item
		}
		var err error
		if live, err = live.Apply(up); err != nil {
			t.Fatal(err)
		}
	}
	if m := live.Matrix(); m.NumUsers() != users+1 || m.NumItems() != items+1 {
		t.Fatalf("fixture grew to %d×%d, want %d×%d", m.NumUsers(), m.NumItems(), users+1, items+1)
	}
	fingerprint := func(mod *Model) string {
		var buf bytes.Buffer
		if err := mod.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	train := func(from *Model) *Model {
		next, err := Train(from.Matrix(), from.Config())
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	fromLive := train(live)
	want := fingerprint(fromLive)
	loaded, err := Load(strings.NewReader(fingerprint(live)))
	if err != nil {
		t.Fatal(err)
	}
	fromLoaded := train(loaded)
	if fingerprint(fromLoaded) != want {
		t.Fatal("Train of the loaded copy differs from Train of the live model")
	}
	if fingerprint(train(fromLive)) != want {
		t.Fatal("Train of a trained model's own matrix is not a fixed point")
	}
	next := []RatingUpdate{{User: 3, Item: 4, Value: 2.5}}
	a, err := fromLive.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fromLoaded.Apply(next)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("the two retrained copies diverge under one further apply")
	}

	var byWorkers [2]*Model
	for k, workers := range []int{1, 4} {
		cfg := live.Config()
		cfg.Workers = workers
		if byWorkers[k], err = Train(live.Matrix(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	for u, c := range byWorkers[0].Clusters().Assign {
		if byWorkers[1].Clusters().Assign[u] != c {
			t.Fatalf("user %d: cluster %d with 1 worker, %d with 4", u, c, byWorkers[1].Clusters().Assign[u])
		}
	}
	requireSamePredictions(t, gridPredictions(byWorkers[0]), gridPredictions(byWorkers[1]), "workers 1 vs 4")
}

// TestShardOfRouting covers the ShardedModel shim bench/ compiles
// against: it delegates to the model, and routes assigned users to their
// cluster and any other id modulo C.
func TestShardOfRouting(t *testing.T) {
	mod, d := trainSmall(t)
	sharded := NewSharded(mod)
	if sharded.Model() != mod {
		t.Fatal("the shim does not serve the model it wraps")
	}
	for u := 0; u < d.Matrix.NumUsers(); u++ {
		if got, want := sharded.ShardOf(u), mod.Clusters().Assign[u]; got != want {
			t.Fatalf("user %d routed to %d, assigned %d", u, got, want)
		}
	}
	newUser := d.Matrix.NumUsers() + 3
	if got := sharded.ShardOf(newUser); got != newUser%mod.Clusters().K {
		t.Fatalf("new user routed to %d", got)
	}
	ups := []RatingUpdate{{User: 3, Item: 4, Value: 2.5}}
	next, err := sharded.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mod.Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	requireSamePredictions(t, gridPredictions(want), gridPredictions(next.Model()), "shim apply")
	if _, err := sharded.Apply([]RatingUpdate{{User: -1, Item: 0, Value: 3}}); err == nil {
		t.Fatal("the shim accepted what Apply refuses")
	}
}

func TestShardedApplyRejectsNegativeIDs(t *testing.T) {
	mod, _ := trainSmall(t)
	if _, err := mod.Apply([]RatingUpdate{{User: -1, Item: 0, Value: 3}}); err == nil {
		t.Fatal("negative user must error")
	}
	if _, err := mod.Apply([]RatingUpdate{{User: 0, Item: -2, Value: 3}}); err == nil {
		t.Fatal("negative item must error")
	}
}
