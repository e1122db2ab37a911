package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cfsf/internal/synth"
)

func TestWithUpdatesBasic(t *testing.T) {
	mod, d := trainSmall(t)
	m := d.Matrix

	// Find a cell the user has not rated.
	u, item := 3, -1
	for i := 0; i < m.NumItems(); i++ {
		if _, ok := m.Rating(u, i); !ok {
			item = i
			break
		}
	}
	if item < 0 {
		t.Skip("user rated everything")
	}

	next, err := mod.WithUpdates([]RatingUpdate{{User: u, Item: item, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := next.Matrix().Rating(u, item); !ok || r != 5 {
		t.Fatalf("update not applied: %g,%v", r, ok)
	}
	// Original model unchanged.
	if _, ok := mod.Matrix().Rating(u, item); ok {
		t.Fatal("original model mutated")
	}
	// Predictions still sane.
	v := next.Predict(u, item)
	if math.IsNaN(v) || v < 1 || v > 5 {
		t.Fatalf("post-update Predict = %g", v)
	}
}

func TestWithUpdatesEmptyIsNoop(t *testing.T) {
	mod, _ := trainSmall(t)
	next, err := mod.WithUpdates(nil)
	if err != nil {
		t.Fatal(err)
	}
	if next != mod {
		t.Error("empty update must return the same model")
	}
}

func TestWithUpdatesRejectsNegativeIDs(t *testing.T) {
	mod, _ := trainSmall(t)
	if _, err := mod.WithUpdates([]RatingUpdate{{User: -1, Item: 0, Value: 3}}); err == nil {
		t.Error("negative user must error")
	}
	if _, err := mod.WithUpdates([]RatingUpdate{{User: 0, Item: -2, Value: 3}}); err == nil {
		t.Error("negative item must error")
	}
}

func TestWithUpdatesNewUser(t *testing.T) {
	mod, d := trainSmall(t)
	newUser := d.Matrix.NumUsers()
	ups := []RatingUpdate{
		{User: newUser, Item: 0, Value: 5},
		{User: newUser, Item: 1, Value: 4},
		{User: newUser, Item: 2, Value: 1},
	}
	next, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	if next.Matrix().NumUsers() != newUser+1 {
		t.Fatalf("users = %d, want %d", next.Matrix().NumUsers(), newUser+1)
	}
	// The new user must be assigned to a valid cluster and predictable.
	c := next.Clusters().Assign[newUser]
	if c < 0 || c >= next.Clusters().K {
		t.Fatalf("new user assigned invalid cluster %d", c)
	}
	v := next.Predict(newUser, 10)
	if math.IsNaN(v) || v < 1 || v > 5 {
		t.Fatalf("new-user Predict = %g", v)
	}
}

func TestWithUpdatesNewItem(t *testing.T) {
	mod, d := trainSmall(t)
	newItem := d.Matrix.NumItems()
	var ups []RatingUpdate
	for u := 0; u < 12; u++ {
		ups = append(ups, RatingUpdate{User: u, Item: newItem, Value: float64(1 + u%5)})
	}
	next, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	if next.Matrix().NumItems() != newItem+1 {
		t.Fatalf("items = %d, want %d", next.Matrix().NumItems(), newItem+1)
	}
	if next.GIS().NumItems() != newItem+1 {
		t.Fatalf("GIS covers %d items, want %d", next.GIS().NumItems(), newItem+1)
	}
	v := next.Predict(20, newItem)
	if math.IsNaN(v) || v < 1 || v > 5 {
		t.Fatalf("new-item Predict = %g", v)
	}
}

// TestWithUpdatesApproximatesRetrain: the incremental model's accuracy on
// a probe set must stay close to a full retrain after a modest batch of
// updates.
func TestWithUpdatesApproximatesRetrain(t *testing.T) {
	d := synth.MustGenerate(smallSynth())
	cfg := smallConfig()
	cfg.GIS.TopN = 0 // exact GIS refresh regime
	mod, err := Train(d.Matrix, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var ups []RatingUpdate
	for u := 0; u < 10; u++ {
		for i := 0; i < d.Matrix.NumItems() && len(ups) < 30; i++ {
			if _, ok := d.Matrix.Rating(u, i); !ok {
				ups = append(ups, RatingUpdate{User: u, Item: i, Value: float64(1 + (u+i)%5)})
				break
			}
		}
	}
	inc, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Train(inc.Matrix(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Compare predictions over a probe grid: mean absolute divergence
	// should be small (clustering may differ slightly: centroids are not
	// re-fitted incrementally).
	var sum float64
	n := 0
	for u := 0; u < 40; u++ {
		for i := 0; i < 20; i++ {
			sum += math.Abs(inc.Predict(u, i) - full.Predict(u, i))
			n++
		}
	}
	if avg := sum / float64(n); avg > 0.15 {
		t.Errorf("incremental vs retrain divergence %.4f > 0.15", avg)
	}
}

func TestWithUpdatesChainable(t *testing.T) {
	mod, d := trainSmall(t)
	cur := mod
	var err error
	for k := 0; k < 3; k++ {
		cur, err = cur.WithUpdates([]RatingUpdate{{User: k, Item: k + 50, Value: 4}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		if r, ok := cur.Matrix().Rating(k, k+50); !ok || r != 4 {
			t.Fatalf("chained update %d lost: %g,%v", k, r, ok)
		}
	}
	if cur.Matrix().NumRatings() < d.Matrix.NumRatings() {
		t.Error("ratings lost across chained updates")
	}
}

// TestWithUpdatesKeepsTimestamps: timestamps are data the matrix carries
// through a refresh — the old ones stay, a timed update's is stored.
func TestWithUpdatesKeepsTimestamps(t *testing.T) {
	mod, d := trainSmall(t)
	if !d.Matrix.HasTimes() {
		t.Fatal("fixture lost its timestamps")
	}
	u, i := 0, int(d.Matrix.UserRatings(0)[0].Index)
	old, _ := d.Matrix.RatingTime(u, i)
	const ts = 1 << 40
	next, err := mod.WithUpdates([]RatingUpdate{{User: 0, Item: 149, Value: 5, Time: ts}})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := next.Matrix().RatingTime(0, 149); !ok || got != ts {
		t.Errorf("new rating timestamp = %d,%v, want %d", got, ok, int64(ts))
	}
	if got, ok := next.Matrix().RatingTime(u, i); !ok || got != old {
		t.Errorf("old rating timestamp = %d,%v, want %d", got, ok, old)
	}
}

// TestUpdatesOffTheScaleAreRefused: Apply and WithUpdates refuse a value
// off the model's rating scale — above, below, between the scale and 0,
// NaN — naming the update, as the server's /rate does, so no matrix holds
// a value its model file could not store; a value on the scale's ends is
// taken.
func TestUpdatesOffTheScaleAreRefused(t *testing.T) {
	mod, _ := trainSmall(t)
	lo, hi := mod.Matrix().MinRating(), mod.Matrix().MaxRating()
	for name, apply := range map[string]func([]RatingUpdate) (*Model, error){"Apply": mod.Apply, "WithUpdates": mod.WithUpdates} {
		for _, v := range []float64{hi + 2, -3, lo - 0.5, math.NaN(), math.Inf(1)} {
			batch := []RatingUpdate{{User: 0, Item: 1, Value: 3}, {User: 2, Item: 3, Value: v}}
			if _, err := apply(batch); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("update 1 rates (2,3) %g, outside the scale", v)) {
				t.Errorf("%s of %g: err = %v, want a refusal naming update 1", name, v, err)
			}
		}
		if _, err := apply([]RatingUpdate{{User: 0, Item: 1, Value: lo}, {User: 2, Item: 3, Value: hi}}); err != nil {
			t.Errorf("%s of the scale's ends: %v", name, err)
		}
	}
}
