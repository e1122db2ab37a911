package core

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"cfsf/internal/ratings"
)

// saveParts serialises mod as one shared blob plus one blob per shard.
func saveParts(t *testing.T, mod *Model) (shared []byte, shards [][]byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := mod.SaveSharedBlob(&buf); err != nil {
		t.Fatal(err)
	}
	shared = append([]byte(nil), buf.Bytes()...)
	for c := 0; c < mod.Clusters().K; c++ {
		buf.Reset()
		if err := mod.SaveShardBlob(&buf, c); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, append([]byte(nil), buf.Bytes()...))
	}
	return shared, shards
}

// assembleFromParts loads the blobs back and rebuilds the model the way
// the lifecycle boot path does.
func assembleFromParts(t *testing.T, shared []byte, shards [][]byte) *Model {
	t.Helper()
	sp, err := LoadSharedPart(bytes.NewReader(shared))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]ratings.Entry, sp.NumUsers)
	var times [][]int64
	if sp.HasTimes {
		times = make([][]int64, sp.NumUsers)
	}
	for _, blob := range shards {
		part, err := LoadShardPart(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		for j, u := range part.Users {
			rows[u] = part.Rows[j]
			if sp.HasTimes {
				times[u] = part.Times[j]
			}
		}
	}
	mod, err := AssembleModel(sp, rows, times)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func TestShardBlobRoundTripPredictsIdentically(t *testing.T) {
	mod, _ := trainSmall(t)
	loaded := func() *Model { sh, ss := saveParts(t, mod); return assembleFromParts(t, sh, ss) }()
	for u := 0; u < mod.Matrix().NumUsers(); u++ {
		for i := 0; i < 25; i++ {
			if a, b := mod.Predict(u, i), loaded.Predict(u, i); a != b {
				t.Fatalf("Predict(%d,%d): %g != %g after part reassembly", u, i, a, b)
			}
		}
	}
	if loaded.Matrix().NumRatings() != mod.Matrix().NumRatings() {
		t.Error("matrix did not round-trip")
	}
	if loaded.Matrix().HasTimes() != mod.Matrix().HasTimes() {
		t.Error("timestamp presence did not round-trip")
	}
}

func TestShardBlobRoundTripWithTimestamps(t *testing.T) {
	mod, _ := trainSmall(t)
	// Fold in timed updates so the matrix carries timestamps.
	ups := []RatingUpdate{
		{User: 1, Item: 2, Value: 4, Time: 1700000100},
		{User: 3, Item: 5, Value: 2, Time: 1700000200},
	}
	next, err := mod.WithUpdates(ups)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Matrix().HasTimes() {
		t.Fatal("expected timed matrix")
	}
	loaded := func() *Model { sh, ss := saveParts(t, next); return assembleFromParts(t, sh, ss) }()
	if !loaded.Matrix().HasTimes() {
		t.Fatal("timestamps lost in part round-trip")
	}
	for _, up := range ups {
		ts, ok := loaded.Matrix().RatingTime(up.User, up.Item)
		if !ok || ts != up.Time {
			t.Fatalf("RatingTime(%d,%d) = %d,%v want %d", up.User, up.Item, ts, ok, up.Time)
		}
	}
	for u := 0; u < next.Matrix().NumUsers(); u++ {
		for i := 0; i < 25; i++ {
			if a, b := next.Predict(u, i), loaded.Predict(u, i); a != b {
				t.Fatalf("Predict(%d,%d): %g != %g after timed part reassembly", u, i, a, b)
			}
		}
	}
}

func TestShardBlobDetectsCorruption(t *testing.T) {
	mod, _ := trainSmall(t)
	shared, shards := saveParts(t, mod)

	flip := func(b []byte, at int) []byte {
		out := append([]byte(nil), b...)
		out[at] ^= 0x40
		return out
	}
	if _, err := LoadSharedPart(bytes.NewReader(flip(shared, len(shared)/2))); err == nil {
		t.Error("corrupt shared payload accepted")
	}
	if _, err := LoadShardPart(bytes.NewReader(flip(shards[0], len(shards[0])/2))); err == nil {
		t.Error("corrupt shard payload accepted")
	}
	if _, err := LoadShardPart(bytes.NewReader(flip(shards[0], 3))); err == nil {
		t.Error("corrupt magic accepted")
	}
	// Truncation.
	if _, err := LoadShardPart(bytes.NewReader(shards[0][:len(shards[0])-5])); err == nil {
		t.Error("truncated shard blob accepted")
	}
	// Kind confusion: a shard blob is not a shared blob.
	if _, err := LoadSharedPart(bytes.NewReader(shards[0])); err == nil {
		t.Error("shard blob accepted as shared blob")
	}
}

// staleShards is ChangedShards' oracle: the shards whose blob, written
// from prev and decoded, differs from next's in members, rows or
// timestamps (NumUsersAtWrite records when a blob was written, not what
// it holds).
func staleShards(t *testing.T, prev, next *Model) []int {
	t.Helper()
	_, was := saveParts(t, prev)
	_, now := saveParts(t, next)
	var out []int
	for c := range now {
		a, err := LoadShardPart(bytes.NewReader(was[c]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := LoadShardPart(bytes.NewReader(now[c]))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual([]any{a.Users, a.Rows, a.Times}, []any{b.Users, b.Rows, b.Times}) {
			out = append(out, c)
		}
	}
	return out
}

// TestChangedShards holds ChangedShards to the blobs themselves on every
// kind of transition a batch makes: it must name exactly the shards whose
// persisted form went stale — none missed (a snapshot would re-reference
// a blob that no longer assembles), none extra.
func TestChangedShards(t *testing.T) {
	mod, _ := trainSmall(t)
	n := mod.Matrix().NumUsers()
	row := mod.Matrix().UserRatings(7)
	rate := func(user int, items []int, v float64) []RatingUpdate {
		var ups []RatingUpdate
		for _, i := range items {
			ups = append(ups, RatingUpdate{User: user, Item: i, Value: v})
		}
		return ups
	}
	// A user whom one batch moves to another cluster.
	var move []RatingUpdate
	for u := 0; u < n && move == nil; u++ {
		for _, v := range []float64{1, 5} {
			ups := rate(u, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, v)
			if next, err := mod.Apply(ups); err == nil && next.Clusters().Assign[u] != mod.Clusters().Assign[u] {
				move = ups
				break
			}
		}
	}
	if move == nil {
		t.Fatal("no user of the fixture changes cluster under a 10-rating batch")
	}
	// User n+1 rates, user n never does.
	skipped := rate(0, []int{0}, 4)
	for k, v := range []float64{5, 4, 3, 2, 1, 5} {
		skipped = append(skipped, RatingUpdate{User: n + 1, Item: 7 + 5*k, Value: v})
	}

	for _, tc := range []struct {
		name string
		from *Model
		ups  []RatingUpdate
		// chain applies the updates one at a time and drops refused ones,
		// as the lifecycle fallback does.
		chain bool
	}{
		{"re-rate", mod, []RatingUpdate{{User: 7, Item: int(row[0].Index), Value: 6 - row[0].Value}}, false},
		{"user moves cluster", mod, move, false},
		{"new user", mod, rate(n, []int{3, 9, 27}, 4), false},
		{"skipped id", mod, skipped, false},
		{"times flip", untimedSmall(t), []RatingUpdate{{User: 3, Item: 5, Value: 2, Time: 1700000000}}, false},
		{"fallback chain with one dropped update", mod,
			[]RatingUpdate{{User: 7, Item: 1, Value: 2}, {User: -1, Item: 0, Value: 3}, {User: n, Item: 4, Value: 5}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			next := tc.from
			if tc.chain {
				for _, up := range tc.ups {
					if step, err := next.Apply([]RatingUpdate{up}); err == nil {
						next = step
					}
				}
			} else {
				var err error
				if next, err = next.Apply(tc.ups); err != nil {
					t.Fatal(err)
				}
			}
			got, want := ChangedShards(tc.from, next, tc.ups), staleShards(t, tc.from, next)
			if len(want) == 0 {
				t.Fatal("the batch left every blob valid; the row exercises nothing")
			}
			if !slices.Equal(got, want) {
				t.Fatalf("ChangedShards = %v, stale blobs %v", got, want)
			}
		})
	}

	// The skipped id's shard is stale only because of the skipped id.
	next, err := mod.Apply(skipped)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []int{0, n + 1} {
		if c := next.Clusters().Assign[n]; c == next.Clusters().Assign[u] || u < n && c == mod.Clusters().Assign[u] {
			t.Fatalf("skipped user %d shares shard %d with user %d; the skipped-id row does not isolate it", n, c, u)
		}
	}
}
