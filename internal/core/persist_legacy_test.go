package core

import (
	"bytes"
	"testing"

	"cfsf/internal/ratings"
)

// saveParts encodes mod as a manifest's blobs, one shared blob plus one
// per shard, the way builds up to 8cb6e8a wrote them.
func saveParts(t *testing.T, mod *Model) (shared []byte, shards [][]byte) {
	t.Helper()
	shared = frameOf(t, blobKindShared, sharedWireOf(mod)).Bytes()
	for c := 0; c < mod.Clusters().K; c++ {
		shards = append(shards, frameOf(t, blobKindShard, shardWireOf(mod, c)).Bytes())
	}
	return shared, shards
}

// shardWireOf is the payload a shard blob of mod held: the rows of the
// shard's members.
func shardWireOf(mod *Model, shard int) shardWire {
	wire := shardWire{Version: shardBlobVersion, Shard: shard, NumUsersAtWrite: mod.m.NumUsers()}
	for _, u := range mod.clusters.Members[shard] {
		row := mod.m.UserRatings(u)
		wire.Users = append(wire.Users, int32(u))
		wire.RowLens = append(wire.RowLens, int32(len(row)))
		for _, e := range row {
			wire.Items = append(wire.Items, e.Index)
			wire.Values = append(wire.Values, e.Value)
		}
		if mod.m.HasTimes() {
			wire.Times = append(wire.Times, mod.m.UserRatingTimes(u)...)
		}
	}
	return wire
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
