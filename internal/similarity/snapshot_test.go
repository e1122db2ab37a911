package similarity

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"cfsf/internal/mathx"
)

// TestSnapshotRoundTrip: a GIS survives Snapshot → gob → FromSnapshot
// entry for entry, items without neighbours included, both with its
// weights derived from the matrix (the Rice-coded id sets alone, under a
// byte an entry: every gap is below 128 in a 30-item GIS) and with them
// carried (+8 bytes an entry), its list order derived either way.
func TestSnapshotRoundTrip(t *testing.T) {
	opts := GISOptions{Metric: PCC, TopN: 7, MinCoRatings: 2}
	m := denseRandom(t, 40, 30, 0.3, 5)
	g := BuildGIS(m, opts)
	g.neighbors[3], g.neighbors[29] = nil, nil // lists can be empty, the last one too
	if g.TotalNeighbors() == 0 {
		t.Fatal("fixture GIS is empty")
	}

	for _, weighted := range []bool{false, true} {
		ctx := fmt.Sprintf("set layout, weights carried=%v", weighted)
		snap := g.Snapshot(weighted)
		n, scoreBytes := g.TotalNeighbors(), 0
		if weighted {
			scoreBytes = 8 * g.TotalNeighbors()
		}
		if len(snap.SetCode.Bits) == 0 || len(snap.SetCode.Bits) >= n || len(snap.Scores) != scoreBytes {
			t.Fatalf("%s: %d entries take %d set bytes and %d score bytes, want 1 to %d and %d", ctx, n, len(snap.SetCode.Bits), len(snap.Scores), n-1, scoreBytes)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		got, err := FromSnapshot(back, m)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		requireSameGIS(t, g, got, ctx)
		if got.Options() != opts {
			t.Fatalf("%s: options = %+v, want %+v", ctx, got.Options(), opts)
		}
		if n, err := back.Check(); err != nil || n != g.NumItems() {
			t.Fatalf("%s: Check = %d, %v; want %d items", ctx, n, err, g.NumItems())
		}

		// The lists share one slab but must not be able to grow into each other.
		for i := 0; i < got.NumItems(); i++ {
			if l := got.Neighbors(i); cap(l) != len(l) {
				t.Fatalf("%s: item %d list has cap %d beyond its len %d", ctx, i, cap(l), len(l))
			}
		}
	}
	if _, err := FromSnapshot(g.Snapshot(false), nil); err == nil {
		t.Fatal("ids without weights and without a matrix to derive them from were accepted")
	}
	if _, err := FromSnapshot(g.Snapshot(true), nil); err != nil {
		t.Fatalf("carried weights need no matrix: %v", err)
	}

}

// TestSnapshotWideIDs: a GIS over more than 65 536 items codes gaps of
// 65 536 and more and they come back whole, and an id past the catalogue
// there is refused naming the item and the entry.
func TestSnapshotWideIDs(t *testing.T) {
	const q = 1<<16 + 3
	g := &GIS{neighbors: make([][]mathx.Scored, q)}
	g.neighbors[0] = []mathx.Scored{{Index: q - 1, Score: .75}, {Index: 1 << 16, Score: .5}}
	g.neighbors[q-1] = []mathx.Scored{{Index: 0, Score: .25}}
	snap := g.Snapshot(true)
	got, err := FromSnapshot(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, got, "wide set")
	snap.SetCode = riceSet(1<<16, 1<<20, 0)
	if _, err := FromSnapshot(snap, nil); err == nil || !strings.Contains(err.Error(), "item 0 entry 1:") {
		t.Fatalf("id 1<<20 of %d items: err = %v, want a refusal naming item 0 entry 1", q, err)
	}
}

// riceSet Rice-codes the gaps given, as Snapshot codes a GIS's.
func riceSet(gaps ...uint64) mathx.RiceCode { return mathx.EncodeRice(gaps) }

// rawScores encodes a Snapshot's weights by hand.
func rawScores(scores ...float64) []byte {
	var out []byte
	for _, s := range scores {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
	}
	return out
}

// unbounded gives s a zero horizon for each of its items: lists that hold
// every candidate.
func unbounded(s Snapshot) Snapshot {
	s.TauIDs = mathx.EncodeRice(make([]uint64, len(s.Lens)))
	s.TauScores = make([]byte, 8*len(s.Lens))
	return s
}

// snapshotRefusals are the malformed snapshots FromSnapshot must answer
// with an error and never a panic.
var snapshotRefusals = []struct {
	name string
	snap Snapshot
}{
	{"negative length", Snapshot{Lens: []int32{2, -1}, SetCode: riceSet(1), Scores: rawScores(.5)}},
	{"negative lengths that sum to the entries", Snapshot{Lens: []int32{3, -1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4)}},
	{"entries without lengths", Snapshot{SetCode: riceSet(0), Scores: rawScores(.5)}},
	{"Scores one byte long", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: append(rawScores(.5, .4), 0)}},
	{"Scores without IDs", Snapshot{Lens: []int32{1, 0}, Scores: rawScores(.5)}},
	{"set shorter than the lengths", Snapshot{Lens: []int32{2, 9}, SetCode: riceSet(0, 0), Scores: rawScores(.5, .4, .3)}},
	{"set scores one entry short", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5)}},
	{"set code past its bytes", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{K: 7, Bits: []byte{0x01}}, Scores: rawScores(.5)}},
	{"set code id past the catalogue", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(2, 0), Scores: rawScores(.5, .4)}},
	{"set code id past the catalogue after a gap", Snapshot{Lens: []int32{2, 0}, SetCode: riceSet(0, 1), Scores: rawScores(.5, .4)}},
	{"set code bytes left over", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{Bits: []byte{0x02, 0}}, Scores: rawScores(.5)}},
	{"set code pad bits", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{Bits: []byte{0x12}}, Scores: rawScores(.5)}},
	{"set code k past 63", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{K: 64, Bits: make([]byte, 9)}, Scores: rawScores(.5)}},
	{"set code ids without weights or a matrix", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0)}},
	{"no horizons", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4)}},
	{"horizon weights one item short", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: riceSet(0, 0), TauScores: rawScores(0)}},
	{"horizon code past its bytes", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: mathx.RiceCode{K: 7, Bits: []byte{0x01}}, TauScores: rawScores(0, 0)}},
	{"horizon id past the catalogue", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: riceSet(0, 2), TauScores: rawScores(0, .1)}},
	{"horizon weight NaN", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: riceSet(0, 0), TauScores: rawScores(math.NaN(), 0)}},
	{"horizon weight negative", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: riceSet(0, 0), TauScores: rawScores(-.1, 0)}},
	{"horizon weight +Inf", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: riceSet(0, 0), TauScores: rawScores(math.Inf(1), 0)}},
	{"entry at its horizon", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: riceSet(1, 0), TauScores: rawScores(.5, 0)}},
	{"entry past its horizon", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: riceSet(0, 1), TauScores: rawScores(0, .6)}},
	{"horizon code bytes left over", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Scores: rawScores(.5, .4), TauIDs: mathx.RiceCode{Bits: []byte{0, 0}}, TauScores: rawScores(0, 0)}},
}

// TestFromSnapshotNamesTheSetFault: each refusal of a malformed set names
// the item and the entry it found the fault at, or, for what is left after
// the last entry, the last item.
func TestFromSnapshotNamesTheSetFault(t *testing.T) {
	if _, err := FromSnapshot(soundSet, nil); err != nil {
		t.Fatalf("the sound snapshot: %v", err)
	}
	for _, tc := range setFaults {
		t.Run("Rice-coded: "+tc.name, func(t *testing.T) {
			snap := soundSet
			snap.SetCode = tc.code
			if _, err := FromSnapshot(snap, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// soundSet is a sound snapshot of three items, and setFaults the set
// codes that break it, each with the fault its refusal names.
var (
	soundSet  = unbounded(Snapshot{Lens: []int32{0, 2, 1}, SetCode: riceSet(0, 0, 0), Scores: rawScores(.5, .4, .3)})
	setFaults = []struct {
		name, want string
		code       mathx.RiceCode
	}{
		{"a code running past the bytes", "item 1 entry 1: the code at bit 1 runs past the 1 bytes", mathx.RiceCode{Bits: []byte{0xfe}}},
		{"an id past the catalogue", "item 1 entry 1: the id after neighbour 0 passes the 3 items", riceSet(0, 2, 0)},
		{"a first id past the catalogue", "item 2 entry 0: the id after neighbour -1 passes the 3 items", riceSet(0, 0, 3)},
		{"bytes left over", "after the list of item 2, its last: 1 bytes left over", mathx.RiceCode{Bits: []byte{0, 0}}},
		{"nonzero pad bits", "after the list of item 2, its last: nonzero pad bits", mathx.RiceCode{Bits: []byte{0x08}}},
		{"k past 63", "set code: Rice parameter k = 64, past 63", mathx.RiceCode{K: 64, Bits: make([]byte, 64)}},
	}
)

func TestFromSnapshotRefusesMalformed(t *testing.T) {
	for _, tc := range snapshotRefusals {
		t.Run(tc.name, func(t *testing.T) {
			if g, err := FromSnapshot(tc.snap, nil); err == nil {
				t.Fatalf("accepted, giving a GIS of %d items and %d entries", g.NumItems(), g.TotalNeighbors())
			}
		})
	}
	if g, err := FromSnapshot(Snapshot{}, nil); err != nil || g.NumItems() != 0 {
		t.Fatalf("the empty snapshot: GIS %v, err %v; want an empty GIS", g, err)
	}
}

// TestFromSnapshotNamesTheStrayNeighbour: the refusal of an id outside
// the catalogue says which item and which entry hold it, and the gap that
// reached it — the shape of the blob that, accepted, panicked the first
// Recommend.
func TestFromSnapshotNamesTheStrayNeighbour(t *testing.T) {
	// Item 1 holds {0, 2}, item 2 holds {1}.
	snap := unbounded(Snapshot{Lens: []int32{0, 2, 1}, SetCode: riceSet(0, 1, 1), Scores: rawScores(.5, .4, .3)})
	if _, err := FromSnapshot(snap, nil); err != nil {
		t.Fatalf("the sound snapshot: %v", err)
	}
	snap.SetCode = riceSet(0, 1<<15-1, 1) // item 1's second id 32768
	_, err := FromSnapshot(snap, nil)
	if err == nil || !strings.Contains(err.Error(), "item 1 entry 1:") || !strings.Contains(err.Error(), "gap 32767") {
		t.Fatalf("err = %v, want one naming item 1 entry 1 and gap 32767", err)
	}
}

// FuzzFromSnapshot: whatever the lengths, weights, horizons and Rice
// codes hold, FromSnapshot either refuses or returns a GIS whose lists are
// exactly the lengths asked for, every id within the catalogue, none twice
// in a list and every one preceding a set horizon. Without a matrix to derive weights from, a snapshot carrying none
// is refused. Lengths come in as signed bytes so negatives are common;
// weights as raw bytes. The corpus is every refusal above, the sound
// snapshot TestFromSnapshotNamesTheSetFault breaks and each way it breaks
// it, the empty snapshot, and the snapshots of a few GISs, with their
// weights and without.
func FuzzFromSnapshot(f *testing.F) {
	add := func(s Snapshot) {
		lens := make([]byte, len(s.Lens))
		for i, n := range s.Lens {
			lens[i] = byte(int8(n))
		}
		f.Add(lens, s.Scores, s.SetCode.K, s.SetCode.Bits, s.TauIDs.K, s.TauIDs.Bits, s.TauScores)
	}
	for _, tc := range snapshotRefusals {
		add(tc.snap)
	}
	add(soundSet)
	for _, tc := range setFaults {
		snap := soundSet
		snap.SetCode = tc.code
		add(snap)
	}
	add(Snapshot{})
	for seed := int64(1); seed <= 14; seed++ {
		g := BuildGIS(denseRandom(f, 12, 10, 0.5, seed), GISOptions{Metric: PCC, TopN: int(seed), MinCoRatings: 2})
		add(g.Snapshot(true))
		add(g.Snapshot(false))
	}
	f.Fuzz(func(t *testing.T, lens, scores []byte, k uint8, code []byte, tauK uint8, tauIDs, tauScores []byte) {
		s := Snapshot{Scores: scores, SetCode: mathx.RiceCode{K: k, Bits: code}, TauIDs: mathx.RiceCode{K: tauK, Bits: tauIDs}, TauScores: tauScores}
		for _, n := range lens {
			s.Lens = append(s.Lens, int32(int8(n)))
		}
		g, err := FromSnapshot(s, nil)
		if err != nil {
			return
		}
		total := 0
		for i, n := range s.Lens {
			if len(g.Neighbors(i)) != int(n) {
				t.Fatalf("item %d has %d neighbours, snapshot says %d", i, len(g.Neighbors(i)), n)
			}
			total += int(n)
		}
		if g.NumItems() != len(s.Lens) || g.TotalNeighbors() != total {
			t.Fatalf("accepted %d lengths summing to %d as %d items with %d entries", len(s.Lens), total, g.NumItems(), g.TotalNeighbors())
		}
		if total > 0 && len(scores) != 8*total {
			t.Fatalf("accepted %d score bytes for %d entries without a matrix", len(scores), total)
		}
		for i := 0; i < g.NumItems(); i++ {
			if tau := g.Horizon(i); tau != (mathx.Scored{}) && !(tau.Score > 0) {
				t.Fatalf("item %d has horizon %v", i, tau)
			}
			for k, n := range g.Neighbors(i) {
				if tau := g.Horizon(i); tau != (mathx.Scored{}) && !mathx.Precedes(n, tau) {
					t.Fatalf("item %d entry %d does not precede its horizon %v", i, k, tau)
				}
				if n.Index < 0 || int(n.Index) >= g.NumItems() {
					t.Fatalf("item %d entry %d names neighbour %d of %d items", i, k, n.Index, g.NumItems())
				}
				if slices.ContainsFunc(g.Neighbors(i)[:k], func(e mathx.Scored) bool { return e.Index == n.Index }) {
					t.Fatalf("item %d entry %d repeats neighbour %d", i, k, n.Index)
				}
			}
		}
	})
}
