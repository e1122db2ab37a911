package similarity

import (
	"bytes"
	"encoding/gob"
	"testing"

	"cfsf/internal/mathx"
)

// TestSnapshotRoundTrip: a GIS survives Snapshot → gob → FromSnapshot
// entry for entry, items without neighbours included, and so does the
// per-item layout version-1 blobs carry.
func TestSnapshotRoundTrip(t *testing.T) {
	opts := GISOptions{Metric: PCC, TopN: 7, MinCoRatings: 2}
	g := BuildGIS(denseRandom(t, 40, 30, 0.3, 5), opts)
	g.neighbors[3], g.neighbors[29] = nil, nil // lists can be empty, the last one too
	if g.TotalNeighbors() == 0 {
		t.Fatal("fixture GIS is empty")
	}

	snap := g.Snapshot()
	if snap.Neighbors != nil {
		t.Fatal("Snapshot filled the decode-only Neighbors field")
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	got, err := FromSnapshot(back)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, got, "flat layout")
	if got.Options() != opts {
		t.Fatalf("options = %+v, want %+v", got.Options(), opts)
	}

	// The lists share one slab but must not be able to grow into each other.
	for i := 0; i < got.NumItems(); i++ {
		if l := got.Neighbors(i); cap(l) != len(l) {
			t.Fatalf("item %d list has cap %d beyond its len %d", i, cap(l), len(l))
		}
	}

	v1, err := FromSnapshot(Snapshot{Neighbors: g.neighbors, Opts: opts})
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, v1, "per-item layout")
}

// snapshotRefusals are the malformed snapshots FromSnapshot must answer
// with an error and never a panic.
var snapshotRefusals = []struct {
	name string
	snap Snapshot
}{
	{"negative length", Snapshot{Lens: []int32{2, -1}, Index: []int32{1}, Score: []float64{.5}}},
	{"negative lengths that sum to the entries", Snapshot{Lens: []int32{3, -1}, Index: []int32{1, 2}, Score: []float64{.5, .4}}},
	{"Index shorter than the lengths", Snapshot{Lens: []int32{1, 2}, Index: []int32{1, 0}, Score: []float64{.5, .4, .3}}},
	{"Index longer than the lengths", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 0, 1}, Score: []float64{.5, .4}}},
	{"Score shorter than the lengths", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 0}, Score: []float64{.5}}},
	{"Score longer than the lengths", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 0}, Score: []float64{.5, .4, .3}}},
	{"entries without lengths", Snapshot{Index: []int32{1}, Score: []float64{.5}}},
	{"both layouts", Snapshot{Lens: []int32{1}, Index: []int32{0}, Score: []float64{.5},
		Neighbors: [][]mathx.Scored{{{Index: 0, Score: .5}}}}},
	{"per-item layout plus stray scores", Snapshot{Score: []float64{.5}, Neighbors: [][]mathx.Scored{{{Index: 0, Score: .5}}}}},
}

func TestFromSnapshotRefusesMalformed(t *testing.T) {
	for _, tc := range snapshotRefusals {
		t.Run(tc.name, func(t *testing.T) {
			if g, err := FromSnapshot(tc.snap); err == nil {
				t.Fatalf("accepted, giving a GIS of %d items and %d entries", g.NumItems(), g.TotalNeighbors())
			}
		})
	}
	if g, err := FromSnapshot(Snapshot{}); err != nil || g.NumItems() != 0 {
		t.Fatalf("the empty snapshot: GIS %v, err %v; want an empty GIS", g, err)
	}
}

// FuzzFromSnapshot: whatever the three flat slices hold, FromSnapshot
// either refuses or returns a GIS whose lists are exactly the lengths
// asked for. Lengths come in as signed bytes so negatives are common.
func FuzzFromSnapshot(f *testing.F) {
	for _, tc := range snapshotRefusals {
		lens := make([]byte, len(tc.snap.Lens))
		for i, n := range tc.snap.Lens {
			lens[i] = byte(int8(n))
		}
		f.Add(lens, len(tc.snap.Index), len(tc.snap.Score), len(tc.snap.Neighbors) > 0)
	}
	f.Add([]byte{2, 0, 1}, 3, 3, false)
	f.Fuzz(func(t *testing.T, lens []byte, nIndex, nScore int, both bool) {
		if nIndex < 0 || nIndex > 1<<12 || nScore < 0 || nScore > 1<<12 {
			return
		}
		s := Snapshot{Index: make([]int32, nIndex), Score: make([]float64, nScore)}
		for _, n := range lens {
			s.Lens = append(s.Lens, int32(int8(n)))
		}
		if both {
			s.Neighbors = [][]mathx.Scored{{{Index: 0, Score: .5}}}
		}
		g, err := FromSnapshot(s)
		if err != nil {
			return
		}
		if both {
			if len(lens)+nIndex+nScore > 0 {
				t.Fatal("accepted a snapshot carrying both layouts")
			}
			return
		}
		if g.NumItems() != len(s.Lens) || g.TotalNeighbors() != nIndex {
			t.Fatalf("accepted %d lengths over %d/%d entries as %d items with %d entries", len(s.Lens), nIndex, nScore, g.NumItems(), g.TotalNeighbors())
		}
		for i, n := range s.Lens {
			if len(g.Neighbors(i)) != int(n) {
				t.Fatalf("item %d has %d neighbours, snapshot says %d", i, len(g.Neighbors(i)), n)
			}
		}
	})
}
