package similarity

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"strings"
	"testing"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// TestSnapshotRoundTrip: a GIS survives Snapshot → gob → FromSnapshot
// entry for entry and horizon for horizon, at 8 bytes and a few bits an
// item whatever its lists hold, both as BuildGIS left it, its lists cut
// at TopN, and after a chain of Refresh calls on a changing matrix; and
// the lists it selects share one slab without being able to grow into
// each other.
func TestSnapshotRoundTrip(t *testing.T) {
	opts := GISOptions{Metric: PCC, TopN: 7, MinCoRatings: 2}
	m := denseRandom(t, 40, 30, 0.3, 5)
	g := BuildGIS(m, opts)
	cut := 0
	for i := 0; i < g.NumItems(); i++ {
		if g.Horizon(i) != (mathx.Scored{}) {
			cut++
		}
	}
	if cut == 0 || cut == g.NumItems() {
		t.Fatalf("%d of %d lists are cut at TopN: the fixture no longer mixes set and zero horizons", cut, g.NumItems())
	}

	for step := 0; step < 3; step++ {
		ctx := fmt.Sprintf("after %d Refresh calls", step)
		snap := g.Snapshot()
		if len(snap.TauScores) != 8*g.NumItems() || len(snap.TauIDs.Bits) >= 8*g.NumItems() {
			t.Fatalf("%s: %d items take %d horizon weight bytes and %d id bytes", ctx, g.NumItems(), len(snap.TauScores), len(snap.TauIDs.Bits))
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
			t.Fatal(err)
		}
		if err := back.Check(m.NumItems()); err != nil {
			t.Fatalf("%s: Check: %v", ctx, err)
		}
		got, err := FromSnapshot(back, m)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		requireSameGIS(t, g, got, ctx)
		if got.Options() != opts {
			t.Fatalf("%s: options = %+v, want %+v", ctx, got.Options(), opts)
		}
		for i := 0; i < got.NumItems(); i++ {
			if l := got.Neighbors(i); cap(l) != len(l) {
				t.Fatalf("%s: item %d list has cap %d beyond its len %d", ctx, i, cap(l), len(l))
			}
		}

		ups := [][3]int{{step, 2 * step, 5}, {step + 7, 2*step + 1, 1}, {step + 20, 29 - step, 4}}
		m = applyUpdates(m, ups)
		g = g.Refresh(m, []int{2 * step, 2*step + 1, 29 - step}, 5)
	}
}

// TestSnapshotWideIDs: on a GIS over more than 65 536 items, horizons
// naming items past 65 536 travel whole, and a horizon id past the
// catalogue is refused naming the item it belongs to.
func TestSnapshotWideIDs(t *testing.T) {
	const q = 1<<16 + 3
	b := ratings.NewBuilder(4, q)
	for u, row := range [][3]float64{{5, 4, 3}, {1, 2, 2}, {4, 5, 5}, {2, 1, 2}} {
		for k, i := range []int{0, 1 << 16, q - 1} {
			b.MustAdd(u, i, row[k])
		}
	}
	m := b.Build()
	g := BuildGIS(m, GISOptions{Metric: PCC, TopN: 1, MinCoRatings: 2})
	if len(g.Neighbors(0)) != 1 || g.Horizon(0).Index < 1<<16 {
		t.Fatalf("item 0 keeps %v under horizon %v: the fixture no longer cuts a list at a wide id", g.Neighbors(0), g.Horizon(0))
	}
	snap := g.Snapshot()
	got, err := FromSnapshot(snap, m)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, got, "wide horizons")

	ids := make([]uint64, q)
	for i := range ids {
		ids[i] = uint64(g.Horizon(i).Index)
	}
	ids[1<<16] = 1 << 20
	snap.TauIDs = mathx.EncodeRice(ids)
	want := fmt.Sprintf("horizon of item %d names item %d of %d", 1<<16, 1<<20, q)
	if _, err := FromSnapshot(snap, m); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want one containing %q", err, want)
	}
}

// riceSet Rice-codes the values given, as Snapshot codes horizon ids.
func riceSet(vals ...uint64) mathx.RiceCode { return mathx.EncodeRice(vals) }

// rawScores encodes a Snapshot's horizon weights by hand.
func rawScores(scores ...float64) []byte {
	var out []byte
	for _, s := range scores {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
	}
	return out
}

// triMatrix rates three items that rise and fall together over four
// users: each has the other two as candidates.
func triMatrix(t testing.TB) *ratings.Matrix {
	t.Helper()
	b := ratings.NewBuilder(4, 3)
	for u, row := range [][3]float64{{5, 4, 5}, {1, 2, 1}, {4, 5, 3}, {2, 1, 2}} {
		for i, r := range row {
			b.MustAdd(u, i, r)
		}
	}
	return b.Build()
}

// snapshotRefusals are the malformed snapshots FromSnapshot must answer
// with an error naming what is wrong, and never a panic, on triMatrix.
var snapshotRefusals = []struct {
	name, want string
	snap       Snapshot
}{
	{"no horizons", "0 horizon weight bytes for 3 items", Snapshot{}},
	{"horizon weights one item short", "16 horizon weight bytes for 3 items", Snapshot{TauIDs: riceSet(0, 0, 0), TauScores: rawScores(0, 0)}},
	{"horizon code past its bytes", "horizon of item 0: the code at bit", Snapshot{TauIDs: mathx.RiceCode{K: 7, Bits: []byte{0x01}}, TauScores: rawScores(0, 0, 0)}},
	{"horizon id past the catalogue", "horizon of item 1 names item 3 of 3", Snapshot{TauIDs: riceSet(0, 3, 0), TauScores: rawScores(0, .1, 0)}},
	{"horizon weight NaN", "horizon of item 0 has weight NaN", Snapshot{TauIDs: riceSet(0, 0, 0), TauScores: rawScores(math.NaN(), 0, 0)}},
	{"horizon weight negative", "horizon of item 0 has weight -0.1", Snapshot{TauIDs: riceSet(0, 0, 0), TauScores: rawScores(-.1, 0, 0)}},
	{"horizon weight +Inf", "horizon of item 0 has weight +Inf", Snapshot{TauIDs: riceSet(0, 0, 0), TauScores: rawScores(math.Inf(1), 0, 0)}},
	{"horizon code bytes left over", "horizon code after item 2, the last: 1 bytes left over", Snapshot{TauIDs: mathx.RiceCode{Bits: []byte{0, 0}}, TauScores: rawScores(0, 0, 0)}},
	{"more candidates under a horizon than TopN", "item 0: 2 candidates precede its horizon, past TopN 1", Snapshot{TauIDs: riceSet(0, 0, 0), TauScores: rawScores(0, 0, 0), Opts: GISOptions{TopN: 1}}},
}

func TestFromSnapshotRefusesMalformed(t *testing.T) {
	m := triMatrix(t)
	sound := Snapshot{TauIDs: riceSet(0, 0, 0), TauScores: rawScores(0, 0, 0)}
	if g, err := FromSnapshot(sound, m); err != nil || g.TotalNeighbors() != 6 {
		t.Fatalf("the sound snapshot: %v; want every item holding its two candidates", err)
	}
	for _, tc := range snapshotRefusals {
		t.Run(tc.name, func(t *testing.T) {
			if g, err := FromSnapshot(tc.snap, m); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v (a GIS of %v), want one containing %q", err, g, tc.want)
			}
		})
	}
	if g, err := FromSnapshot(Snapshot{}, ratings.NewBuilder(0, 0).Build()); err != nil || g.NumItems() != 0 {
		t.Fatalf("the empty snapshot on the empty matrix: GIS %v, err %v; want an empty GIS", g, err)
	}
}

// FuzzFromSnapshot: whatever the horizon columns and TopN hold,
// FromSnapshot on a fixed matrix either refuses or returns a GIS whose
// every list is exactly its item's candidates that precede the list's
// horizon, in canonical order and no longer than TopN, under a horizon
// that is the zero τ or positive. The corpus is every refusal above and
// the snapshots, at every TopN from 1 to 16, of the GIS BuildGIS builds on
// the matrix and of it after a Refresh on a changed matrix, each also with
// its first set horizon moved onto its list's last entry, and of every
// horizon zeroed under that TopN.
func FuzzFromSnapshot(f *testing.F) {
	m := denseRandom(f, 12, 10, 0.5, 1)
	add := func(s Snapshot) { f.Add(s.TauIDs.K, s.TauIDs.Bits, s.TauScores, uint8(s.Opts.TopN)) }
	for _, tc := range snapshotRefusals {
		add(tc.snap)
	}
	changed := applyUpdates(m, [][3]int{{0, 3, 5}, {4, 3, 1}, {7, 8, 2}})
	for topN := 1; topN <= 16; topN++ {
		g := BuildGIS(m, GISOptions{Metric: PCC, TopN: topN, MinCoRatings: 2})
		add(Snapshot{TauIDs: mathx.EncodeRice(make([]uint64, g.NumItems())), TauScores: make([]byte, 8*g.NumItems()), Opts: g.opts})
		for _, g := range []*GIS{g, g.Refresh(changed, []int{3, 8}, topN)} {
			add(g.Snapshot())
			for i := 0; i < g.NumItems(); i++ {
				if list := g.Neighbors(i); g.Horizon(i) != (mathx.Scored{}) && len(list) > 0 {
					moved := *g
					moved.tau = append([]mathx.Scored(nil), g.tau...)
					moved.tau[i] = list[len(list)-1]
					add(moved.Snapshot())
					break
				}
			}
		}
	}
	all := BuildGIS(m, GISOptions{Metric: PCC, MinCoRatings: 2})
	f.Fuzz(func(t *testing.T, k uint8, ids, scores []byte, topN uint8) {
		s := Snapshot{TauIDs: mathx.RiceCode{K: k, Bits: ids}, TauScores: scores, Opts: GISOptions{Metric: PCC, TopN: int(topN), MinCoRatings: 2}}
		g, err := FromSnapshot(s, m)
		if err != nil {
			return
		}
		for i := 0; i < g.NumItems(); i++ {
			tau, cand := g.Horizon(i), all.Neighbors(i)
			if tau != (mathx.Scored{}) && !(tau.Score > 0) || tau.Index < 0 || int(tau.Index) >= g.NumItems() {
				t.Fatalf("item %d has horizon %v", i, tau)
			}
			n := 0
			for n < len(cand) && mathx.Precedes(cand[n], tau) {
				n++
			}
			got := g.Neighbors(i)
			if len(got) != n || topN > 0 && n > int(topN) {
				t.Fatalf("item %d holds %d entries; %d candidates precede its horizon %v, TopN %d", i, len(got), n, tau, topN)
			}
			for k := range got {
				if got[k] != cand[k] {
					t.Fatalf("item %d entry %d = %v, the candidates rank %v there", i, k, got[k], cand[k])
				}
			}
		}
	})
}
