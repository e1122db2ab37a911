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
// carried (+8 bytes an entry), its list order derived either way; and the
// layouts earlier files carry — gap-coded sets, ids in list order, ids
// and weights, per-item lists — decode to the same GIS.
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
		if snap.Set != nil || snap.IDs != nil || snap.Index != nil || snap.Score != nil || snap.Neighbors != nil {
			t.Fatal("Snapshot filled a decode-only layout")
		}
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

	ordered, err := FromSnapshot(listOrdered(g), m)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, ordered, "ids in list order")

	gapped, err := FromSnapshot(gapCoded(g), m)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, gapped, "gap-coded sets")

	v2 := Snapshot{Lens: g.Snapshot(false).Lens, Opts: opts}
	for i := 0; i < g.NumItems(); i++ {
		for _, n := range g.Neighbors(i) {
			v2.Index, v2.Score = append(v2.Index, n.Index), append(v2.Score, n.Score)
		}
	}
	flat, err := FromSnapshot(v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, flat, "version-2 layout")

	v1, err := FromSnapshot(Snapshot{Neighbors: g.neighbors, Opts: opts}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, v1, "per-item layout")
}

// TestSnapshotWideIDs: a GIS over more than 65 536 items codes gaps of
// 65 536 and more and they come back whole, Rice-coded and gap-coded; the
// IDs layout spends 4 bytes an id there, and an id it holds past the
// catalogue is refused naming the item and the entry.
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
	gapped := gapCoded(g)
	gapped.Scores = snap.Scores
	if want := binary.PutUvarint(make([]byte, binary.MaxVarintLen64), 1<<16) + 1 + 1; len(gapped.Set) != want {
		t.Fatalf("%d gap-coded set bytes for 3 entries, want %d", len(gapped.Set), want)
	}
	if got, err = FromSnapshot(gapped, nil); err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, got, "wide gap-coded set")

	wide := Snapshot{Lens: snap.Lens, IDs: rawIDs(4, q-1, 1<<16, 0), Scores: rawScores(.75, .5, .25)}
	if IDWidth(q) != 4 || IDWidth(1<<16) != 2 {
		t.Fatalf("IDWidth(%d) = %d, IDWidth(%d) = %d", q, IDWidth(q), 1<<16, IDWidth(1<<16))
	}
	if got, err = FromSnapshot(wide, nil); err != nil {
		t.Fatal(err)
	}
	requireSameGIS(t, g, got, "4-byte ids")
	binary.LittleEndian.PutUint32(wide.IDs[4:], 1<<20)
	if _, err := FromSnapshot(wide, nil); err == nil || !strings.Contains(err.Error(), "item 0 entry 1 ") {
		t.Fatalf("id 1<<20 of %d items: err = %v, want a refusal naming item 0 entry 1", q, err)
	}
}

// listOrdered is g in the IDs layout earlier files carry: each list in
// list order, one id in IDWidth bytes, the weights left to derive.
func listOrdered(g *GIS) Snapshot {
	s := Snapshot{Lens: make([]int32, g.NumItems()), Opts: g.opts}
	for i, list := range g.neighbors {
		s.Lens[i] = int32(len(list))
		for _, n := range list {
			s.IDs = append(s.IDs, rawIDs(IDWidth(g.NumItems()), uint32(n.Index))...)
		}
	}
	return s
}

// gapCoded is g in the Set layout model file version 2 carries: each
// list's ascending ids, each gap a uvarint, the weights left to derive.
func gapCoded(g *GIS) Snapshot {
	s := Snapshot{Lens: make([]int32, g.NumItems()), Opts: g.opts}
	for i, list := range g.neighbors {
		s.Lens[i] = int32(len(list))
		ids := make([]int32, 0, len(list))
		for _, n := range list {
			ids = append(ids, n.Index)
		}
		slices.Sort(ids)
		s.Set = appendGaps(s.Set, ids...)
	}
	return s
}

// appendGaps gap-codes ascending ids onto dst, the first after -1.
func appendGaps(dst []byte, ids ...int32) []byte {
	prev := int32(-1)
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id-prev-1))
		prev = id
	}
	return dst
}

// riceSet Rice-codes the gaps given, as Snapshot codes a GIS's.
func riceSet(gaps ...uint64) mathx.RiceCode { return mathx.EncodeRice(gaps) }

// rawIDs and rawScores encode a version-3 Snapshot's entries by hand.
func rawIDs(width int, ids ...uint32) []byte {
	var out []byte
	for _, id := range ids {
		if width == 2 {
			out = binary.LittleEndian.AppendUint16(out, uint16(id))
		} else {
			out = binary.LittleEndian.AppendUint32(out, id)
		}
	}
	return out
}

func rawScores(scores ...float64) []byte {
	var out []byte
	for _, s := range scores {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s))
	}
	return out
}

// snapshotRefusals are the malformed snapshots FromSnapshot must answer
// with an error and never a panic.
var snapshotRefusals = []struct {
	name string
	snap Snapshot
}{
	{"negative length", Snapshot{Lens: []int32{2, -1}, Index: []int32{1}, Score: []float64{.5}}},
	{"negative lengths that sum to the entries", Snapshot{Lens: []int32{3, -1}, Index: []int32{1, 0}, Score: []float64{.5, .4}}},
	{"Index shorter than the lengths", Snapshot{Lens: []int32{1, 2}, Index: []int32{1, 0}, Score: []float64{.5, .4, .3}}},
	{"Index longer than the lengths", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 0, 1}, Score: []float64{.5, .4}}},
	{"Score shorter than the lengths", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 0}, Score: []float64{.5}}},
	{"Score longer than the lengths", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 0}, Score: []float64{.5, .4, .3}}},
	{"entries without lengths", Snapshot{Index: []int32{1}, Score: []float64{.5}}},
	{"both layouts", Snapshot{Lens: []int32{1}, Index: []int32{0}, Score: []float64{.5},
		Neighbors: [][]mathx.Scored{{{Index: 0, Score: .5}}}}},
	{"per-item layout plus stray scores", Snapshot{Score: []float64{.5}, Neighbors: [][]mathx.Scored{{{Index: 0, Score: .5}}}}},
	{"raw and flat layouts", Snapshot{Lens: []int32{1, 0}, IDs: rawIDs(2, 1), Scores: rawScores(.5), Index: []int32{1}, Score: []float64{.5}}},
	{"raw layout plus a stray index", Snapshot{Lens: []int32{1, 0}, IDs: rawIDs(2, 1), Scores: rawScores(.5), Index: []int32{1}}},
	{"raw and per-item layouts", Snapshot{IDs: rawIDs(2, 0), Scores: rawScores(.5), Neighbors: [][]mathx.Scored{{{Index: 0, Score: .5}}}}},
	{"IDs shorter than the lengths", Snapshot{Lens: []int32{1, 1}, IDs: rawIDs(2, 1), Scores: rawScores(.5, .4)}},
	{"IDs one byte short", Snapshot{Lens: []int32{1, 1}, IDs: rawIDs(2, 1, 0)[:3], Scores: rawScores(.5, .4)}},
	{"IDs at 4 bytes for 2 items", Snapshot{Lens: []int32{1, 1}, IDs: rawIDs(4, 1, 0), Scores: rawScores(.5, .4)}},
	{"Scores one byte long", Snapshot{Lens: []int32{1, 1}, IDs: rawIDs(2, 1, 0), Scores: append(rawScores(.5, .4), 0)}},
	{"Scores without IDs", Snapshot{Lens: []int32{1, 0}, Scores: rawScores(.5)}},
	{"raw entries without lengths", Snapshot{IDs: rawIDs(2, 0), Scores: rawScores(.5)}},
	{"raw id past the catalogue", Snapshot{Lens: []int32{1, 1, 0}, IDs: rawIDs(2, 2, 3), Scores: rawScores(.5, .4)}},
	{"raw id 0xffff", Snapshot{Lens: []int32{1, 0}, IDs: rawIDs(2, 0xffff), Scores: rawScores(.5)}},
	{"flat id past the catalogue", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 2}, Score: []float64{.5, .4}}},
	{"flat id 1<<20", Snapshot{Lens: []int32{1, 1}, Index: []int32{1, 1 << 20}, Score: []float64{.5, .4}}},
	{"flat id negative", Snapshot{Lens: []int32{1, 1}, Index: []int32{-1, 0}, Score: []float64{.5, .4}}},
	{"per-item id past the catalogue", Snapshot{Neighbors: [][]mathx.Scored{{{Index: 1, Score: .5}}, {{Index: 2, Score: .4}}}}},
	{"per-item id negative", Snapshot{Neighbors: [][]mathx.Scored{{{Index: -1, Score: .5}}, nil}}},
	{"raw ids without weights or a matrix", Snapshot{Lens: []int32{1, 1}, IDs: rawIDs(2, 1, 0)}},
	{"set gap past its bytes", Snapshot{Lens: []int32{1, 1}, Set: []byte{0x81, 0x80}, Scores: rawScores(.5, .4)}},
	{"set id past the catalogue", Snapshot{Lens: []int32{1, 1}, Set: []byte{2, 0}, Scores: rawScores(.5, .4)}},
	{"set id past the catalogue after a gap", Snapshot{Lens: []int32{2, 0}, Set: []byte{0, 1}, Scores: rawScores(.5, .4)}},
	{"set bytes left over", Snapshot{Lens: []int32{1, 0}, Set: []byte{1, 0}, Scores: rawScores(.5)}},
	{"set shorter than the lengths", Snapshot{Lens: []int32{2, 1}, Set: []byte{0, 0}, Scores: rawScores(.5, .4, .3)}},
	{"set scores one entry short", Snapshot{Lens: []int32{1, 1}, Set: []byte{1, 0}, Scores: rawScores(.5)}},
	{"set and raw layouts", Snapshot{Lens: []int32{1, 1}, Set: []byte{1, 0}, IDs: rawIDs(2, 1, 0), Scores: rawScores(.5, .4)}},
	{"set and flat layouts", Snapshot{Lens: []int32{1, 1}, Set: []byte{1, 0}, Index: []int32{1, 0}, Score: []float64{.5, .4}}},
	{"set and per-item layouts", Snapshot{Set: []byte{0}, Neighbors: [][]mathx.Scored{{{Index: 0, Score: .5}}}}},
	{"set ids without weights or a matrix", Snapshot{Lens: []int32{1, 1}, Set: []byte{1, 0}}},
	{"set code past its bytes", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{K: 7, Bits: []byte{0x01}}, Scores: rawScores(.5)}},
	{"set code id past the catalogue", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(2, 0), Scores: rawScores(.5, .4)}},
	{"set code id past the catalogue after a gap", Snapshot{Lens: []int32{2, 0}, SetCode: riceSet(0, 1), Scores: rawScores(.5, .4)}},
	{"set code bytes left over", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{Bits: []byte{0x02, 0}}, Scores: rawScores(.5)}},
	{"set code pad bits", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{Bits: []byte{0x12}}, Scores: rawScores(.5)}},
	{"set code k past 63", Snapshot{Lens: []int32{1, 0}, SetCode: mathx.RiceCode{K: 64, Bits: make([]byte, 9)}, Scores: rawScores(.5)}},
	{"set code and gap-coded set", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), Set: []byte{1, 0}, Scores: rawScores(.5, .4)}},
	{"set code and raw layouts", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0), IDs: rawIDs(2, 1, 0), Scores: rawScores(.5, .4)}},
	{"set code and per-item layouts", Snapshot{SetCode: riceSet(0), Neighbors: [][]mathx.Scored{{{Index: 0, Score: .5}}}}},
	{"set code ids without weights or a matrix", Snapshot{Lens: []int32{1, 1}, SetCode: riceSet(1, 0)}},
}

// TestFromSnapshotNamesTheSetFault: each refusal of a malformed set,
// Rice-coded or gap-coded, names the item and the entry it found the
// fault at, or, for what is left after the last entry, the last item.
func TestFromSnapshotNamesTheSetFault(t *testing.T) {
	sound := Snapshot{Lens: []int32{0, 2, 1}, SetCode: riceSet(0, 0, 0), Scores: rawScores(.5, .4, .3)}
	if _, err := FromSnapshot(sound, nil); err != nil {
		t.Fatalf("the sound snapshot: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		code       mathx.RiceCode
	}{
		{"a code running past the bytes", "item 1 entry 1: the code at bit 1 runs past the 1 bytes", mathx.RiceCode{Bits: []byte{0xfe}}},
		{"an id past the catalogue", "item 1 entry 1: the id after neighbour 0 passes the 3 items", riceSet(0, 2, 0)},
		{"a first id past the catalogue", "item 2 entry 0: the id after neighbour -1 passes the 3 items", riceSet(0, 0, 3)},
		{"bytes left over", "after the list of item 2, its last: 1 bytes left over", mathx.RiceCode{Bits: []byte{0, 0}}},
		{"nonzero pad bits", "after the list of item 2, its last: nonzero pad bits", mathx.RiceCode{Bits: []byte{0x08}}},
		{"k past 63", "set code: Rice parameter k = 64, past 63", mathx.RiceCode{K: 64, Bits: make([]byte, 64)}},
	} {
		t.Run("Rice-coded: "+tc.name, func(t *testing.T) {
			snap := sound
			snap.SetCode = tc.code
			if _, err := FromSnapshot(snap, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}

	sound = Snapshot{Lens: []int32{0, 2, 1}, Set: []byte{0, 0, 0}, Scores: rawScores(.5, .4, .3)}
	if _, err := FromSnapshot(sound, nil); err != nil {
		t.Fatalf("the sound gap-coded snapshot: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		set        []byte
	}{
		{"a gap running past the bytes", "item 1 entry 1: the id gap runs past", []byte{0, 0x80, 0x80}},
		{"an id past the catalogue", "item 1 entry 1: the id after neighbour 0 passes the 3 items", []byte{0, 2, 0}},
		{"a first id past the catalogue", "item 2 entry 0: the id after neighbour -1 passes the 3 items", []byte{0, 0, 3}},
		{"bytes left over", "1 set bytes after the list of item 2", []byte{0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := sound
			snap.Set = tc.set
			if _, err := FromSnapshot(snap, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

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
// the catalogue says which item and which entry hold it — the shape of
// the blob that, accepted, panicked the first Recommend.
func TestFromSnapshotNamesTheStrayNeighbour(t *testing.T) {
	snap := Snapshot{Lens: []int32{0, 2, 1}, IDs: rawIDs(2, 0, 2, 1), Scores: rawScores(.5, .4, .3)}
	if _, err := FromSnapshot(snap, nil); err != nil {
		t.Fatalf("the sound snapshot: %v", err)
	}
	binary.LittleEndian.PutUint16(snap.IDs[2:], 1<<15)
	_, err := FromSnapshot(snap, nil)
	if err == nil || !strings.Contains(err.Error(), "item 1 entry 1 ") || !strings.Contains(err.Error(), "32768") {
		t.Fatalf("err = %v, want one naming item 1 entry 1 and id 32768", err)
	}
}

// FuzzFromSnapshot: whatever the slices and the Rice code hold,
// FromSnapshot either refuses or returns a GIS of one layout whose lists are exactly the lengths
// asked for, every id within the catalogue and, from a set, none twice. Without a matrix to derive
// weights from, a snapshot carrying none is refused. Lengths come in as signed
// bytes so negatives are common; ids and scores as raw bytes.
func FuzzFromSnapshot(f *testing.F) {
	for _, tc := range snapshotRefusals {
		lens := make([]byte, len(tc.snap.Lens))
		for i, n := range tc.snap.Lens {
			lens[i] = byte(int8(n))
		}
		f.Add(lens, len(tc.snap.Index), len(tc.snap.Score), len(tc.snap.Neighbors) > 0, tc.snap.IDs, tc.snap.Scores, tc.snap.Set, tc.snap.SetCode.K, tc.snap.SetCode.Bits)
	}
	f.Add([]byte{2, 0, 1}, 3, 3, false, []byte(nil), []byte(nil), []byte(nil), uint8(0), []byte(nil))
	f.Add([]byte{2, 0, 1}, 0, 0, false, rawIDs(2, 1, 2, 0), rawScores(.5, .4, .3), []byte(nil), uint8(0), []byte(nil))
	f.Add([]byte{2, 0, 1}, 0, 0, false, []byte(nil), rawScores(.5, .4, .3), []byte{1, 0, 0}, uint8(0), []byte(nil))
	code := riceSet(1, 0, 0)
	f.Add([]byte{2, 0, 1}, 0, 0, false, []byte(nil), rawScores(.5, .4, .3), []byte(nil), code.K, code.Bits)
	f.Fuzz(func(t *testing.T, lens []byte, nIndex, nScore int, both bool, ids, scores, set []byte, k uint8, code []byte) {
		if nIndex < 0 || nIndex > 1<<12 || nScore < 0 || nScore > 1<<12 {
			return
		}
		s := Snapshot{Index: make([]int32, nIndex), Score: make([]float64, nScore), IDs: ids, Scores: scores, Set: set,
			SetCode: mathx.RiceCode{K: k, Bits: code}}
		for _, n := range lens {
			s.Lens = append(s.Lens, int32(int8(n)))
		}
		if both {
			s.Neighbors = [][]mathx.Scored{{{Index: 0, Score: .5}}}
		}
		g, err := FromSnapshot(s, nil)
		if err != nil {
			return
		}
		rice, gaps := len(code) > 0 || k != 0, len(set) > 0
		sets := rice || gaps
		raw, flat := len(ids) > 0 || len(scores) > 0 && !sets, nIndex+nScore > 0
		if both {
			if sets || raw || flat || len(lens) > 0 {
				t.Fatal("accepted a snapshot carrying more than one layout")
			}
			return
		}
		if raw && flat || sets && (raw || flat) || rice && gaps {
			t.Fatal("accepted a snapshot carrying more than one layout")
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
		if have := max(nIndex, len(scores)/8); have != total || (raw && len(ids) != total*IDWidth(len(s.Lens))) {
			t.Fatalf("accepted %d id bytes, %d score bytes, %d/%d indices/scores for %d entries", len(ids), len(scores), nIndex, nScore, total)
		}
		for i := 0; i < g.NumItems(); i++ {
			for k, n := range g.Neighbors(i) {
				if n.Index < 0 || int(n.Index) >= g.NumItems() {
					t.Fatalf("item %d entry %d names neighbour %d of %d items", i, k, n.Index, g.NumItems())
				}
				if sets && slices.ContainsFunc(g.Neighbors(i)[:k], func(e mathx.Scored) bool { return e.Index == n.Index }) {
					t.Fatalf("item %d entry %d repeats neighbour %d from a set", i, k, n.Index)
				}
			}
		}
	})
}
