package ratings

import (
	"math"
	"math/rand"
	"testing"
)

// fullRebuild replays every rating in m plus ups through a fresh Builder —
// the reference path Upserted must match bit-for-bit.
func fullRebuild(t *testing.T, m *Matrix, ups []Upsert) *Matrix {
	t.Helper()
	numUsers, numItems := m.NumUsers(), m.NumItems()
	for _, up := range ups {
		if up.User >= numUsers {
			numUsers = up.User + 1
		}
		if up.Item >= numItems {
			numItems = up.Item + 1
		}
	}
	b := NewBuilder(numUsers, numItems).SetScale(m.MinRating(), m.MaxRating())
	hasTimes := m.HasTimes()
	for u := 0; u < m.NumUsers(); u++ {
		times := m.UserRatingTimes(u)
		for k, e := range m.UserRatings(u) {
			if hasTimes {
				if err := b.AddWithTime(u, int(e.Index), e.Value, times[k]); err != nil {
					t.Fatal(err)
				}
			} else if err := b.Add(u, int(e.Index), e.Value); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, up := range ups {
		if hasTimes || up.Time != 0 {
			if err := b.AddWithTime(up.User, up.Item, up.Value, up.Time); err != nil {
				t.Fatal(err)
			}
		} else if err := b.Add(up.User, up.Item, up.Value); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// requireSameMatrix asserts exact (bitwise) equality of every observable
// aspect of two matrices.
func requireSameMatrix(t *testing.T, want, got *Matrix) {
	t.Helper()
	if want.NumUsers() != got.NumUsers() || want.NumItems() != got.NumItems() {
		t.Fatalf("dims: want %dx%d got %dx%d", want.NumUsers(), want.NumItems(), got.NumUsers(), got.NumItems())
	}
	if want.NumRatings() != got.NumRatings() {
		t.Fatalf("nnz: want %d got %d", want.NumRatings(), got.NumRatings())
	}
	if want.GlobalMean() != got.GlobalMean() {
		t.Fatalf("global mean: want %v got %v", want.GlobalMean(), got.GlobalMean())
	}
	if want.MinRating() != got.MinRating() || want.MaxRating() != got.MaxRating() {
		t.Fatalf("scale mismatch")
	}
	if want.HasTimes() != got.HasTimes() {
		t.Fatalf("HasTimes: want %v got %v", want.HasTimes(), got.HasTimes())
	}
	for u := 0; u < want.NumUsers(); u++ {
		if want.UserMean(u) != got.UserMean(u) {
			t.Fatalf("user %d mean: want %v got %v", u, want.UserMean(u), got.UserMean(u))
		}
		wr, gr := want.UserRatings(u), got.UserRatings(u)
		if len(wr) != len(gr) {
			t.Fatalf("user %d row len: want %d got %d", u, len(wr), len(gr))
		}
		for k := range wr {
			if wr[k] != gr[k] {
				t.Fatalf("user %d row[%d]: want %+v got %+v", u, k, wr[k], gr[k])
			}
		}
		if want.HasTimes() {
			wt, gt := want.UserRatingTimes(u), got.UserRatingTimes(u)
			for k := range wr {
				if wt[k] != gt[k] {
					t.Fatalf("user %d time[%d]: want %d got %d", u, k, wt[k], gt[k])
				}
			}
		}
	}
	for i := 0; i < want.NumItems(); i++ {
		if want.ItemMean(i) != got.ItemMean(i) {
			t.Fatalf("item %d mean: want %v got %v", i, want.ItemMean(i), got.ItemMean(i))
		}
		wc, gc := want.ItemRatings(i), got.ItemRatings(i)
		if len(wc) != len(gc) {
			t.Fatalf("item %d col len: want %d got %d", i, len(wc), len(gc))
		}
		for k := range wc {
			if wc[k] != gc[k] {
				t.Fatalf("item %d col[%d]: want %+v got %+v", i, k, wc[k], gc[k])
			}
		}
	}
}

func randomMatrix(rng *rand.Rand, users, items, n int, timed bool) *Matrix {
	b := NewBuilder(users, items).SetScale(1, 5)
	for k := 0; k < n; k++ {
		u, i := rng.Intn(users), rng.Intn(items)
		v := float64(rng.Intn(9)+1) / 2
		if timed {
			b.AddWithTime(u, i, v, int64(rng.Intn(1000)+1))
		} else {
			b.MustAdd(u, i, v)
		}
	}
	return b.Build()
}

func TestUpsertedMatchesFullRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		timed := trial%2 == 1
		m := randomMatrix(rng, 20, 15, 120, timed)
		nUps := rng.Intn(12) + 1
		ups := make([]Upsert, nUps)
		for k := range ups {
			ups[k] = Upsert{
				User:  rng.Intn(24), // may grow users
				Item:  rng.Intn(18), // may grow items
				Value: float64(rng.Intn(9)+1) / 2,
			}
			if timed {
				ups[k].Time = int64(rng.Intn(1000) + 1)
			}
		}
		got, err := m.Upserted(ups)
		if err != nil {
			t.Fatalf("trial %d: Upserted: %v", trial, err)
		}
		want := fullRebuild(t, m, ups)
		requireSameMatrix(t, want, got)
	}
}

func TestUpsertedDuplicateLastWins(t *testing.T) {
	b := NewBuilder(3, 3).SetScale(1, 5)
	b.MustAdd(0, 0, 2)
	b.MustAdd(1, 1, 3)
	m := b.Build()
	ups := []Upsert{{User: 0, Item: 0, Value: 4}, {User: 0, Item: 0, Value: 5}, {User: 0, Item: 2, Value: 1}}
	got, err := m.Upserted(ups)
	if err != nil {
		t.Fatalf("Upserted: %v", err)
	}
	if v, _ := got.Rating(0, 0); v != 5 {
		t.Fatalf("last write should win: got %v", v)
	}
	requireSameMatrix(t, fullRebuild(t, m, ups), got)
}

func TestUpsertedSharesUnchangedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomMatrix(rng, 10, 8, 50, false)
	const sentinel = 4.75 // not producible by randomMatrix
	got, err := m.Upserted([]Upsert{{User: 0, Item: 0, Value: sentinel}})
	if err != nil {
		t.Fatalf("Upserted: %v", err)
	}
	for u := 1; u < m.NumUsers(); u++ {
		a, b := m.UserRatings(u), got.UserRatings(u)
		if len(a) > 0 && len(b) > 0 && &a[0] != &b[0] {
			t.Fatalf("row %d was copied, expected shared backing", u)
		}
	}
	// Old matrix unchanged.
	if v, has := m.Rating(0, 0); has && v == sentinel {
		t.Fatalf("old matrix mutated")
	}
}

// TestUpsertedTimesTransitionIsPromoted: the first timed upsert into an
// untimed matrix yields the timed matrix a full rebuild would, whatever
// else the batch holds (untimed upserts, overwrites, growth).
func TestUpsertedTimesTransitionIsPromoted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randomMatrix(rng, 20, 15, 120, false)
	u, i := 3, int(m.UserRatings(3)[0].Index)
	ups := []Upsert{
		{User: 1, Item: 1, Value: 3, Time: 99},
		{User: 2, Item: 14, Value: 4.5},         // untimed, same batch
		{User: u, Item: i, Value: 1.5, Time: 7}, // overwrites an untimed cell
		{User: 21, Item: 16, Value: 2, Time: 5}, // grows both dimensions
	}
	got, err := m.Upserted(ups)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTimes() || m.HasTimes() {
		t.Fatalf("HasTimes: got %v, old matrix %v; want true, false", got.HasTimes(), m.HasTimes())
	}
	requireSameMatrix(t, fullRebuild(t, m, ups), got)
	if ts, ok := got.RatingTime(u, i); !ok || ts != 7 {
		t.Fatalf("RatingTime(%d,%d) = %d, %v; want 7", u, i, ts, ok)
	}
}

func TestUpsertedValidation(t *testing.T) {
	b := NewBuilder(2, 2).SetScale(1, 5)
	b.MustAdd(0, 0, 2)
	m := b.Build()
	cases := [][]Upsert{
		{{User: -1, Item: 0, Value: 3}},
		{{User: 0, Item: -2, Value: 3}},
		{{User: 0, Item: 0, Value: math.NaN()}},
		{{User: 0, Item: 0, Value: math.Inf(1)}},
	}
	for k, ups := range cases {
		if _, err := m.Upserted(ups); err == nil {
			t.Fatalf("case %d: expected error", k)
		}
	}
}

func TestUpsertedEmptyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 5, 5, 12, false)
	got, err := m.Upserted(nil)
	if err != nil || got != m {
		t.Fatalf("empty batch should return the same matrix (err=%v)", err)
	}
}
