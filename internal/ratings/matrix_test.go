package ratings

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *Matrix {
	t.Helper()
	b := NewBuilder(3, 4)
	// user 0: items 0,1; user 1: items 1,2,3; user 2: nothing
	for _, tr := range []struct {
		u, i int
		r    float64
	}{
		{0, 0, 4}, {0, 1, 2},
		{1, 1, 5}, {1, 2, 3}, {1, 3, 1},
	} {
		if err := b.Add(tr.u, tr.i, tr.r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestMatrixBasics(t *testing.T) {
	m := buildSmall(t)
	if m.NumUsers() != 3 || m.NumItems() != 4 {
		t.Fatalf("dims = %d×%d, want 3×4", m.NumUsers(), m.NumItems())
	}
	if m.NumRatings() != 5 {
		t.Errorf("NumRatings = %d, want 5", m.NumRatings())
	}
	if got, want := m.Density(), 5.0/12.0; !close(got, want) {
		t.Errorf("Density = %g, want %g", got, want)
	}
	if got, want := m.AvgRatingsPerUser(), 5.0/3.0; !close(got, want) {
		t.Errorf("AvgRatingsPerUser = %g, want %g", got, want)
	}
	if m.MinRating() != 1 || m.MaxRating() != 5 {
		t.Errorf("scale = [%g,%g], want [1,5]", m.MinRating(), m.MaxRating())
	}
}

func TestMatrixRatingLookup(t *testing.T) {
	m := buildSmall(t)
	if r, ok := m.Rating(0, 1); !ok || r != 2 {
		t.Errorf("Rating(0,1) = %g,%v, want 2,true", r, ok)
	}
	if r, ok := m.Rating(1, 3); !ok || r != 1 {
		t.Errorf("Rating(1,3) = %g,%v, want 1,true", r, ok)
	}
	if _, ok := m.Rating(0, 2); ok {
		t.Error("Rating(0,2) must be missing")
	}
	if _, ok := m.Rating(2, 0); ok {
		t.Error("Rating(2,0) must be missing for empty user")
	}
}

func TestMatrixMeans(t *testing.T) {
	m := buildSmall(t)
	if got := m.UserMean(0); !close(got, 3) {
		t.Errorf("UserMean(0) = %g, want 3", got)
	}
	if got := m.UserMean(1); !close(got, 3) {
		t.Errorf("UserMean(1) = %g, want 3", got)
	}
	global := (4.0 + 2 + 5 + 3 + 1) / 5
	if got := m.GlobalMean(); !close(got, global) {
		t.Errorf("GlobalMean = %g, want %g", got, global)
	}
	// Empty user falls back to the global mean.
	if got := m.UserMean(2); !close(got, global) {
		t.Errorf("UserMean(empty) = %g, want global %g", got, global)
	}
	if got := m.ItemMean(1); !close(got, 3.5) {
		t.Errorf("ItemMean(1) = %g, want 3.5", got)
	}
	if got := m.ItemMean(0); !close(got, 4) {
		t.Errorf("ItemMean(0) = %g, want 4", got)
	}
}

func TestMatrixRowsAndColsSorted(t *testing.T) {
	m := buildSmall(t)
	for u := 0; u < m.NumUsers(); u++ {
		row := m.UserRatings(u)
		for i := 1; i < len(row); i++ {
			if row[i-1].Index >= row[i].Index {
				t.Fatalf("user %d row not strictly sorted: %v", u, row)
			}
		}
	}
	for i := 0; i < m.NumItems(); i++ {
		col := m.ItemRatings(i)
		for j := 1; j < len(col); j++ {
			if col[j-1].Index >= col[j].Index {
				t.Fatalf("item %d col not strictly sorted: %v", i, col)
			}
		}
	}
}

func TestBuilderDuplicateKeepsLast(t *testing.T) {
	b := NewBuilder(1, 1)
	b.MustAdd(0, 0, 2)
	b.MustAdd(0, 0, 5)
	m := b.Build()
	if m.NumRatings() != 1 {
		t.Fatalf("NumRatings = %d, want 1 after dedup", m.NumRatings())
	}
	if r, _ := m.Rating(0, 0); r != 5 {
		t.Errorf("Rating = %g, want last value 5", r)
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2, 2)
	if err := b.Add(2, 0, 3); err == nil {
		t.Error("user out of range must error")
	}
	if err := b.Add(-1, 0, 3); err == nil {
		t.Error("negative user must error")
	}
	if err := b.Add(0, 2, 3); err == nil {
		t.Error("item out of range must error")
	}
	if err := b.Add(0, 0, math.NaN()); err == nil {
		t.Error("NaN rating must error")
	}
	if err := b.Add(0, 0, math.Inf(1)); err == nil {
		t.Error("Inf rating must error")
	}
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(1, 2)
	b.MustAdd(0, 0, 3)
	m1 := b.Build()
	b.MustAdd(0, 1, 4)
	m2 := b.Build()
	if m1.NumRatings() != 1 {
		t.Errorf("first build mutated: %d ratings", m1.NumRatings())
	}
	if m2.NumRatings() != 2 {
		t.Errorf("second build = %d ratings, want 2", m2.NumRatings())
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewBuilder(2, 3).Build()
	if m.NumRatings() != 0 || m.Density() != 0 || m.GlobalMean() != 0 {
		t.Error("empty matrix must report zeros")
	}
	if _, ok := m.Rating(0, 0); ok {
		t.Error("empty matrix has no ratings")
	}
}

func TestSubsetUsers(t *testing.T) {
	m := buildSmall(t)
	sub := m.SubsetUsers([]int{1, 2})
	if sub.NumUsers() != 2 || sub.NumItems() != 4 {
		t.Fatalf("subset dims %d×%d, want 2×4", sub.NumUsers(), sub.NumItems())
	}
	if sub.NumRatings() != 3 {
		t.Errorf("subset ratings = %d, want 3", sub.NumRatings())
	}
	if r, ok := sub.Rating(0, 2); !ok || r != 3 {
		t.Errorf("subset Rating(0,2) = %g,%v, want 3,true (renumbered user 1)", r, ok)
	}
}

func TestCoRatedItems(t *testing.T) {
	m := buildSmall(t)
	var items []int32
	m.CoRatedItems(0, 1, func(i int32, ra, rb float64) {
		items = append(items, i)
		if i == 1 && (ra != 2 || rb != 5) {
			t.Errorf("item 1 values = %g,%g, want 2,5", ra, rb)
		}
	})
	if len(items) != 1 || items[0] != 1 {
		t.Errorf("co-rated items = %v, want [1]", items)
	}
}

func TestCoRatingUsers(t *testing.T) {
	m := buildSmall(t)
	n := 0
	m.CoRatingUsers(1, 2, func(u int32, ra, rb float64) {
		n++
		if u != 1 || ra != 5 || rb != 3 {
			t.Errorf("co-rating user %d values %g,%g, want user 1: 5,3", u, ra, rb)
		}
	})
	if n != 1 {
		t.Errorf("co-rating users count = %d, want 1", n)
	}
}

// Property: Rating(u,i) agrees with a map built from the same triples, and
// row/col views are consistent with each other.
func TestMatrixConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, q := 1+rng.Intn(20), 1+rng.Intn(20)
		b := NewBuilder(p, q)
		ref := map[[2]int]float64{}
		n := rng.Intn(150)
		for k := 0; k < n; k++ {
			u, i := rng.Intn(p), rng.Intn(q)
			r := float64(1 + rng.Intn(5))
			b.MustAdd(u, i, r)
			ref[[2]int{u, i}] = r
		}
		m := b.Build()
		if m.NumRatings() != len(ref) {
			return false
		}
		for u := 0; u < p; u++ {
			for i := 0; i < q; i++ {
				want, ok := ref[[2]int{u, i}]
				got, gok := m.Rating(u, i)
				if ok != gok || (ok && got != want) {
					return false
				}
			}
		}
		// Column view must contain exactly the same cells.
		cells := 0
		for i := 0; i < q; i++ {
			for _, e := range m.ItemRatings(i) {
				if ref[[2]int{int(e.Index), i}] != e.Value {
					return false
				}
				cells++
			}
		}
		return cells == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func close(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestDuplicateKeepsLatestTimestamp(t *testing.T) {
	b := NewBuilder(1, 2)
	if err := b.AddWithTime(0, 0, 2, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.AddWithTime(0, 0, 5, 200); err != nil {
		t.Fatal(err)
	}
	b.MustAdd(0, 1, 3) // untimed rating in a timed matrix
	m := b.Build()
	if !m.HasTimes() {
		t.Fatal("matrix should carry timestamps")
	}
	if r, _ := m.Rating(0, 0); r != 5 {
		t.Fatalf("value = %g, want latest 5", r)
	}
	if ts, ok := m.RatingTime(0, 0); !ok || ts != 200 {
		t.Fatalf("timestamp = %d,%v, want 200 (paired with the latest value)", ts, ok)
	}
	if ts, ok := m.RatingTime(0, 1); !ok || ts != 0 {
		t.Fatalf("untimed rating timestamp = %d,%v, want 0,true", ts, ok)
	}
	if _, ok := m.RatingTime(0, 5); ok {
		t.Error("RatingTime on out-of-row item must report missing")
	}
}
