// Package ratings implements the sparse item–user matrix that every CF
// algorithm in this repository operates on, together with dataset I/O in
// the MovieLens u.data format and the Given-N evaluation splits used by
// the CFSF paper.
//
// The matrix is immutable once built and indexed both ways: compressed
// rows (one sorted rating list per user) and compressed columns (one
// sorted rating list per item), so both user-based and item-based
// algorithms get O(nnz/user) and O(nnz/item) access.
package ratings

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Entry is one stored rating inside a row or column list. For a user row,
// Index is the item id; for an item column, Index is the user id.
type Entry struct {
	Index int32
	Value float64
}

// Matrix is an immutable sparse P×Q item–user matrix (P users, Q items).
// It is safe for concurrent use.
type Matrix struct {
	numUsers int
	numItems int

	rows [][]Entry // rows[u] = ratings of user u sorted by item id
	cols [][]Entry // cols[i] = ratings of item i sorted by user id

	userMean []float64 // mean rating per user (0 when the user rated nothing)
	itemMean []float64 // mean rating per item (0 when the item has no ratings)
	global   float64   // mean over all ratings
	nnz      int

	// rowTimes, when non-nil, aligns a unix timestamp with every entry
	// of rows (see time.go). Matrices without timestamps leave it nil.
	rowTimes [][]int64

	minRating float64
	maxRating float64
}

// NumUsers returns P, the number of user rows.
func (m *Matrix) NumUsers() int { return m.numUsers }

// NumItems returns Q, the number of item columns.
func (m *Matrix) NumItems() int { return m.numItems }

// NumRatings returns the number of stored ratings.
func (m *Matrix) NumRatings() int { return m.nnz }

// Density returns nnz / (P*Q), the fill fraction of the matrix.
func (m *Matrix) Density() float64 {
	if m.numUsers == 0 || m.numItems == 0 {
		return 0
	}
	return float64(m.nnz) / (float64(m.numUsers) * float64(m.numItems))
}

// UserRatings returns user u's ratings sorted by item id. The returned
// slice is shared and must not be modified.
func (m *Matrix) UserRatings(u int) []Entry { return m.rows[u] }

// ItemRatings returns item i's ratings sorted by user id. The returned
// slice is shared and must not be modified.
func (m *Matrix) ItemRatings(i int) []Entry { return m.cols[i] }

// Rating returns the rating user u gave item i, and whether it exists.
func (m *Matrix) Rating(u, i int) (float64, bool) {
	row := m.rows[u]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(row[mid].Index) < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && int(row[lo].Index) == i {
		return row[lo].Value, true
	}
	return 0, false
}

// UserMean returns the mean of user u's ratings, falling back to the
// global mean when the user has no ratings.
func (m *Matrix) UserMean(u int) float64 {
	if len(m.rows[u]) == 0 {
		return m.global
	}
	return m.userMean[u]
}

// ItemMean returns the mean of item i's ratings, falling back to the
// global mean when the item has no ratings.
func (m *Matrix) ItemMean(i int) float64 {
	if len(m.cols[i]) == 0 {
		return m.global
	}
	return m.itemMean[i]
}

// GlobalMean returns the mean over all stored ratings (0 for an empty
// matrix).
func (m *Matrix) GlobalMean() float64 { return m.global }

// MinRating and MaxRating bound the rating scale (1..5 for MovieLens).
func (m *Matrix) MinRating() float64 { return m.minRating }

// MaxRating returns the top of the rating scale.
func (m *Matrix) MaxRating() float64 { return m.maxRating }

// AvgRatingsPerUser returns nnz/P.
func (m *Matrix) AvgRatingsPerUser() float64 {
	if m.numUsers == 0 {
		return 0
	}
	return float64(m.nnz) / float64(m.numUsers)
}

// Builder accumulates ratings and produces an immutable Matrix. Adding
// the same (user, item) twice keeps the latest value.
type Builder struct {
	numUsers  int
	numItems  int
	triples   []triple
	minRating float64
	maxRating float64
	anyTimes  bool // at least one rating came in via AddWithTime
}

type triple struct {
	user, item int32
	value      float64
	ts         int64
}

// NewBuilder returns a Builder for a P×Q matrix on the given rating scale.
func NewBuilder(numUsers, numItems int) *Builder {
	return &Builder{
		numUsers:  numUsers,
		numItems:  numItems,
		minRating: 1,
		maxRating: 5,
	}
}

// SetScale overrides the rating scale recorded on the built matrix.
func (b *Builder) SetScale(min, max float64) *Builder {
	b.minRating, b.maxRating = min, max
	return b
}

// widenScale widens the scale to cover every value added so far. A file
// reader calls it, so that a file holding values off the default 1..5
// scale (MovieLens half stars, 0.5..5) builds a matrix on a scale its
// values lie on; the scale is never narrower than the default.
func (b *Builder) widenScale() {
	for _, t := range b.triples {
		b.minRating, b.maxRating = min(b.minRating, t.value), max(b.maxRating, t.value)
	}
}

// Add records one rating. It returns an error for out-of-range ids or a
// non-finite value.
func (b *Builder) Add(user, item int, value float64) error {
	if user < 0 || user >= b.numUsers {
		return fmt.Errorf("ratings: user %d out of range [0,%d)", user, b.numUsers)
	}
	if item < 0 || item >= b.numItems {
		return fmt.Errorf("ratings: item %d out of range [0,%d)", item, b.numItems)
	}
	if err := checkFinite(user, item, value); err != nil {
		return err
	}
	b.triples = append(b.triples, triple{user: int32(user), item: int32(item), value: value})
	return nil
}

func checkFinite(user, item int, value float64) error {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("ratings: non-finite rating %v for (%d,%d)", value, user, item)
	}
	return nil
}

// MustAdd is Add that panics on error; for use with ids the caller has
// already validated.
func (b *Builder) MustAdd(user, item int, value float64) {
	if err := b.Add(user, item, value); err != nil {
		panic(err)
	}
}

// Len returns the number of ratings recorded so far (before dedup).
func (b *Builder) Len() int { return len(b.triples) }

// Build produces the immutable matrix. The Builder remains usable.
func (b *Builder) Build() *Matrix {
	ts := b.sorted()
	m := &Matrix{
		numUsers:  b.numUsers,
		numItems:  b.numItems,
		rows:      make([][]Entry, b.numUsers),
		cols:      make([][]Entry, b.numItems),
		userMean:  make([]float64, b.numUsers),
		itemMean:  make([]float64, b.numItems),
		nnz:       len(ts),
		minRating: b.minRating,
		maxRating: b.maxRating,
	}

	rowLen := make([]int, b.numUsers)
	colLen := make([]int, b.numItems)
	for _, t := range ts {
		rowLen[t.user]++
		colLen[t.item]++
	}
	// Single backing arrays keep the matrix compact and cache friendly.
	rowBack := make([]Entry, len(ts))
	colBack := make([]Entry, len(ts))
	off := 0
	for u := 0; u < b.numUsers; u++ {
		m.rows[u] = rowBack[off : off : off+rowLen[u]]
		off += rowLen[u]
	}
	off = 0
	for i := 0; i < b.numItems; i++ {
		m.cols[i] = colBack[off : off : off+colLen[i]]
		off += colLen[i]
	}

	var total float64
	userSum := make([]float64, b.numUsers)
	itemSum := make([]float64, b.numItems)
	for _, t := range ts {
		m.rows[t.user] = append(m.rows[t.user], Entry{t.item, t.value})
		m.cols[t.item] = append(m.cols[t.item], Entry{t.user, t.value})
		userSum[t.user] += t.value
		itemSum[t.item] += t.value
		total += t.value
	}
	// Rows were filled in (user, item) order so they are sorted; columns
	// were filled in user order per item (ts is user-major), also sorted.
	for u := 0; u < b.numUsers; u++ {
		if n := len(m.rows[u]); n > 0 {
			m.userMean[u] = userSum[u] / float64(n)
		}
	}
	for i := 0; i < b.numItems; i++ {
		if n := len(m.cols[i]); n > 0 {
			m.itemMean[i] = itemSum[i] / float64(n)
		}
	}
	if len(ts) > 0 {
		m.global = total / float64(len(ts))
	}
	if b.anyTimes {
		m.rowTimes = make([][]int64, b.numUsers)
		timeBack := make([]int64, len(ts))
		off := 0
		for u := range m.rowTimes {
			m.rowTimes[u] = timeBack[off:off]
			off += len(m.rows[u])
		}
		for _, t := range ts {
			u := int(t.user)
			m.rowTimes[u] = append(m.rowTimes[u], t.ts)
		}
	}
	return m
}

// sorted returns a copy of the recorded triples ordered by (user, item),
// insertion order kept among equal pairs, with each pair's run cut to its
// last triple — value and timestamp together. The order is a counting sort
// by user, which is stable, then a stable sort of each user's run by item.
func (b *Builder) sorted() []triple {
	start := make([]int, b.numUsers+1)
	for _, t := range b.triples {
		start[t.user+1]++
	}
	for u := 0; u < b.numUsers; u++ {
		start[u+1] += start[u]
	}
	ts := make([]triple, len(b.triples))
	next := slices.Clone(start[:b.numUsers])
	for _, t := range b.triples {
		ts[next[t.user]] = t
		next[t.user]++
	}
	byItem := func(x, y triple) int { return cmp.Compare(x.item, y.item) }
	for u := 0; u < b.numUsers; u++ {
		slices.SortStableFunc(ts[start[u]:start[u+1]], byItem)
	}
	dedup := ts[:0]
	for _, t := range ts {
		if n := len(dedup); n > 0 && dedup[n-1].user == t.user && dedup[n-1].item == t.item {
			dedup[n-1] = t
			continue
		}
		dedup = append(dedup, t)
	}
	return dedup
}

// SubsetUsers returns a new matrix containing only the rows of the listed
// users (renumbered 0..len(users)-1) over the same item space. It is the
// primitive behind the ML_100/200/300 training-set construction.
func (m *Matrix) SubsetUsers(users []int) *Matrix {
	b := NewBuilder(len(users), m.numItems)
	b.SetScale(m.minRating, m.maxRating)
	for nu, u := range users {
		for k, e := range m.rows[u] {
			if m.rowTimes != nil {
				if err := b.AddWithTime(nu, int(e.Index), e.Value, m.rowTimes[u][k]); err != nil {
					panic(err)
				}
				continue
			}
			_ = k
			b.MustAdd(nu, int(e.Index), e.Value)
		}
	}
	return b.Build()
}

// CoRatedItems iterates over the items rated by both users a and b,
// calling fn with the item id and the two ratings. Rows are sorted, so
// this is a linear merge.
func (m *Matrix) CoRatedItems(a, b int, fn func(item int32, ra, rb float64)) {
	ra, rb := m.rows[a], m.rows[b]
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i].Index < rb[j].Index:
			i++
		case ra[i].Index > rb[j].Index:
			j++
		default:
			fn(ra[i].Index, ra[i].Value, rb[j].Value)
			i++
			j++
		}
	}
}

// CoRatingUsers iterates over the users who rated both items a and b,
// calling fn with the user id and the two ratings.
func (m *Matrix) CoRatingUsers(a, b int, fn func(user int32, ra, rb float64)) {
	ca, cb := m.cols[a], m.cols[b]
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i].Index < cb[j].Index:
			i++
		case ca[i].Index > cb[j].Index:
			j++
		default:
			fn(ca[i].Index, ca[i].Value, cb[j].Value)
			i++
			j++
		}
	}
}
