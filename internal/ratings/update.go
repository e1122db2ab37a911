package ratings

import (
	"fmt"
	"math"
	"sort"

	"cfsf/internal/mathx"
)

// Incremental matrix rebuild. Matrix is immutable, so "updating" it means
// producing a new Matrix — but a micro-batch of rating updates touches
// only a few rows and columns, and the rest of the structure can be
// shared with the previous matrix instead of re-sorted and re-copied.
//
// Upserted is bit-for-bit equivalent to replaying every old rating plus
// the updates through a fresh Builder: unchanged rows and columns are
// shared (their values are identical by construction), changed rows and
// columns are rebuilt by sorted merge, and every floating-point aggregate
// (user sums and means, item means, the global mean) is re-accumulated in
// exactly the iteration order Builder.Build uses, so downstream consumers
// that require exact reproducibility (the sharded/unsharded parity
// contract in internal/core) see no difference. What Upserted reads and
// writes is the changed rows and columns and the per-user and per-item
// header slices, never an unchanged rating.

// Upsert is one cell change for Matrix.Upserted: set (User, Item) to
// Value, growing the matrix when the ids lie past the current bounds.
// Within a batch the last write to a cell wins, matching Builder
// semantics.
type Upsert struct {
	User, Item int
	Value      float64
	Time       int64
}

// Upserted returns a new matrix with the updates applied, sharing all
// unchanged rows and columns with m. The first timestamped update into an
// untimed matrix promotes it: every existing rating gets timestamp 0, as
// Builder.Build gives an untimed rating mixed with timed ones. An invalid
// update (negative id, non-finite value) returns an error, mirroring
// Builder.Add.
func (m *Matrix) Upserted(ups []Upsert) (*Matrix, error) {
	if len(ups) == 0 {
		return m, nil
	}
	hasTimes := m.rowTimes != nil
	numUsers, numItems := m.numUsers, m.numItems
	for _, up := range ups {
		if up.User < 0 || up.Item < 0 {
			return nil, fmt.Errorf("ratings: negative id in upsert (%d,%d)", up.User, up.Item)
		}
		if math.IsNaN(up.Value) || math.IsInf(up.Value, 0) {
			return nil, fmt.Errorf("ratings: non-finite rating %v for (%d,%d)", up.Value, up.User, up.Item)
		}
		if up.Time != 0 {
			hasTimes = true
		}
		if up.User >= numUsers {
			numUsers = up.User + 1
		}
		if up.Item >= numItems {
			numItems = up.Item + 1
		}
	}

	oldTimes := m.rowTimes
	if hasTimes && oldTimes == nil {
		// One zeroed slab sliced per row, the layout Build gives rowTimes.
		slab := make([]int64, m.nnz)
		oldTimes = make([][]int64, m.numUsers)
		off := 0
		for u, row := range m.rows {
			oldTimes[u] = slab[off : off+len(row)]
			off += len(row)
		}
	}

	// Group updates by user, preserving batch order so last-wins
	// semantics match Builder dedup.
	perUser := make(map[int][]Upsert)
	changedItems := make(map[int]bool)
	for _, up := range ups {
		perUser[up.User] = append(perUser[up.User], up)
		changedItems[up.Item] = true
	}

	out := &Matrix{
		numUsers:  numUsers,
		numItems:  numItems,
		rows:      mathx.Resized(m.rows, numUsers),
		cols:      mathx.Resized(m.cols, numItems),
		userSum:   mathx.Resized(m.userSum, numUsers),
		userMean:  mathx.Resized(m.userMean, numUsers),
		itemMean:  mathx.Resized(m.itemMean, numItems),
		nnz:       m.nnz,
		minRating: m.minRating,
		maxRating: m.maxRating,
	}
	if hasTimes {
		out.rowTimes = mathx.Resized(oldTimes, numUsers)
	}

	// Rebuild changed rows by sorted merge of the old row and the user's
	// updates (sorted by item, last write per item wins).
	for u, list := range perUser {
		var oldRow []Entry
		var oldRowTimes []int64
		if u < m.numUsers {
			oldRow = m.rows[u]
			if hasTimes {
				oldRowTimes = oldTimes[u]
			}
		}
		newRow, newTimes := mergeRow(oldRow, oldRowTimes, list, hasTimes)
		out.rows[u] = newRow
		if hasTimes {
			out.rowTimes[u] = newTimes
		}
		var sum float64
		for _, e := range newRow {
			sum += e.Value
		}
		out.userSum[u] = sum
		out.userMean[u] = sum / float64(len(newRow))
		out.nnz += len(newRow) - len(oldRow)
	}

	// Rebuild changed columns: upsert each changed user's final value for
	// the item, keeping ascending user order.
	for i := range changedItems {
		var colUps []Entry
		for u, list := range perUser {
			// Final value for (u, i), if this user touched the item.
			touched := false
			var val float64
			for _, up := range list {
				if up.Item == i {
					touched, val = true, up.Value
				}
			}
			if touched {
				colUps = append(colUps, Entry{Index: int32(u), Value: val})
			}
		}
		sort.Slice(colUps, func(a, b int) bool { return colUps[a].Index < colUps[b].Index })
		var oldCol []Entry
		if i < m.numItems {
			oldCol = m.cols[i]
		}
		newCol := mergeCol(oldCol, colUps)
		out.cols[i] = newCol
		var sum float64
		for _, e := range newCol {
			sum += e.Value
		}
		out.itemMean[i] = sum / float64(len(newCol))
	}

	out.global = globalMean(out.userSum, out.nnz)
	return out, nil
}

// mergeRow merges a sorted row with a user's updates (batch order, last
// write per item wins) into a new sorted row, carrying timestamps along
// when the matrix stores them.
func mergeRow(oldRow []Entry, oldTimes []int64, ups []Upsert, hasTimes bool) ([]Entry, []int64) {
	// Collapse the updates to one (item → value, time) each, then sort.
	type cell struct {
		item int32
		val  float64
		ts   int64
	}
	last := make(map[int32]cell, len(ups))
	for _, up := range ups {
		last[int32(up.Item)] = cell{item: int32(up.Item), val: up.Value, ts: up.Time}
	}
	cells := make([]cell, 0, len(last))
	for _, c := range last {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].item < cells[b].item })

	row := make([]Entry, 0, len(oldRow)+len(cells))
	var times []int64
	if hasTimes {
		times = make([]int64, 0, len(oldRow)+len(cells))
	}
	i, j := 0, 0
	for i < len(oldRow) || j < len(cells) {
		switch {
		case j >= len(cells) || (i < len(oldRow) && oldRow[i].Index < cells[j].item):
			row = append(row, oldRow[i])
			if hasTimes {
				times = append(times, oldTimes[i])
			}
			i++
		case i >= len(oldRow) || cells[j].item < oldRow[i].Index:
			row = append(row, Entry{Index: cells[j].item, Value: cells[j].val})
			if hasTimes {
				times = append(times, cells[j].ts)
			}
			j++
		default: // update overwrites the existing cell
			row = append(row, Entry{Index: cells[j].item, Value: cells[j].val})
			if hasTimes {
				times = append(times, cells[j].ts)
			}
			i++
			j++
		}
	}
	return row, times
}

// mergeCol merges a sorted column with sorted per-user upserts.
func mergeCol(oldCol, ups []Entry) []Entry {
	col := make([]Entry, 0, len(oldCol)+len(ups))
	i, j := 0, 0
	for i < len(oldCol) || j < len(ups) {
		switch {
		case j >= len(ups) || (i < len(oldCol) && oldCol[i].Index < ups[j].Index):
			col = append(col, oldCol[i])
			i++
		case i >= len(oldCol) || ups[j].Index < oldCol[i].Index:
			col = append(col, ups[j])
			j++
		default:
			col = append(col, ups[j])
			i++
			j++
		}
	}
	return col
}
