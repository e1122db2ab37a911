package ratings

// Timestamp support. Timestamps are optional: matrices built without
// them carry none (HasTimes reports false) and all time accessors return
// zero. When present they align one-to-one with the row entries. They are
// data the model carries, persists and splits on (MLSplitByTime); no
// Eq. 5–14 weight reads them.

// AddWithTime records a rating with a unix timestamp. Mixing Add and
// AddWithTime is allowed; untimed ratings carry timestamp 0. Duplicate
// cells keep the latest value together with that value's timestamp.
func (b *Builder) AddWithTime(user, item int, value float64, ts int64) error {
	if err := b.Add(user, item, value); err != nil {
		return err
	}
	b.triples[len(b.triples)-1].ts = ts
	b.anyTimes = true
	return nil
}

// HasTimes reports whether any rating carries a timestamp.
func (m *Matrix) HasTimes() bool { return m.rowTimes != nil }

// RatingTime returns the timestamp of the (u, i) rating; ok is false
// when the rating does not exist. An existing rating without a recorded
// timestamp returns 0, true.
func (m *Matrix) RatingTime(u, i int) (ts int64, ok bool) {
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
	if lo >= len(row) || int(row[lo].Index) != i {
		return 0, false
	}
	if m.rowTimes == nil {
		return 0, true
	}
	return m.rowTimes[u][lo], true
}

// UserRatingTimes returns the timestamps aligned with UserRatings(u), or
// nil when the matrix carries no timestamps. The slice is shared and
// must not be modified.
func (m *Matrix) UserRatingTimes(u int) []int64 {
	if m.rowTimes == nil {
		return nil
	}
	return m.rowTimes[u]
}
