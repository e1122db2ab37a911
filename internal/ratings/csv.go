package ratings

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadRatingsCSV parses the modern MovieLens ratings.csv layout:
//
//	userId,movieId,rating,timestamp
//
// A header row is detected and skipped automatically. Ids are remapped
// to dense 0-based ids in first-seen order, as in ReadUData; the
// timestamp column is optional and ignored. The matrix's scale is 1..5,
// widened to cover every value read (MovieLens half stars: 0.5..5).
func ReadRatingsCSV(r io.Reader) (*Matrix, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually: 3 or 4 columns
	cr.TrimLeadingSpace = true

	type rec struct {
		user, item int
		value      float64
	}
	var recs []rec
	userIDs := map[string]int{}
	itemIDs := map[string]int{}
	intern := func(m map[string]int, k string) int {
		if id, ok := m[k]; ok {
			return id
		}
		id := len(m)
		m[k] = id
		return id
	}

	line := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ratings: csv: %w", err)
		}
		line++
		if len(row) == 1 && strings.TrimSpace(row[0]) == "" {
			continue
		}
		if len(row) < 3 {
			return nil, fmt.Errorf("ratings: csv line %d: want at least 3 columns, got %d", line, len(row))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(row[2]), 64)
		if err != nil {
			if line == 1 {
				continue // header row ("userId,movieId,rating,...")
			}
			return nil, fmt.Errorf("ratings: csv line %d: bad rating %q: %v", line, row[2], err)
		}
		recs = append(recs, rec{
			user:  intern(userIDs, strings.TrimSpace(row[0])),
			item:  intern(itemIDs, strings.TrimSpace(row[1])),
			value: v,
		})
	}
	b := NewBuilder(len(userIDs), len(itemIDs))
	for _, r := range recs {
		if err := b.Add(r.user, r.item, r.value); err != nil {
			return nil, err
		}
	}
	b.widenScale()
	return b.Build(), nil
}

// ReadRatingsCSVFile opens path and parses it with ReadRatingsCSV.
func ReadRatingsCSVFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadRatingsCSV(f)
}

// WriteRatingsCSV writes the matrix in ratings.csv format with a header
// row, 1-based ids and a zero timestamp.
func WriteRatingsCSV(w io.Writer, m *Matrix) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"userId", "movieId", "rating", "timestamp"}); err != nil {
		return err
	}
	for u := 0; u < m.NumUsers(); u++ {
		for _, e := range m.UserRatings(u) {
			rec := []string{
				strconv.Itoa(u + 1),
				strconv.Itoa(int(e.Index) + 1),
				strconv.FormatFloat(e.Value, 'g', -1, 64),
				"0",
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteRatingsCSVFile creates path and writes the matrix as CSV.
func WriteRatingsCSVFile(path string, m *Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteRatingsCSV(f, m); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadAuto loads a ratings file, dispatching on the extension: ".csv"
// uses ReadRatingsCSV, everything else the u.data tab format.
func ReadAuto(path string) (*Matrix, error) {
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		return ReadRatingsCSVFile(path)
	}
	return ReadUDataFile(path)
}
