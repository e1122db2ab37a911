package ratings

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ReadUData parses the MovieLens u.data tab-separated format:
//
//	user_id \t item_id \t rating \t timestamp
//
// Ids in the file are 1-based (as GroupLens ships them) and are remapped
// to dense 0-based ids in first-seen order. The timestamp column is
// optional; when present it is stored on the matrix (see HasTimes).
// Blank lines and lines starting with '#' are skipped. A line is split at
// Unicode white space, as strings.Fields splits it; a malformed line is
// reported before any non-finite rating, wherever in the file either is.
func ReadUData(r io.Reader) (*Matrix, error) {
	var ts []triple
	userIDs := map[string]int32{}
	itemIDs := map[string]int32{}
	intern := func(ids map[string]int32, k []byte) int32 {
		if id, ok := ids[string(k)]; ok {
			return id
		}
		id := int32(len(ids))
		ids[string(k)] = id
		return id
	}
	anyTS := false
	var nonFinite error

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var fields [4][]byte
	line := 0
	for sc.Scan() {
		line++
		n := splitFields(sc.Bytes(), &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		if n < 3 {
			return nil, fmt.Errorf("ratings: line %d: want at least 3 fields, got %d", line, n)
		}
		v, err := strconv.ParseFloat(string(fields[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("ratings: line %d: bad rating %q: %v", line, fields[2], err)
		}
		t := triple{user: intern(userIDs, fields[0]), item: intern(itemIDs, fields[1]), value: v}
		if n >= 4 {
			if x, err := strconv.ParseInt(string(fields[3]), 10, 64); err == nil {
				t.ts, anyTS = x, anyTS || x != 0
			}
		}
		if nonFinite == nil {
			nonFinite = checkFinite(int(t.user), int(t.item), v)
		}
		ts = append(ts, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ratings: scan: %w", err)
	}
	if nonFinite != nil {
		return nil, nonFinite
	}
	// Timestamps are kept only when some rating carries a nonzero one;
	// the others then carry 0.
	b := NewBuilder(len(userIDs), len(itemIDs))
	b.triples, b.anyTimes = ts, anyTS
	return b.Build(), nil
}

// splitFields stores the first len(fields) white-space-separated fields of
// line in fields, aliasing line, and returns how many fields it holds.
// ASCII is split here; a line with any other byte goes to strings.Fields.
func splitFields(line []byte, fields *[4][]byte) int {
	if !isASCII(line) {
		all := strings.Fields(string(line))
		for k := 0; k < len(all) && k < len(fields); k++ {
			fields[k] = []byte(all[k])
		}
		return len(all)
	}
	n := 0
	for i := 0; i < len(line); {
		for i < len(line) && isSpace(line[i]) {
			i++
		}
		j := i
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		if j == i {
			break
		}
		if n < len(fields) {
			fields[n] = line[i:j]
		}
		n++
		i = j
	}
	return n
}

func isASCII(b []byte) bool {
	for _, c := range b {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// isSpace is unicode.IsSpace on an ASCII byte.
func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// ReadUDataFile opens path and parses it with ReadUData.
func ReadUDataFile(path string) (*Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadUData(f)
}

// WriteUData writes the matrix in u.data format with 1-based ids, so
// generated datasets round-trip through ReadUData and load into tools
// that expect the GroupLens layout. Stored timestamps are written;
// matrices without timestamps emit 0.
func WriteUData(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for u := 0; u < m.NumUsers(); u++ {
		times := m.UserRatingTimes(u)
		for k, e := range m.UserRatings(u) {
			var ts int64
			if times != nil {
				ts = times[k]
			}
			// The bytes fmt's "%d\t%d\t%g\t%d\n" would write.
			line = strconv.AppendInt(line[:0], int64(u+1), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(e.Index+1), 10)
			line = append(line, '\t')
			line = strconv.AppendFloat(line, e.Value, 'g', -1, 64)
			line = append(line, '\t')
			line = strconv.AppendInt(line, ts, 10)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteUDataFile creates path and writes the matrix with WriteUData.
func WriteUDataFile(path string, m *Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteUData(f, m); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
