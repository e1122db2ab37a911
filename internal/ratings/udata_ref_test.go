package ratings

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// readUDataRef is ReadUData as it was before it parsed Scanner.Bytes():
// a string per line, strings.TrimSpace and strings.Fields, each record
// buffered and then added to a Builder. ReadUData must agree with it on
// every input — the same matrix, or the same error text.
func readUDataRef(r io.Reader) (*Matrix, error) {
	type rec struct {
		user, item int
		value      float64
		ts         int64
		hasTS      bool
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

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("ratings: line %d: want at least 3 fields, got %d", line, len(fields))
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("ratings: line %d: bad rating %q: %v", line, fields[2], err)
		}
		r := rec{
			user:  intern(userIDs, fields[0]),
			item:  intern(itemIDs, fields[1]),
			value: v,
		}
		if len(fields) >= 4 {
			if ts, err := strconv.ParseInt(fields[3], 10, 64); err == nil {
				r.ts, r.hasTS = ts, true
			}
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ratings: scan: %w", err)
	}
	b := NewBuilder(len(userIDs), len(itemIDs))
	anyTS := false
	for _, r := range recs {
		if r.hasTS && r.ts != 0 {
			anyTS = true
			break
		}
	}
	for _, r := range recs {
		var err error
		if anyTS {
			err = b.AddWithTime(r.user, r.item, r.value, r.ts)
		} else {
			err = b.Add(r.user, r.item, r.value)
		}
		if err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// sortedRef is Builder.sorted as it was before the counting sort: one
// sort.SliceStable over every triple by (user, item), then the same
// last-wins cut.
func (b *Builder) sortedRef() []triple {
	ts := make([]triple, len(b.triples))
	copy(ts, b.triples)
	sort.SliceStable(ts, func(i, j int) bool {
		if ts[i].user != ts[j].user {
			return ts[i].user < ts[j].user
		}
		return ts[i].item < ts[j].item
	})
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

// writeUDataRef is WriteUData as it was before strconv.Append*: one
// fmt.Fprintf per rating.
func writeUDataRef(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	for u := 0; u < m.NumUsers(); u++ {
		times := m.UserRatingTimes(u)
		for k, e := range m.UserRatings(u) {
			var ts int64
			if times != nil {
				ts = times[k]
			}
			if _, err := fmt.Fprintf(bw, "%d\t%d\t%g\t%d\n", u+1, e.Index+1, e.Value, ts); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// requireSameRead reads input with ReadUData and with readUDataRef and
// demands the same matrix or the same error text.
func requireSameRead(t *testing.T, input string) {
	t.Helper()
	want, wantErr := readUDataRef(strings.NewReader(input))
	got, gotErr := ReadUData(strings.NewReader(input))
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("input %q: error %v, reference %v", input, gotErr, wantErr)
	}
	if wantErr == nil {
		requireSameMatrix(t, want, got)
	}
}

func TestReadUDataMatchesStringParser(t *testing.T) {
	inputs := []string{
		"",
		"1\t10\t4\t881250949\n1\t20\t3\t881250950\n2\t10\t5\t881250951\n",
		"1 10 4\n2 10 5\n",                                 // no timestamps
		"1\t10\t4\t0\n2\t10\t5\t0\n",                       // zero timestamps: untimed
		"1\t10\t4\t7\n2\t10\t5\n3\t11\t2\tnope\n",          // timed, with a missing and an unparsable one
		"1\t10\t4\r\n2\t10\t5\t9\r\n",                      // CRLF
		"# header\n\n   \n\t# indented comment\n1\t2\t3\n", // comments and blank lines
		"#1\t2\t3\n1\t2\t3\n",                              // '#' glued to a field
		"1\t2\t3\t4\textra\tfields\n",
		"01\t2\t3\n1\t2\t4\n",             // "01" and "1" are two users
		"1\t2\t3.5\t0\n1\t2\t4\t0\n",      // duplicate cell: the last wins
		"1\t2\t3\t10\n1\t2\t4\t5\n",       // duplicate cell: its timestamp with it
		"\v1\f2\t3\x20\x20\t4\n",          // every ASCII space
		"1\u00a02\u00a03\n",               // NBSP splits a field
		"1\u20032\u20033\u20034\n",        // em space
		"\u0085 1 2 3\n",                  // NEL leads the line
		"1 2 3 \u00e9\n",                  // non-space non-ASCII in the timestamp
		"\xff 1 2\n",                      // invalid UTF-8 is a field
		"1\t2\n",                          // two fields
		"1\t2\t3\n4\t5\n",                 // short second line
		"1\t2\tabc\t0\n",                  // bad rating
		"1\t2\t\u00e9\n",                  // non-ASCII bad rating
		"1\t2\t1e999\n",                   // out of range
		"1\t2\tNaN\n",                     // non-finite, reported at Build
		"1\t2\tInf\n3\t4\tfoo\n",          // a later bad line wins over an earlier NaN
		"1\t2\t+Inf\n3\t4\t-Inf\n",        // the first non-finite is named
		"1\t2\t3\t99999999999999999999\n", // timestamp overflow: ignored
		strings.Repeat("9\t9\t5\t0\n", 50),
		strings.Repeat("x", 70000) + "\t1\t2\n", // a line past the initial buffer
		strings.Repeat("x", 1<<20+1) + "\n",     // a line past the scanner's limit
	}
	for _, in := range inputs {
		requireSameRead(t, in)
	}
}

func TestBuildMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		users, items := 1+rng.Intn(20), 1+rng.Intn(30)
		b := NewBuilder(users, items)
		for k, n := 0, rng.Intn(400); k < n; k++ {
			// Few users and items: most cells are written several times.
			u, i := rng.Intn(users), rng.Intn(items)
			v := float64(rng.Intn(9)+1) / 2
			if rng.Intn(3) == 0 {
				b.MustAdd(u, i, v)
			} else if err := b.AddWithTime(u, i, v, int64(k)); err != nil {
				t.Fatal(err)
			}
		}
		want, got := b.sortedRef(), b.sorted()
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d triples, reference %d", trial, len(got), len(want))
		}
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("trial %d: triple %d = %+v, reference %+v", trial, k, got[k], want[k])
			}
		}
	}
}

func TestWriteUDataMatchesFprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	values := []float64{1, 2.5, 3.25, 0.1, 1e-7, 1e21, 123456789, -4, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1.0 / 3}
	for _, timed := range []bool{false, true} {
		b := NewBuilder(7, 40)
		for k := 0; k < 200; k++ {
			v := values[rng.Intn(len(values))]
			if timed {
				if err := b.AddWithTime(rng.Intn(7), rng.Intn(40), v, rng.Int63()-rng.Int63()); err != nil {
					t.Fatal(err)
				}
			} else {
				b.MustAdd(rng.Intn(7), rng.Intn(40), v)
			}
		}
		m := b.Build()
		var want, got bytes.Buffer
		if err := writeUDataRef(&want, m); err != nil {
			t.Fatal(err)
		}
		if err := WriteUData(&got, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("timed=%v: WriteUData wrote\n%s\nfmt.Fprintf writes\n%s", timed, got.Bytes(), want.Bytes())
		}
	}
}
