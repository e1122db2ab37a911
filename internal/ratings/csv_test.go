package ratings

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadRatingsCSVWithHeader(t *testing.T) {
	in := "userId,movieId,rating,timestamp\n" +
		"1,10,4.0,964982703\n" +
		"1,20,3.5,964981247\n" +
		"2,10,5,964982224\n"
	m, err := ReadRatingsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumUsers() != 2 || m.NumItems() != 2 || m.NumRatings() != 3 {
		t.Fatalf("dims %d×%d/%d, want 2×2/3", m.NumUsers(), m.NumItems(), m.NumRatings())
	}
	if r, ok := m.Rating(0, 1); !ok || r != 3.5 {
		t.Errorf("half-star rating = %g,%v, want 3.5", r, ok)
	}
}

func TestReadRatingsCSVWithoutHeader(t *testing.T) {
	in := "1,10,4\n2,10,5\n"
	m, err := ReadRatingsCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRatings() != 2 {
		t.Errorf("ratings = %d, want 2", m.NumRatings())
	}
}

func TestReadRatingsCSVErrors(t *testing.T) {
	if _, err := ReadRatingsCSV(strings.NewReader("1,2\n")); err == nil {
		t.Error("short row must error")
	}
	// Bad rating on a non-header line.
	if _, err := ReadRatingsCSV(strings.NewReader("1,10,4\n2,10,xyz\n")); err == nil {
		t.Error("bad rating after header must error")
	}
}

func TestRatingsCSVRoundTrip(t *testing.T) {
	b := NewBuilder(3, 4)
	b.MustAdd(0, 0, 4)
	b.MustAdd(1, 2, 3.5)
	b.MustAdd(2, 3, 1)
	orig := b.Build()
	var buf bytes.Buffer
	if err := WriteRatingsCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "userId,movieId,rating,timestamp") {
		t.Error("missing header row")
	}
	back, err := ReadRatingsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRatings() != orig.NumRatings() {
		t.Errorf("round trip ratings %d, want %d", back.NumRatings(), orig.NumRatings())
	}
	if r, ok := back.Rating(1, 1); !ok || r != 3.5 {
		t.Errorf("fractional value lost: %g,%v", r, ok)
	}
}

func TestReadAutoDispatch(t *testing.T) {
	dir := t.TempDir()
	b := NewBuilder(2, 2)
	b.MustAdd(0, 0, 4)
	b.MustAdd(1, 1, 2)
	m := b.Build()

	csvPath := filepath.Join(dir, "ratings.csv")
	if err := WriteRatingsCSVFile(csvPath, m); err != nil {
		t.Fatal(err)
	}
	udataPath := filepath.Join(dir, "u.data")
	if err := WriteUDataFile(udataPath, m); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{csvPath, udataPath} {
		got, err := ReadAuto(path)
		if err != nil {
			t.Fatalf("ReadAuto(%s): %v", path, err)
		}
		if got.NumRatings() != 2 {
			t.Errorf("ReadAuto(%s) ratings = %d, want 2", path, got.NumRatings())
		}
	}
	if _, err := ReadAuto(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file must error")
	}
}

// TestReadersWidenTheScale: a file holding values off the default 1..5
// scale — MovieLens half stars from 0.5, a 0..10 file — builds a matrix on
// a scale covering every value, in both readers; a file on 1..5, or on a
// narrower range, keeps 1..5.
func TestReadersWidenTheScale(t *testing.T) {
	for _, tc := range []struct {
		name     string
		values   []string
		min, max float64
	}{
		{"half stars", []string{"0.5", "3", "5"}, 0.5, 5},
		{"zero to ten", []string{"0", "7", "10"}, 0, 10},
		{"the default scale", []string{"1", "5"}, 1, 5},
		{"a narrower range", []string{"2", "3"}, 1, 5},
	} {
		var csvIn, udata strings.Builder
		for k, v := range tc.values {
			fmt.Fprintf(&csvIn, "%d,%d,%s\n", k+1, 10+k, v)
			fmt.Fprintf(&udata, "%d\t%d\t%s\t0\n", k+1, 10+k, v)
		}
		for reader, read := range map[string]func() (*Matrix, error){
			"ReadRatingsCSV": func() (*Matrix, error) { return ReadRatingsCSV(strings.NewReader(csvIn.String())) },
			"ReadUData":      func() (*Matrix, error) { return ReadUData(strings.NewReader(udata.String())) },
		} {
			m, err := read()
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, reader, err)
			}
			if m.MinRating() != tc.min || m.MaxRating() != tc.max {
				t.Errorf("%s, %s: scale %g..%g, want %g..%g", tc.name, reader, m.MinRating(), m.MaxRating(), tc.min, tc.max)
			}
		}
	}
}
