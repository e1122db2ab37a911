package ratings

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadUData checks that arbitrary input never panics the parser, that
// it parses exactly as the string parser it replaced does (readUDataRef:
// the same matrix or the same error text), and that whatever parses is
// written as fmt.Fprintf would write it and round-trips through
// WriteUData.
func FuzzReadUData(f *testing.F) {
	f.Add("1\t10\t4\t881250949\n")
	f.Add("1 10 4\n2 10 5\n")
	f.Add("# comment\n\n3\t30\t1\n")
	f.Add("a\tb\tc\n")
	f.Add("1\t2\t3.5\t0\n1\t2\t4\t0\n") // duplicate cell
	f.Add(strings.Repeat("9\t9\t5\t0\n", 50))
	f.Add("1 2\t3\r\n #x\n1 2 3 4 5\n")
	f.Add("1\t2\tNaN\n3\t4\tx\n")
	f.Add("1\t2\t3\t-7\n1\t2\t3\tz\n")

	f.Fuzz(func(t *testing.T, input string) {
		requireSameRead(t, input)
		m, err := ReadUData(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		var got, want bytes.Buffer
		if err := WriteUData(&got, m); err != nil {
			t.Fatalf("write parsed matrix: %v", err)
		}
		if err := writeUDataRef(&want, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteUData wrote %q, fmt.Fprintf writes %q", got.Bytes(), want.Bytes())
		}
		back, err := ReadUData(&got)
		if err != nil {
			t.Fatalf("re-read written matrix: %v", err)
		}
		if back.NumRatings() != m.NumRatings() {
			t.Fatalf("round trip lost ratings: %d -> %d", m.NumRatings(), back.NumRatings())
		}
	})
}
