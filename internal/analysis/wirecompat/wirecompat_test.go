package wirecompat_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfsf/internal/analysis/analysistest"
	"cfsf/internal/analysis/wirecompat"
)

func TestShapeChangeWithoutBump(t *testing.T) {
	analysistest.Run(t, "testdata", wirecompat.Analyzer, "wire")
}

func TestMissingGoldenEntry(t *testing.T) {
	analysistest.Run(t, "testdata", wirecompat.Analyzer, "wirenew")
}

func TestInSync(t *testing.T) {
	analysistest.Run(t, "testdata", wirecompat.Analyzer, "wireok")
}

// TestGoldenEntryWithoutAWireType: an entry whose type is gone is
// reported, in a package that still declares other wire types and in one
// that declares none.
func TestGoldenEntryWithoutAWireType(t *testing.T) {
	analysistest.Run(t, "testdata", wirecompat.Analyzer, "wirestale", "wiregone")
}

// TestUpdateDropsGoneEntries: -update-wire-golden drops an entry whose
// type is gone and deletes a golden it leaves empty, after which the
// normal mode is clean.
func TestUpdateDropsGoneEntries(t *testing.T) {
	for _, pkg := range []string{"wirestale", "wiregone"} {
		t.Run(pkg, func(t *testing.T) {
			tmp := copyFixture(t, pkg, map[string]string{`// want "records wire type`: `// was "records wire type`}, true)
			wirecompat.Update = true
			defer func() { wirecompat.Update = false }()
			analysistest.Run(t, tmp, wirecompat.Analyzer, pkg)
			wirecompat.Update = false
			data, err := os.ReadFile(filepath.Join(tmp, "src", pkg, wirecompat.GoldenFile))
			switch {
			case pkg == "wiregone" && !os.IsNotExist(err):
				t.Fatalf("update left the golden of a package with no wire type: %q, %v", data, err)
			case pkg == "wirestale" && (err != nil || strings.Contains(string(data), "legacy") || !strings.Contains(string(data), "record")):
				t.Fatalf("update wrote %q, %v; want the record entry alone", data, err)
			}
			analysistest.Run(t, tmp, wirecompat.Analyzer, pkg)
		})
	}
}

// TestVersionRevertFails is the negative test the contract demands:
// take the in-sync fixture and delete its version bump — the analyzer
// must fail.
func TestVersionRevertFails(t *testing.T) {
	tmp := copyFixture(t, "wireok", map[string]string{
		"recVersion = 2": `recVersion = 1 // want "golden records version 2"`,
	}, true)
	analysistest.Run(t, tmp, wirecompat.Analyzer, "wireok")
}

// TestUpdateWritesGolden checks the -update-wire-golden round trip: an
// unrecorded package gets a golden written, after which the normal mode
// is clean.
func TestUpdateWritesGolden(t *testing.T) {
	tmp := copyFixture(t, "wireok", nil, false)
	wirecompat.Update = true
	defer func() { wirecompat.Update = false }()
	analysistest.Run(t, tmp, wirecompat.Analyzer, "wireok")
	wirecompat.Update = false
	if _, err := os.Stat(filepath.Join(tmp, "src", "wireok", wirecompat.GoldenFile)); err != nil {
		t.Fatalf("update did not write the golden: %v", err)
	}
	analysistest.Run(t, tmp, wirecompat.Analyzer, "wireok")
}

// TestRegenerateFixtureGoldens rewrites the in-sync fixture's golden
// from source. Run it after deliberately evolving the fixture:
//
//	WIRECOMPAT_REGEN=1 go test ./internal/analysis/wirecompat/ -run Regenerate
func TestRegenerateFixtureGoldens(t *testing.T) {
	if os.Getenv("WIRECOMPAT_REGEN") == "" {
		t.Skip("set WIRECOMPAT_REGEN=1 to rewrite fixture goldens")
	}
	wirecompat.Update = true
	defer func() { wirecompat.Update = false }()
	analysistest.Run(t, "testdata", wirecompat.Analyzer, "wireok")
}

// copyFixture clones testdata/src/<name> into a temp tree, applying
// replacements to .go files; withGolden controls whether the golden
// comes along.
func copyFixture(t *testing.T, name string, replace map[string]string, withGolden bool) string {
	t.Helper()
	tmp := t.TempDir()
	srcDir := filepath.Join("testdata", "src", name)
	dstDir := filepath.Join(tmp, "src", name)
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if e.Name() == wirecompat.GoldenFile && !withGolden {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(e.Name(), ".go") {
			s := string(data)
			for old, new := range replace {
				if !strings.Contains(s, old) {
					t.Fatalf("fixture %s does not contain %q", e.Name(), old)
				}
				s = strings.ReplaceAll(s, old, new)
			}
			data = []byte(s)
		}
		if err := os.WriteFile(filepath.Join(dstDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return tmp
}
