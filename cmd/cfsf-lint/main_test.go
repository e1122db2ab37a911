package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// violatingModule writes a throwaway module with one walerr violation
// (a silently discarded Sync on a write handle) and returns its root.
func violatingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module lintfixture\n\ngo 1.21\n")
	writeFile(t, filepath.Join(dir, "main.go"), `package main

import "os"

func main() {
	f, err := os.Create("out.txt")
	if err != nil {
		return
	}
	f.Sync()
	_ = f.Close()
}
`)
	return dir
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCleanAtHead(t *testing.T) {
	// The repo's own invariant: cfsf-lint reports nothing on HEAD. This
	// is the same gate CI applies.
	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, "../..", &stdout, &stderr)
	if code != 0 {
		t.Fatalf("cfsf-lint on HEAD: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("cfsf-lint on HEAD printed findings:\n%s", stdout.String())
	}
}

func TestViolationExitsNonZero(t *testing.T) {
	dir := violatingModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, dir, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "Sync is silently discarded") {
		t.Fatalf("missing walerr finding in output:\n%s", stdout.String())
	}
}

func TestBadFlagExitsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, "../..", &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestSARIFOutput(t *testing.T) {
	dir := violatingModule(t)
	sarifFile := filepath.Join(t.TempDir(), "findings.sarif")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sarif", sarifFile, "./..."}, dir, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, stderr.String())
	}

	data, err := os.ReadFile(sarifFile)
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v\n%s", err, data)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q, want 2.1.0", log.Version)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	rules := log.Runs[0].Tool.Driver.Rules
	if len(rules) != len(analyzers) {
		t.Errorf("got %d rules, want one per analyzer (%d)", len(rules), len(analyzers))
	}
	results := log.Runs[0].Results
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1: %+v", len(results), results)
	}
	r := results[0]
	if r.RuleID != "walerr" {
		t.Errorf("ruleId = %q, want walerr", r.RuleID)
	}
	if r.Level != "error" {
		t.Errorf("level = %q, want error", r.Level)
	}
	if len(r.Locations) != 1 {
		t.Fatalf("got %d locations, want 1", len(r.Locations))
	}
	loc := r.Locations[0].PhysicalLocation
	if filepath.Base(loc.ArtifactLocation.URI) != "main.go" || strings.Contains(loc.ArtifactLocation.URI, "\\") {
		t.Errorf("artifact URI = %q, want a slashed path to main.go", loc.ArtifactLocation.URI)
	}
	if loc.Region == nil || loc.Region.StartLine == 0 {
		t.Errorf("region = %+v, want a start line", loc.Region)
	}
}

func TestEnableDisable(t *testing.T) {
	dir := violatingModule(t)

	// Disabling the only analyzer with a finding makes the run clean.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-disable", "walerr", "./..."}, dir, &stdout, &stderr); code != 0 {
		t.Fatalf("-disable walerr exit = %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	// Enabling only an unrelated analyzer skips walerr too.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-enable", "lockcheck", "./..."}, dir, &stdout, &stderr); code != 0 {
		t.Fatalf("-enable lockcheck exit = %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	// Enabling walerr explicitly still reports it.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-enable", "walerr", "./..."}, dir, &stdout, &stderr); code != 1 {
		t.Fatalf("-enable walerr exit = %d, want 1", code)
	}

	// Typos cannot silently skip a gate, and neither can the name of an
	// analyzer that is no longer registered.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-disable", "wallerr", "./..."}, dir, &stdout, &stderr); code != 2 {
		t.Fatalf("-disable with unknown name exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "wallerr"`) {
		t.Fatalf("missing unknown-analyzer error:\n%s", stderr.String())
	}
	for _, gone := range []string{"cowcheck", "atomiccheck", "poolescape", "nondeterm"} {
		stdout.Reset()
		stderr.Reset()
		if code := run([]string{"-enable", gone, "./..."}, dir, &stdout, &stderr); code != 2 {
			t.Fatalf("-enable %s exit = %d, want 2", gone, code)
		}
	}

	// Enabling and disabling the same set leaves nothing to run.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-enable", "walerr", "-disable", "walerr", "./..."}, dir, &stdout, &stderr); code != 2 {
		t.Fatalf("empty selection exit = %d, want 2", code)
	}
}

// TestEveryAnalyzerHasFixtures is the registry meta-test: each analyzer
// wired into the driver must carry at least one analysistest fixture
// package, so a new analyzer cannot land untested.
func TestEveryAnalyzerHasFixtures(t *testing.T) {
	for _, a := range analyzers {
		fixtures := filepath.Join("..", "..", "internal", "analysis", a.Name, "testdata", "src")
		entries, err := os.ReadDir(fixtures)
		if err != nil {
			t.Errorf("analyzer %s: no fixture directory: %v", a.Name, err)
			continue
		}
		var pkgs int
		for _, e := range entries {
			if e.IsDir() {
				pkgs++
			}
		}
		if pkgs == 0 {
			t.Errorf("analyzer %s: %s has no fixture packages", a.Name, fixtures)
		}
	}
}
