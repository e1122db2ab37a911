// Command cfsf-lint runs the repo's invariant analyzers (see
// internal/analysis) over go-list package patterns and reports findings.
//
// Usage:
//
//	cfsf-lint [-sarif file] [-enable list] [-disable list] [-parallel n]
//	          [-update-wire-golden] [patterns...]
//
// Patterns default to ./... . Exit status: 0 when clean, 1 when findings
// remain, 2 on usage or load errors.
//
// Packages are analyzed in dependency order with cross-package facts
// (function and field summaries) flowing from imports to importers, on
// -parallel workers (0 = one per CPU). -enable/-disable take
// comma-separated analyzer names; -sarif writes the findings as SARIF
// 2.1.0 for code-scanning upload alongside the normal output.
//
// Scoping: mapiterfloat polices the crash-replay guarantee, so it runs
// only on replay-path packages (core, smoothing, similarity, cluster,
// wal, lifecycle) — the serving layer may iterate maps freely. All other
// analyzers run everywhere. Clock reads, seeds and select order on the
// replay path have no analyzer: TestKMeansDeterministic and
// TestRetrainIsReplayed catch them. Pooled scratch has none either: the
// pools' put functions check it under the race detector.
//
// There is no baseline: HEAD lints clean, and a finding is fixed or
// suppressed in place by a //cfsf:* annotation with a justification
// string.
//
// -update-wire-golden rewrites each package's wire_golden.json from the
// current source instead of checking against it; review the diff.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cfsf/internal/analysis"
	"cfsf/internal/analysis/lockcheck"
	"cfsf/internal/analysis/lockorder"
	"cfsf/internal/analysis/mapiterfloat"
	"cfsf/internal/analysis/walerr"
	"cfsf/internal/analysis/wirecompat"
)

func main() {
	os.Exit(run(os.Args[1:], "", os.Stdout, os.Stderr))
}

// replayPackages are the packages on the WAL-replay path: recovery
// replays journaled micro-batches through them and must reproduce the
// serving model bit for bit.
var replayPackages = map[string]bool{
	"cfsf/internal/core":       true,
	"cfsf/internal/smoothing":  true,
	"cfsf/internal/similarity": true,
	"cfsf/internal/cluster":    true,
	"cfsf/internal/wal":        true,
	"cfsf/internal/lifecycle":  true,
}

// replayOnly names the analyzers scoped to replayPackages: the one whose
// findings matter only where WAL replay must reproduce state.
var replayOnly = map[string]bool{
	"mapiterfloat": true,
}

var analyzers = []*analysis.Analyzer{
	lockcheck.Analyzer,
	lockorder.Analyzer,
	mapiterfloat.Analyzer,
	walerr.Analyzer,
	wirecompat.Analyzer,
}

// run is the driver body, factored from main for testing. dir is the
// directory go list runs in ("" = current).
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cfsf-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	enable := fs.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := fs.String("disable", "", "comma-separated analyzers to skip")
	parallel := fs.Int("parallel", 0, "package-analysis workers (0 = one per CPU, 1 = sequential)")
	updateWire := fs.Bool("update-wire-golden", false, "rewrite wire_golden.json files from current source instead of checking")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cfsf-lint [flags] [patterns...]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	active, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(stderr, "cfsf-lint:", err)
		return 2
	}
	wirecompat.Update = *updateWire

	pkgs, err := analysis.LoadPackages(dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags, err := analysis.RunAnalyzers(pkgs, active, analysis.RunOptions{
		Workers: *parallel,
		Filter: func(a *analysis.Analyzer, pkgPath string) bool {
			return !replayOnly[a.Name] || replayPackages[pkgPath]
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, active, diags); err != nil {
			fmt.Fprintln(stderr, "cfsf-lint: sarif:", err)
			return 2
		}
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cfsf-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers applies -enable/-disable, rejecting unknown names so
// a typo cannot silently skip a gate.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	parse := func(list string) (map[string]bool, error) {
		set := map[string]bool{}
		if list == "" {
			return set, nil
		}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q", name)
			}
			set[name] = true
		}
		return set, nil
	}
	on, err := parse(enable)
	if err != nil {
		return nil, err
	}
	off, err := parse(disable)
	if err != nil {
		return nil, err
	}
	var active []*analysis.Analyzer
	for _, a := range analyzers {
		if len(on) > 0 && !on[a.Name] {
			continue
		}
		if off[a.Name] {
			continue
		}
		active = append(active, a)
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("flag selection leaves no analyzers enabled")
	}
	return active, nil
}
