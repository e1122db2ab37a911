package analysis

// The scheduler. Packages are analyzed in dependency order — a package
// runs only after every package it imports (within the loaded set) has
// run and sealed its facts — and independent packages run in parallel.
// Within one package, analyzers run sequentially and share the
// annotation index.

import (
	"fmt"
	"runtime"
	"sync"
)

// RunOptions configures one RunAnalyzers invocation.
type RunOptions struct {
	// Filter decides per (analyzer, package path); nil runs every
	// analyzer on every package.
	Filter func(a *Analyzer, pkgPath string) bool
	// Workers bounds concurrent package passes: 1 is sequential (in
	// dependency order), <= 0 selects GOMAXPROCS.
	Workers int
}

// Program is the whole-run view handed to Finish hooks after every
// package pass has completed.
type Program struct {
	store *FactStore
}

// PackageFacts returns every sealed fact the named analyzer exported,
// across all analyzed packages, in deterministic order.
func (prog *Program) PackageFacts(analyzer string) ([]ProgramFact, error) {
	return prog.store.packageFacts(analyzer)
}

// RunAnalyzers applies every analyzer to every package in dependency
// order and returns the combined diagnostics sorted by position,
// including any produced by Finish hooks.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, error) {
	if err := RegisterFactTypes(analyzers); err != nil {
		return nil, err
	}
	store := NewFactStore()

	// Dependency edges within the loaded set, by import path. The
	// imports recorded during type checking are export-data packages;
	// their paths match the source-loaded targets'.
	index := make(map[string]int, len(pkgs))
	for i, p := range pkgs {
		index[p.Path] = i
	}
	indeg := make([]int, len(pkgs))
	dependents := make([][]int, len(pkgs))
	for i, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			if j, ok := index[imp.Path()]; ok && j != i {
				indeg[i]++
				dependents[j] = append(dependents[j], i)
			}
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkgs) && len(pkgs) > 0 {
		workers = len(pkgs)
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ready    []int // indices with indeg 0, not yet claimed
		done     int
		firstErr error
		perPkg   = make([][]Diagnostic, len(pkgs))
	)
	for i := range pkgs {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}

	runPkg := func(i int) ([]Diagnostic, error) {
		pkg := pkgs[i]
		var diags []Diagnostic
		var ann *Annotations
		for _, a := range analyzers {
			if opts.Filter != nil && !opts.Filter(a, pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				ann:      ann,
				store:    store,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
			// Share the per-package annotation index.
			ann = pass.Annotations()
		}
		if err := store.Seal(pkg.Path); err != nil {
			return nil, err
		}
		return diags, nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && done < len(pkgs) && firstErr == nil {
					cond.Wait()
				}
				if firstErr != nil || done >= len(pkgs) {
					mu.Unlock()
					return
				}
				i := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				mu.Unlock()

				diags, err := runPkg(i)

				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				perPkg[i] = diags
				done++
				for _, d := range dependents[i] {
					indeg[d]--
					if indeg[d] == 0 {
						ready = append(ready, d)
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	prog := &Program{store: store}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		diags = append(diags, a.Finish(prog)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}
