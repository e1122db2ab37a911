// Package published exercises lockcheck's immutable-field writes on
// values shared through an atomic pointer and inside closures.
package published

import "sync/atomic"

// Config is plain data.
type Config struct {
	Alpha float64
}

// Model is copy-on-write: published values are never mutated.
type Model struct {
	cfg Config    //cfsf:immutable
	gis []float64 //cfsf:immutable
}

// live is the publication point: a Model stored here is shared.
var live atomic.Pointer[Model]

// mutateLoaded writes the live value handed back by Load: flagged.
func mutateLoaded() {
	m := live.Load()
	m.gis = nil // want "write to immutable field Model.gis of a published value"
}

// mutateLoadedInline writes through the Load call directly: flagged.
func mutateLoadedInline() {
	live.Load().gis = nil // want "write to immutable field Model.gis of a published value"
}

// run stands in for parallel.For: it invokes the closure synchronously.
func run(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

// fillLoaded writes the published value from a worker closure: flagged.
func fillLoaded(n int) {
	m := live.Load()
	run(n, func(i int) {
		m.gis[i] = 1 // want "write to immutable field Model.gis of a published value"
	})
}

// resetParallel writes its receiver from a worker closure: flagged.
func (m *Model) resetParallel(n int) {
	run(n, func(int) {
		m.gis = nil // want "write to immutable field Model.gis of a published value"
	})
}

// trainParallel fills a value it built from worker closures, and one
// closure builds and publishes its own: legal (both are fresh).
func trainParallel(cfg Config, n int) *Model {
	m := &Model{cfg: cfg, gis: make([]float64, n)}
	run(n, func(i int) {
		m.gis[i] = float64(i)
	})
	run(1, func(int) {
		next := &Model{cfg: cfg}
		next.gis = []float64{1}
		live.Store(next)
	})
	return m
}

// fillParallel is an init-only builder writing its receiver from a
// worker closure: legal, the closure inherits the contract.
//
//cfsf:init-only called on models that have not been published yet
func (m *Model) fillParallel(n int) {
	run(n, func(i int) {
		m.gis[i] = float64(i)
	})
}
