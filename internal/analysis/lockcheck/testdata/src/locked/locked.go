// Package locked exercises the lockcheck analyzer.
package locked

import "sync"

// Counter guards a field with a mutex.
type Counter struct {
	mu sync.Mutex
	n  int //cfsf:guarded-by mu
}

// Inc locks across the access: legal.
func (c *Counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Get reads without the lock: flagged.
func (c *Counter) Get() int {
	return c.n // want "guarded field n accessed without c.mu held"
}

// reset declares the caller-holds-the-lock contract: legal.
//
//cfsf:locked mu
func (c *Counter) reset() {
	c.n = 0
}

// double unlocks and then keeps writing: flagged.
func (c *Counter) double() {
	c.mu.Lock()
	c.n *= 2
	c.mu.Unlock()
	c.n++ // want "guarded field n accessed without c.mu held"
}

// earlyReturn uses the unlock-and-bail idiom: the lock stays held on the
// fall-through path, so the later access is legal.
func (c *Counter) earlyReturn(limit int) int {
	c.mu.Lock()
	if c.n > limit {
		c.mu.Unlock()
		return limit
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// fresh builds an unpublished value: construction writes are legal.
func fresh(start int) *Counter {
	c := &Counter{}
	c.n = start
	return c
}

// withLock runs f with the lock held.
func (c *Counter) withLock(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

// addLater accesses a guarded field inside a closure: lock state does not
// flow into closures, so guarded-by fields are not checked there.
func (c *Counter) addLater(d int) {
	c.withLock(func() {
		c.n += d
	})
}

// Gauge uses an RWMutex and a read lock.
type Gauge struct {
	rw sync.RWMutex
	v  float64 //cfsf:guarded-by rw
}

// Load read-locks: legal.
func (g *Gauge) Load() float64 {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.v
}

// Peek skips the lock: flagged.
func (g *Gauge) Peek() float64 {
	return g.v // want "guarded field v accessed without g.rw held"
}

// Bad annotates a mutex that does not exist on the struct.
type Bad struct {
	n int //cfsf:guarded-by missing // want "does not name a sync.Mutex/RWMutex field"
}

// Config is plain data.
type Config struct {
	Alpha float64
}

// Model is copy-on-write: published values are never mutated.
type Model struct {
	cfg Config    //cfsf:immutable
	gis []float64 //cfsf:immutable
}

// Train builds a fresh model: construction writes are legal.
func Train(cfg Config) *Model {
	m := &Model{cfg: cfg}
	m.gis = make([]float64, 8)
	return m
}

// freshVar constructs through a var declaration: legal.
func freshVar(cfg Config) Model {
	var m = Model{cfg: cfg}
	m.gis = []float64{1}
	return m
}

// swapInPlace replaces state on a published model: flagged.
func swapInPlace(m *Model, gis []float64) {
	m.gis = gis // want "write to immutable field Model.gis of a published value"
}

// poisonElement writes through an immutable field: flagged.
func poisonElement(m *Model) {
	m.gis[0] = 1 // want "write to immutable field Model.gis of a published value"
}

// rebuild runs before publication by contract: legal.
//
//cfsf:init-only called from Train before the model pointer escapes
func rebuild(m *Model) {
	m.gis = make([]float64, 8)
}

// read only reads: immutable fields are freely readable.
func read(m *Model) float64 {
	return m.cfg.Alpha + m.gis[0]
}
