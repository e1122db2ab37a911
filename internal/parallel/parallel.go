// Package parallel provides small, deterministic fan-out helpers used by
// the offline phase of CFSF (GIS construction, K-means assignment, batch
// prediction). It is a thin layer over goroutines and sync so that callers
// never manage WaitGroups by hand.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when a caller passes
// workers <= 0: the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// For runs body(i) for every i in [0, n) across the given number of
// workers. Iterations are handed out in contiguous chunks to preserve
// cache locality; each index is processed exactly once. For blocks until
// all iterations complete. If workers <= 0, DefaultWorkers() is used; if
// n <= 0 it returns immediately.
func For(n, workers int, body func(i int)) {
	ForChunked(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and runs body(lo, hi)
// for each chunk across the worker pool. The chunk size adapts so that
// each worker receives several chunks, which smooths load imbalance
// without a scheduler.
func ForChunked(n, workers int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		body(0, n)
		return
	}
	// Aim for ~4 chunks per worker to absorb skewed per-item cost.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// Group runs a set of independent tasks concurrently and returns the first
// non-nil error (all tasks always run to completion). It is an errgroup
// without context cancellation, sufficient for the offline pipeline.
type Group struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	sema chan struct{}
}

// NewGroup returns a Group limited to the given number of concurrently
// running tasks. limit <= 0 means no limit.
func NewGroup(limit int) *Group {
	g := &Group{}
	if limit > 0 {
		g.sema = make(chan struct{}, limit)
	}
	return g
}

// Go schedules fn on the group.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	if g.sema != nil {
		g.sema <- struct{}{}
	}
	go func() {
		defer g.wg.Done()
		if g.sema != nil {
			defer func() { <-g.sema }()
		}
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every scheduled task has finished and returns the
// first error observed, if any.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// MapReduce runs mapper(i) for i in [0, n) across workers, collecting one
// partial result per worker via the caller-supplied newAccum/fold pair,
// then reduces the partials in worker order so the reduction is
// deterministic. It returns the accumulated partials in order.
func MapReduce[A any](n, workers int, newAccum func() A, fold func(acc A, i int) A) []A {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers <= 0 {
		return nil
	}
	parts := make([]A, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			acc := newAccum()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			for i := lo; i < hi; i++ {
				acc = fold(acc, i)
			}
			parts[w] = acc
		}(w)
	}
	wg.Wait()
	return parts
}
