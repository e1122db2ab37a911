// Package publisheduser writes imported immutable fields of published
// values: the contracts arrive from guarded as facts.
package publisheduser

import (
	"sync/atomic"

	"guarded"
)

// cur publishes a Store.
var cur atomic.Pointer[guarded.Store]

// stompLive writes an imported immutable field of the live value: flagged.
func stompLive() {
	cur.Load().Limits[0] = 0 // want "write to immutable field Store.Limits"
}

// clobberLater returns a closure that writes an imported immutable field
// of a published value: flagged.
func clobberLater(s *guarded.Store) func() {
	return func() {
		s.Limits = nil // want "write to immutable field Store.Limits"
	}
}
