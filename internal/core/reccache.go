package core

import (
	"sync/atomic"

	"cfsf/internal/mathx"
)

// Per-user recommendation cache. Recommend's exact scan walks the whole
// catalogue (a millisecond); serving repeats it for the same user against
// the same model. The cache keeps the head of each served user's ranking
// for the lifetime of the model generation whose scan built it, so a warm
// Recommend is a bounds check plus a copy.
//
// An entry holds what its scan was asked for, at most the capacity: a
// user with no entry is scanned for n, and one whose entry is too short
// for a later n is scanned once more, to the capacity (RecommendAppend).
//
// Like neighborCache it belongs to one generation: every constructor
// allocates it cold and nothing is copied forward, so an entry is only
// ever read by the model that scored it — exact by construction. Eq. 7/8
// smoothing makes a single rating move nearly every user's scores, which
// is why nothing survives an Apply; DESIGN.md §10 records the evidence.

// defaultRecCacheSize is the most an entry holds when
// Config.RecommendCacheSize is 0: enough to serve the HTTP layer's
// n ≤ 100 ceiling from one cached prefix.
const defaultRecCacheSize = 128

// recEntry is one user's cached ranking. Entries are immutable once
// published through the recCache slot.
type recEntry struct {
	// ranked is a prefix of the user's full candidate ranking in canonical
	// order (score desc, id asc), no longer than the capacity.
	ranked []mathx.Scored //cfsf:immutable
	// complete reports that ranked holds *every* eligible item, so any n
	// can be served from it.
	complete bool
}

// recCacheCap returns the most a user's entry may hold: the configured
// size, defaulted, with negative values disabling the cache entirely.
func (mod *Model) recCacheCap() int {
	switch c := mod.cfg.RecommendCacheSize; {
	case c == 0:
		return defaultRecCacheSize
	case c < 0:
		return 0
	default:
		return c
	}
}

// initRecCache allocates the (cold) per-user cache slots.
//
//cfsf:init-only called by Train, Load, WithUpdates and the shard paths on a model that has not been published yet
func (mod *Model) initRecCache() {
	if mod.recCacheCap() > 0 {
		mod.recCache = make([]atomic.Pointer[recEntry], mod.m.NumUsers())
	}
}

// publishRec stores e in user's slot unless the slot already holds at
// least as much: racing misses of one generation store prefixes of one
// canonical ranking, so the longer (or complete) one serves everything
// the other can.
func (mod *Model) publishRec(user int, e *recEntry) {
	slot := &mod.recCache[user]
	for {
		old := slot.Load()
		if old != nil && (old.complete || len(old.ranked) >= len(e.ranked)) {
			return
		}
		if slot.CompareAndSwap(old, e) {
			return
		}
	}
}

// Cache effectiveness counters, process-wide (a cache lives for one model
// generation, so per-model counters would reset on every Apply). They
// feed /stats and /metrics; none of them influences model state, so the
// replay guarantee is untouched.
var (
	recCacheHits   atomic.Uint64
	recCacheMisses atomic.Uint64
	recScans       atomic.Uint64
	recScanNanos   atomic.Uint64
	recScanItems   atomic.Uint64
	recScanPriced  atomic.Uint64
	recWidened     atomic.Uint64
)

// RecCacheStats is a snapshot of the process-wide recommendation-cache
// counters.
type RecCacheStats struct {
	// Hits counts Recommend calls served from a cached entry; Misses
	// counts calls that ran the exact scan with the cache enabled.
	Hits, Misses uint64
	// Carried and Invalidated are always zero: no entry outlives its
	// generation. They stay because bench/ladder.go reads them.
	Carried, Invalidated uint64
	// Scans counts exact scans and ScanNanos their summed wall time, so
	// ScanNanos/Scans is what a read that misses the cache costs.
	Scans, ScanNanos uint64
	// ScanItems counts the candidates handed to those scans and
	// ScanPriced the ones SUIR′ was actually evaluated for, so
	// ScanPriced/ScanItems is the share the bound-and-prune selection
	// (scan.go) could not skip.
	ScanItems, ScanPriced uint64
	// Widened counts the misses that found an entry too short for their n
	// and scanned again at the capacity. Widened/Scans near 0 is clients
	// asking one n; near 0.5 is clients paging, where scanning for n first
	// costs a scan more than it saves.
	Widened uint64
}

// ReadRecCacheStats returns the current cache counters.
func ReadRecCacheStats() RecCacheStats {
	return RecCacheStats{
		Hits:       recCacheHits.Load(),
		Misses:     recCacheMisses.Load(),
		Scans:      recScans.Load(),
		ScanNanos:  recScanNanos.Load(),
		ScanItems:  recScanItems.Load(),
		ScanPriced: recScanPriced.Load(),
		Widened:    recWidened.Load(),
	}
}
