package similarity

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// Snapshot is the serialisable form of a GIS: which neighbours each item
// keeps. Eq. 5 lists are "thresholded and sorted descending", so a list's
// order is a function of its weights, and an Eq. 5 weight is a function
// of two item columns of the matrix the GIS was built on, which every
// persisted model stores. So a snapshot of a GIS whose weights are all
// Eq. 5 weights stores each list as a set of ids and nothing else:
// FromSnapshot derives the weights from the matrix at load, bit for bit
// the ones BuildGIS and Refresh computed, and sorts each list into
// mathx.Precedes order, the order they serve. Only a GIS whose weights
// mix in item attributes (BuildGISWithContent) carries its weights,
// because no matrix reproduces them; its order is derived from them.
//
// The sets are stored flat and Rice-coded: item i's list is the Lens[i]
// entries that follow the lists of the items before it, its ids
// ascending, in SetCode as gaps — id − previous id − 1, the first as the
// id itself — under one Rice parameter for the whole GIS
// (mathx.EncodeRice). A GIS's neighbour ids sit close together: on the
// ledger fixture a gap averages about 4 and an entry costs under 4 bits
// at k = 2. A repeated or out-of-order id cannot be written at all.
// Scores, when present, holds the weight of every entry of the ascending
// sets, math.Float64bits, 8 bytes little-endian.
//
// Every list's horizon (GIS.Horizon) travels bit for bit, because no
// matrix reproduces it: it bounds candidates a list turned away at weights
// they held then. TauIDs holds each item's τ id, Rice-coded like the
// sets, and TauScores its weight as math.Float64bits, 8 bytes
// little-endian — the zero τ as id 0 at weight 0. On the ledger fixture
// that is 8 bytes plus about 10 bits an item, under 10 KB for 1 000 items.
type Snapshot struct {
	Lens      []int32
	SetCode   mathx.RiceCode
	Scores    []byte
	TauIDs    mathx.RiceCode
	TauScores []byte
	Opts      GISOptions
}

// Snapshot extracts a deep copy suitable for encoding: each list as its
// ascending id set. The weights go with it only when withScores is set,
// which a caller must do for a GIS whose weights are not the Eq. 5
// weights of its matrix.
func (g *GIS) Snapshot(withScores bool) Snapshot {
	q, total := len(g.neighbors), g.TotalNeighbors()
	s := Snapshot{
		Lens: make([]int32, q),
		Opts: g.opts,
	}
	if withScores {
		s.Scores = make([]byte, 0, total*8)
	}
	// Every list's ids in ascending order, without a comparison: a
	// counting sort of all entries by id (byID holds each entry's owning
	// item), dealt back to the owners in that order (sets, which then
	// turns, in place, into each list's gaps).
	end := make([]int, q+1) // end[b+1]: past the last entry of id b in byID
	for i, list := range g.neighbors {
		s.Lens[i] = int32(len(list))
		for _, n := range list {
			end[n.Index+1]++
		}
	}
	for b := 0; b < q; b++ {
		end[b+1] += end[b]
	}
	byID := make([]int32, total)
	for i, list := range g.neighbors {
		for _, n := range list {
			byID[end[n.Index]] = int32(i)
			end[n.Index]++
		}
	}
	next := make([]int, q) // where item i's next id goes in sets
	for i := 1; i < q; i++ {
		next[i] = next[i-1] + len(g.neighbors[i-1])
	}
	sets := make([]uint64, total)
	for b, k := 0, 0; b < q; b++ {
		for ; k < end[b]; k++ {
			sets[next[byID[k]]] = uint64(b)
			next[byID[k]]++
		}
	}

	var weight []float64 // weight[id]: the weight the current list holds id at
	if withScores {
		weight = make([]float64, q)
	}
	k := 0
	for _, list := range g.neighbors {
		if withScores {
			for _, n := range list {
				weight[n.Index] = n.Score
			}
		}
		prev := uint64(0) // one past the previous id
		for end := k + len(list); k < end; k++ {
			id := sets[k]
			sets[k] = id - prev
			if withScores {
				s.Scores = binary.LittleEndian.AppendUint64(s.Scores, math.Float64bits(weight[id]))
			}
			prev = id + 1
		}
	}
	s.SetCode = mathx.EncodeRice(sets)
	ids := make([]uint64, q)
	s.TauScores = make([]byte, 0, 8*q)
	for i := range ids {
		tau := g.Horizon(i)
		ids[i] = uint64(tau.Index)
		s.TauScores = binary.LittleEndian.AppendUint64(s.TauScores, math.Float64bits(tau.Score))
	}
	s.TauIDs = mathx.EncodeRice(ids)
	return s
}

// entries checks s's lengths against its set code and weights, and
// returns their sum: it refuses lengths that are negative or add up to
// more entries than the code can hold, a SetCode parameter past
// mathx.MaxRiceK, and weights that are not one per entry. walkSet checks
// the ids.
func (s *Snapshot) entries() (int, error) {
	if err := s.SetCode.Check(); err != nil {
		return 0, fmt.Errorf("similarity: snapshot set code: %w", err)
	}
	// A set entry takes at least k+1 bits; summing the lengths stops once
	// the entries the code offers are passed, so no sum of int32s can
	// overflow.
	have, total := s.SetCode.MaxValues(), 0
	for i, n := range s.Lens {
		if n < 0 {
			return 0, fmt.Errorf("similarity: snapshot item %d has negative neighbour count %d", i, n)
		}
		if total += int(n); total > have {
			break
		}
	}
	if total > have || len(s.Scores) != 0 && len(s.Scores) != total*8 {
		return 0, fmt.Errorf("similarity: snapshot holds %d set bytes and %d score bytes for %d neighbour slots of at least %d bits (+8 bytes)",
			len(s.SetCode.Bits), len(s.Scores), total, s.SetCode.K+1)
	}
	return total, nil
}

// walkSet decodes the set code, writing each entry's id into slab, in
// item order, unless slab is nil. It refuses, naming the item and the
// entry, a code that runs past the bytes and an id that reaches past the
// items the snapshot covers (naming its gap), and bytes or nonzero pad bits left over after
// the last entry.
func (s *Snapshot) walkSet(slab []mathx.Scored, total int) error {
	q := len(s.Lens)
	gaps, err := s.SetCode.Reader(total)
	if err != nil {
		return fmt.Errorf("similarity: snapshot set code: %w", err)
	}
	k := 0
	for i, n := range s.Lens {
		prev := int32(-1)
		for j := 0; j < int(n); j++ {
			gap, err := gaps.Next()
			if err != nil {
				return fmt.Errorf("similarity: snapshot item %d entry %d: %w", i, j, err)
			}
			id, ok := mathx.GapID(prev, gap, q)
			if !ok {
				return fmt.Errorf("similarity: snapshot item %d entry %d: the id after neighbour %d passes the %d items it covers (gap %d)", i, j, prev, q, gap)
			}
			prev = id
			if slab != nil {
				slab[k].Index = id
			}
			k++
		}
	}
	if err := gaps.End(); err != nil {
		return fmt.Errorf("similarity: snapshot set code after the list of item %d, its last: %w", q-1, err)
	}
	return nil
}

// horizons decodes every item's horizon into tau, unless tau is nil. It
// refuses, naming the item, a count other than one per item, an id past
// the items the snapshot covers, and a weight that is neither the zero
// τ's nor one a GIS entry can hold: positive and finite.
func (s *Snapshot) horizons(tau []mathx.Scored) error {
	q := len(s.Lens)
	if err := s.TauIDs.Check(); err != nil {
		return fmt.Errorf("similarity: snapshot horizon code: %w", err)
	}
	if len(s.TauScores) != 8*q {
		return fmt.Errorf("similarity: snapshot holds %d horizon weight bytes for %d items", len(s.TauScores), q)
	}
	ids, err := s.TauIDs.Reader(q)
	if err != nil {
		return fmt.Errorf("similarity: snapshot horizon code: %w", err)
	}
	for i := 0; i < q; i++ {
		id, err := ids.Next()
		if err != nil {
			return fmt.Errorf("similarity: snapshot horizon of item %d: %w", i, err)
		}
		t := mathx.Scored{Index: int32(id), Score: math.Float64frombits(binary.LittleEndian.Uint64(s.TauScores[8*i:]))}
		switch {
		case id >= uint64(q):
			return fmt.Errorf("similarity: snapshot horizon of item %d names item %d of %d", i, id, q)
		case t != (mathx.Scored{}) && !(t.Score > 0 && t.Score <= math.MaxFloat64):
			return fmt.Errorf("similarity: snapshot horizon of item %d has weight %v", i, t.Score)
		}
		if tau != nil {
			tau[i] = t
		}
	}
	if err := ids.End(); err != nil {
		return fmt.Errorf("similarity: snapshot horizon code after item %d, the last: %w", q-1, err)
	}
	return nil
}

// Check validates s, as FromSnapshot does before deriving anything, and
// returns the number of items it covers.
func (s Snapshot) Check() (int, error) {
	total, err := s.entries()
	if err == nil {
		err = s.walkSet(nil, total)
	}
	if err == nil {
		err = s.horizons(nil)
	}
	return len(s.Lens), err
}

// FromSnapshot reconstructs a GIS, its lists carved from one slab of its
// own. m is the matrix the lists are the Eq. 5 lists of: FromSnapshot
// derives from it every weight the snapshot does not carry
// (deriveWeights), and refuses a matrix covering another number of items.
// m may be nil for a snapshot carrying its weights. The lists are then
// sorted from id sets into list order (sortLists). Beyond the refusals of
// entries, walkSet and horizons it refuses what deriveWeights does, and a
// list whose last entry does not precede its horizon.
func FromSnapshot(s Snapshot, m *ratings.Matrix) (*GIS, error) {
	total, err := s.entries()
	if err != nil {
		return nil, err
	}
	derive := len(s.Scores) == 0 && total > 0
	switch {
	case m != nil && m.NumItems() != len(s.Lens):
		return nil, fmt.Errorf("similarity: snapshot covers %d items, the matrix %d", len(s.Lens), m.NumItems())
	case m == nil && derive:
		return nil, fmt.Errorf("similarity: snapshot carries no weights and no matrix was given to derive them from")
	}

	slab := make([]mathx.Scored, total)
	if err := s.walkSet(slab, total); err != nil {
		return nil, err
	}
	if !derive {
		for k := range slab {
			slab[k].Score = math.Float64frombits(binary.LittleEndian.Uint64(s.Scores[8*k:]))
		}
	}
	g := &GIS{neighbors: make([][]mathx.Scored, len(s.Lens)), tau: make([]mathx.Scored, len(s.Lens)), opts: s.Opts}
	if err := s.horizons(g.tau); err != nil {
		return nil, err
	}
	off := 0
	for i, n := range s.Lens {
		if n > 0 {
			g.neighbors[i] = slab[off : off+int(n) : off+int(n)]
		}
		off += int(n)
	}
	if derive {
		if err := g.deriveWeights(m, slab); err != nil {
			return nil, err
		}
	}
	g.sortLists()
	for i, list := range g.neighbors {
		if n := len(list); n > 0 && g.tau[i] != (mathx.Scored{}) && !mathx.Precedes(list[n-1], g.tau[i]) {
			return nil, fmt.Errorf("similarity: snapshot item %d: neighbour %d does not precede the list's horizon", i, list[n-1].Index)
		}
	}
	return g, nil
}

// sortLists sorts every list of g, in parallel over items, into
// mathx.Precedes order: weight descending, ties by ascending id. Every
// list BuildGIS, BuildGISWithContent and Refresh produce is strictly in
// that order, so a list stored as its id set sorts back into the order it
// was served in.
func (g *GIS) sortLists() {
	parallel.ForChunked(len(g.neighbors), g.opts.Workers, func(lo, hi int) {
		for _, list := range g.neighbors[lo:hi] {
			mathx.SortScoredDesc(list)
		}
	})
}

// deriveWeights sets the weight of every entry of g, whose lists are
// carved in item order from slab, to the Eq. 5 weight of its pair on m
// under g's options, and refuses — naming the item and the entry — a
// neighbour that is not co-rated with its item (itself included) and a
// weight the GIS filters would have dropped.
//
// A pair is accumulated once, by its lower item, exactly as BuildGIS
// accumulates it (accumulateUpper), and finished by the one weight
// candidateScratch gives every GIS entry; BuildGIS's comment says why
// Refresh's walk from either end of the pair yields the same bits. So a
// GIS that BuildGIS built and any chain of Refresh calls kept up to date
// with m derives to itself bit for bit.
func (g *GIS) deriveWeights(m *ratings.Matrix, slab []mathx.Scored) error {
	q := len(g.neighbors)
	owner := make([]int32, len(slab))
	k := 0
	for i, list := range g.neighbors {
		for range list {
			owner[k] = int32(i)
			k++
		}
	}

	// byLower[lowerOff[a]:lowerOff[a+1]] are the slab positions of the
	// entries whose pair has a as its lower item, both directions.
	lowerOff := make([]int, q+1)
	for p, e := range slab {
		lowerOff[min(owner[p], e.Index)+1]++
	}
	for a := 0; a < q; a++ {
		lowerOff[a+1] += lowerOff[a]
	}
	byLower := make([]int32, len(slab))
	next := make([]int, q)
	copy(next, lowerOff[:q])
	for p, e := range slab {
		a := min(owner[p], e.Index)
		byLower[next[a]] = int32(p)
		next[a]++
	}

	centred := centredRows(m, g.opts.Metric)
	var mu sync.Mutex
	bad, why := len(slab), ""
	parallel.ForChunked(q, g.opts.Workers, func(lo, hi int) {
		sc := newCandidateScratch(q)
		firstBad, firstWhy := len(slab), ""
		for a := lo; a < hi; a++ {
			at := byLower[lowerOff[a]:lowerOff[a+1]]
			if len(at) == 0 {
				continue
			}
			sc.accumulateUpper(m, centred, a)
			for _, p := range at {
				b := max(owner[p], slab[p].Index)
				// b == a is never accumulated (b > a only), so it reads
				// as not co-rated.
				sim, ok := sc.weight(b, g.opts)
				switch {
				case ok:
					slab[p].Score = sim
				case int(p) > firstBad:
				case sc.sums[b].co == 0:
					firstBad, firstWhy = int(p), "is not co-rated with it"
				default:
					firstBad, firstWhy = int(p), "has an Eq. 5 weight the GIS filters drop"
				}
			}
			sc.reset()
		}
		mu.Lock()
		if firstBad < bad {
			bad, why = firstBad, firstWhy
		}
		mu.Unlock()
	})
	if bad < len(slab) {
		i, j := owner[bad], 0
		for p := bad - 1; p >= 0 && owner[p] == i; p-- {
			j++
		}
		return fmt.Errorf("similarity: snapshot item %d entry %d: neighbour %d %s", i, j, slab[bad].Index, why)
	}
	return nil
}
