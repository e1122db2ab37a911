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
type Snapshot struct {
	Lens    []int32
	SetCode mathx.RiceCode
	Scores  []byte
	Opts    GISOptions

	// Set, IDs, Index and Score, and Neighbors are the layouts earlier
	// files carry: Set the ascending sets with each gap a uvarint
	// (mathx.NextGap), and every list in list order — IDs each neighbour
	// id in IDWidth bytes (with Scores, or alone when the weights are
	// derived), Index and Score ids and weights, and Neighbors per-item
	// lists. They are only ever decoded: Snapshot never fills them, and
	// FromSnapshot refuses a value holding more than one layout.
	Set       []byte
	IDs       []byte
	Index     []int32
	Score     []float64
	Neighbors [][]mathx.Scored
}

// IDWidth is the number of bytes the IDs layout spends on one neighbour
// id of a GIS covering numItems items.
func IDWidth(numItems int) int {
	if numItems <= 1<<16 {
		return 2
	}
	return 4
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
	return s
}

// view is a validated snapshot: its per-item lengths, how many entries
// they add up to, fill writing every entry into a slab in item order,
// whether the entries carry their weights, and whether the lists are id
// sets (the SetCode or Set layout) rather than lists in list order.
type view struct {
	lens     []int32
	total    int
	fill     func(slab []mathx.Scored) error
	weighted bool
	sets     bool
}

// view checks s's layout and lengths, and the ids of the layouts in list
// order. It refuses a snapshot carrying more than one layout, lengths
// that are negative or do not add up to the entries present, a SetCode
// parameter past mathx.MaxRiceK, and — naming the item and the entry — a
// neighbour id outside the items the snapshot covers. A set layout's ids
// are checked as fill decodes them (walkSet).
func (s *Snapshot) view() (view, error) {
	rice, gaps := len(s.SetCode.Bits) > 0 || s.SetCode.K != 0, len(s.Set) > 0
	sets := rice || gaps
	raw := len(s.IDs) > 0 || len(s.Scores) > 0 && !sets
	flat, perItem := len(s.Index) > 0 || len(s.Score) > 0, len(s.Neighbors) > 0
	lens := s.Lens
	switch {
	case perItem && (sets || raw || flat || len(s.Lens) > 0), raw && flat, sets && (raw || flat), rice && gaps:
		return view{}, fmt.Errorf("similarity: snapshot carries more than one neighbour layout")
	case perItem:
		lens = make([]int32, len(s.Neighbors))
		for i, list := range s.Neighbors {
			lens[i] = int32(len(list))
		}
	}
	if err := s.SetCode.Check(); err != nil {
		return view{}, fmt.Errorf("similarity: snapshot set code: %w", err)
	}

	// have is how many entries the layout offers — a Rice-coded set entry
	// takes at least k+1 bits, a gap-coded one a byte; summing the lengths
	// stops once it is passed, so no sum of int32s can overflow.
	w, minBits := IDWidth(len(lens)), 8
	have := len(s.Index)
	switch {
	case rice:
		have, minBits = s.SetCode.MaxValues(), int(s.SetCode.K)+1
	case gaps:
		have = len(s.Set)
	case raw:
		have = len(s.IDs) / w
	case perItem:
		have = math.MaxInt
	}
	total := 0
	for i, n := range lens {
		if n < 0 {
			return view{}, fmt.Errorf("similarity: snapshot item %d has negative neighbour count %d", i, n)
		}
		if total += int(n); total > have {
			break
		}
	}
	switch {
	case sets && (total > have || len(s.Scores) != 0 && len(s.Scores) != total*8):
		return view{}, fmt.Errorf("similarity: snapshot holds %d set bytes and %d score bytes for %d neighbour slots of at least %d bits (+8 bytes)",
			len(s.SetCode.Bits)+len(s.Set), len(s.Scores), total, minBits)
	case raw && (len(s.IDs) != total*w || len(s.Scores) != 0 && len(s.Scores) != total*8):
		return view{}, fmt.Errorf("similarity: snapshot holds %d id bytes and %d score bytes for %d neighbour slots of %d(+8) bytes",
			len(s.IDs), len(s.Scores), total, w)
	case !sets && !raw && !perItem && (len(s.Index) != total || len(s.Score) != total):
		return view{}, fmt.Errorf("similarity: snapshot holds %d indices and %d scores for %d neighbour slots",
			len(s.Index), len(s.Score), total)
	}

	v := view{lens: lens, total: total, weighted: !(sets || raw) || len(s.Scores) > 0, sets: sets}
	score := func(k int) float64 {
		if len(s.Scores) == 0 {
			return 0
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(s.Scores[8*k:]))
	}
	if sets {
		v.fill = func(slab []mathx.Scored) error {
			if err := s.walkSet(slab); err != nil {
				return err
			}
			for k := range slab {
				slab[k].Score = score(k)
			}
			return nil
		}
		return v, nil
	}

	var at func(k int) mathx.Scored
	switch {
	case raw:
		at = func(k int) mathx.Scored {
			if w == 2 {
				return mathx.Scored{Index: int32(binary.LittleEndian.Uint16(s.IDs[2*k:])), Score: score(k)}
			}
			return mathx.Scored{Index: int32(binary.LittleEndian.Uint32(s.IDs[4*k:])), Score: score(k)}
		}
	case perItem:
		flatList := make([]mathx.Scored, 0, total)
		for _, list := range s.Neighbors {
			flatList = append(flatList, list...)
		}
		at = func(k int) mathx.Scored { return flatList[k] }
	default:
		at = func(k int) mathx.Scored { return mathx.Scored{Index: s.Index[k], Score: s.Score[k]} }
	}
	k := 0
	for i, n := range lens {
		for j := 0; j < int(n); j++ {
			if id := at(k).Index; id < 0 || int(id) >= len(lens) {
				return view{}, fmt.Errorf("similarity: snapshot item %d entry %d names neighbour %d, outside the %d items it covers",
					i, j, id, len(lens))
			}
			k++
		}
	}
	v.fill = func(slab []mathx.Scored) error {
		for k := range slab {
			slab[k] = at(k)
		}
		return nil
	}
	return v, nil
}

// walkSet decodes a set layout — SetCode or Set, whichever s carries —
// writing each entry's id into slab, in item order, unless slab is nil.
// It refuses, naming the item and the entry, a code that runs past the
// bytes and an id that reaches past the items the snapshot covers, and
// bytes or nonzero pad bits left over after the last entry.
func (s *Snapshot) walkSet(slab []mathx.Scored) error {
	q, total := len(s.Lens), 0
	for _, n := range s.Lens {
		total += int(n)
	}
	var gaps *mathx.RiceReader // nil for the Set layout
	if len(s.Set) == 0 {
		var err error
		if gaps, err = s.SetCode.Reader(total); err != nil {
			return fmt.Errorf("similarity: snapshot set code: %w", err)
		}
	}
	off, k := 0, 0
	for i, n := range s.Lens {
		prev := int32(-1)
		for j := 0; j < int(n); j++ {
			var id int32
			if gaps != nil {
				gap, err := gaps.Next()
				if err != nil {
					return fmt.Errorf("similarity: snapshot item %d entry %d: %w", i, j, err)
				}
				var ok bool
				if id, ok = mathx.GapID(prev, gap, q); !ok {
					return fmt.Errorf("similarity: snapshot item %d entry %d: the id after neighbour %d passes the %d items it covers", i, j, prev, q)
				}
			} else {
				var w int
				id, w = mathx.NextGap(s.Set[off:], prev, q)
				switch {
				case w == 0:
					return fmt.Errorf("similarity: snapshot item %d entry %d: the id gap runs past the %d set bytes", i, j, len(s.Set))
				case w < 0:
					return fmt.Errorf("similarity: snapshot item %d entry %d: the id after neighbour %d passes the %d items it covers", i, j, prev, q)
				}
				off += w
			}
			prev = id
			if slab != nil {
				slab[k].Index = id
			}
			k++
		}
	}
	if gaps != nil {
		if err := gaps.End(); err != nil {
			return fmt.Errorf("similarity: snapshot set code after the list of item %d, its last: %w", q-1, err)
		}
	} else if off != len(s.Set) {
		return fmt.Errorf("similarity: snapshot holds %d set bytes after the list of item %d, its last", len(s.Set)-off, q-1)
	}
	return nil
}

// Check validates s, as FromSnapshot does before deriving anything, and
// returns the number of items it covers.
func (s Snapshot) Check() (int, error) {
	v, err := s.view()
	if err == nil && v.sets {
		err = s.walkSet(nil)
	}
	return len(v.lens), err
}

// FromSnapshot reconstructs a GIS, its lists carved from one slab of its
// own, from any of the layouts. m is the matrix the lists are the Eq. 5
// lists of: FromSnapshot derives from it every weight the snapshot does
// not carry (deriveWeights), and refuses a matrix covering another number
// of items. m may be nil for a snapshot carrying its weights. Lists
// stored as id sets are then sorted into list order (sortLists); lists
// stored in list order with their weights derived must already be in it
// (checkListOrder). Beyond view's refusals it refuses what deriveWeights
// and checkListOrder do.
func FromSnapshot(s Snapshot, m *ratings.Matrix) (*GIS, error) {
	v, err := s.view()
	if err != nil {
		return nil, err
	}
	switch {
	case m != nil && m.NumItems() != len(v.lens):
		return nil, fmt.Errorf("similarity: snapshot covers %d items, the matrix %d", len(v.lens), m.NumItems())
	case m == nil && !v.weighted:
		return nil, fmt.Errorf("similarity: snapshot carries no weights and no matrix was given to derive them from")
	}

	slab := make([]mathx.Scored, v.total)
	if err := v.fill(slab); err != nil {
		return nil, err
	}
	g := &GIS{neighbors: make([][]mathx.Scored, len(v.lens)), opts: s.Opts}
	off := 0
	for i, n := range v.lens {
		if n > 0 {
			g.neighbors[i] = slab[off : off+int(n) : off+int(n)]
		}
		off += int(n)
	}
	if !v.weighted {
		if err := g.deriveWeights(m, slab); err != nil {
			return nil, err
		}
	}
	switch {
	case v.sets:
		g.sortLists()
	case !v.weighted:
		if err := g.checkListOrder(); err != nil {
			return nil, err
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

// checkListOrder refuses, naming the item and the entry, a list that is
// not strictly in mathx.Precedes order once weighted — which is also what
// a repeated neighbour comes to. It holds a list an earlier file stored
// in list order with its weights derived to the order a GIS serves.
func (g *GIS) checkListOrder() error {
	for i, list := range g.neighbors {
		for j := 1; j < len(list); j++ {
			if !mathx.Precedes(list[j-1], list[j]) {
				return fmt.Errorf("similarity: snapshot item %d entry %d: neighbour %d (weight %v) does not rank after neighbour %d (weight %v)",
					i, j, list[j].Index, list[j].Score, list[j-1].Index, list[j-1].Score)
			}
		}
	}
	return nil
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
