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
// keeps, in list order. An Eq. 5 weight is a function of two item columns
// of the matrix the GIS was built on, and every persisted model stores
// that matrix, so a snapshot of a GIS whose weights are all Eq. 5 weights
// carries none of them: FromSnapshot derives them from the matrix at load,
// bit for bit the ones BuildGIS and Refresh computed. Only a GIS whose
// weights mix in item attributes (BuildGISWithContent) carries its
// weights, because no matrix reproduces them.
//
// The lists are stored flat and raw: item i's list is the Lens[i] entries
// that follow the lists of the items before it, each entry's neighbour id
// in IDs, little-endian in 2 bytes when the GIS covers at most 65 536
// items and in 4 otherwise (IDWidth). Scores, when present, holds every
// weight's math.Float64bits, 8 bytes little-endian. gob writes a []byte as
// one length and the bytes, so an entry costs 2 bytes on the wire, 10
// with its weight.
type Snapshot struct {
	Lens   []int32
	IDs    []byte
	Scores []byte
	Opts   GISOptions

	// Index and Score are the layout blobs of wire version 2 carry, and
	// Neighbors the one of version 1. They are only ever decoded: Snapshot
	// never fills them, and FromSnapshot refuses a value holding more
	// than one layout.
	Index     []int32
	Score     []float64
	Neighbors [][]mathx.Scored
}

// IDWidth is the number of bytes Snapshot.IDs spends on one neighbour id
// of a GIS covering numItems items.
func IDWidth(numItems int) int {
	if numItems <= 1<<16 {
		return 2
	}
	return 4
}

// Snapshot extracts a deep copy suitable for encoding. The weights go
// with it only when withScores is set, which a caller must do for a GIS
// whose weights are not the Eq. 5 weights of its matrix.
func (g *GIS) Snapshot(withScores bool) Snapshot {
	total := g.TotalNeighbors()
	w := IDWidth(len(g.neighbors))
	s := Snapshot{
		Lens: make([]int32, len(g.neighbors)),
		IDs:  make([]byte, total*w),
		Opts: g.opts,
	}
	if withScores {
		s.Scores = make([]byte, total*8)
	}
	k := 0
	for i, list := range g.neighbors {
		s.Lens[i] = int32(len(list))
		for _, n := range list {
			if w == 2 {
				binary.LittleEndian.PutUint16(s.IDs[2*k:], uint16(n.Index))
			} else {
				binary.LittleEndian.PutUint32(s.IDs[4*k:], uint32(n.Index))
			}
			if withScores {
				binary.LittleEndian.PutUint64(s.Scores[8*k:], math.Float64bits(n.Score))
			}
			k++
		}
	}
	return s
}

// view is a validated snapshot: its per-item lengths, how many entries
// they add up to, entry k of the flat sequence, and whether the entries
// carry their weights.
type view struct {
	lens     []int32
	total    int
	at       func(k int) mathx.Scored
	weighted bool
}

// view checks s's layout, lengths and ids. It refuses a snapshot carrying
// more than one layout, lengths that are negative or do not add up to the
// entries present, and — naming the item and the entry — a neighbour id
// outside the items the snapshot covers.
func (s *Snapshot) view() (view, error) {
	raw, flat, perItem := len(s.IDs) > 0 || len(s.Scores) > 0, len(s.Index) > 0 || len(s.Score) > 0, len(s.Neighbors) > 0
	lens := s.Lens
	switch {
	case perItem && (raw || flat || len(s.Lens) > 0), raw && flat:
		return view{}, fmt.Errorf("similarity: snapshot carries more than one neighbour layout")
	case perItem:
		lens = make([]int32, len(s.Neighbors))
		for i, list := range s.Neighbors {
			lens[i] = int32(len(list))
		}
	}

	// have is how many entries the layout offers; summing the lengths
	// stops once it is passed, so no sum of int32s can overflow.
	w := IDWidth(len(lens))
	have := len(s.Index)
	switch {
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
	case raw && (len(s.IDs) != total*w || len(s.Scores) != 0 && len(s.Scores) != total*8):
		return view{}, fmt.Errorf("similarity: snapshot holds %d id bytes and %d score bytes for %d neighbour slots of %d(+8) bytes",
			len(s.IDs), len(s.Scores), total, w)
	case !raw && !perItem && (len(s.Index) != total || len(s.Score) != total):
		return view{}, fmt.Errorf("similarity: snapshot holds %d indices and %d scores for %d neighbour slots",
			len(s.Index), len(s.Score), total)
	}

	v := view{lens: lens, total: total, weighted: !raw || len(s.Scores) > 0}
	switch {
	case raw:
		v.at = func(k int) mathx.Scored {
			var e mathx.Scored
			if w == 2 {
				e.Index = int32(binary.LittleEndian.Uint16(s.IDs[2*k:]))
			} else {
				e.Index = int32(binary.LittleEndian.Uint32(s.IDs[4*k:]))
			}
			if v.weighted {
				e.Score = math.Float64frombits(binary.LittleEndian.Uint64(s.Scores[8*k:]))
			}
			return e
		}
	case perItem:
		flatList := make([]mathx.Scored, 0, total)
		for _, list := range s.Neighbors {
			flatList = append(flatList, list...)
		}
		v.at = func(k int) mathx.Scored { return flatList[k] }
	default:
		v.at = func(k int) mathx.Scored { return mathx.Scored{Index: s.Index[k], Score: s.Score[k]} }
	}

	k := 0
	for i, n := range lens {
		for j := 0; j < int(n); j++ {
			if id := v.at(k).Index; id < 0 || int(id) >= len(lens) {
				return view{}, fmt.Errorf("similarity: snapshot item %d entry %d names neighbour %d, outside the %d items it covers",
					i, j, id, len(lens))
			}
			k++
		}
	}
	return v, nil
}

// Check validates s without decoding it, as FromSnapshot does before
// anything else (view), and returns the number of items it covers.
func (s Snapshot) Check() (int, error) {
	v, err := s.view()
	return len(v.lens), err
}

// FromSnapshot reconstructs a GIS, its lists carved from one slab of its
// own, from any of the layouts. m is the matrix the lists are the Eq. 5
// lists of: FromSnapshot derives from it every weight the snapshot does
// not carry (deriveWeights), and refuses a matrix covering another number
// of items. m may be nil for a snapshot carrying its weights. Beyond
// view's refusals it refuses what deriveWeights does.
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
	for k := range slab {
		slab[k] = v.at(k)
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
	return g, nil
}

// deriveWeights sets the weight of every entry of g, whose lists are
// carved in item order from slab, to the Eq. 5 weight of its pair on m
// under g's options, and refuses — naming the item and the entry — a
// neighbour that is not co-rated with its item (itself included), a
// weight the GIS filters would have dropped, and a list that is not
// strictly in mathx.Precedes order once weighted, which is also what a
// repeated neighbour or ids that are not m's lists come to.
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
