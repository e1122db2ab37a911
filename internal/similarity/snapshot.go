package similarity

import (
	"encoding/binary"
	"fmt"
	"math"

	"cfsf/internal/mathx"
)

// Snapshot is the serialisable form of a GIS. Neighbour lists are the
// expensive artefact of the offline phase, so model persistence stores
// them rather than recomputing.
//
// The lists are stored flat and raw: item i's list is the Lens[i] entries
// that follow the lists of the items before it, each entry's neighbour id
// in IDs and its score in Scores. IDs holds every id little-endian in 2
// bytes when the GIS covers at most 65 536 items and in 4 otherwise
// (IDWidth); Scores holds every score's math.Float64bits, 8 bytes
// little-endian. gob writes a []byte as one length and the bytes, so an
// entry costs 10 bytes on the wire where gob's varints cost ~11.7.
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

// Snapshot extracts a deep copy suitable for encoding.
func (g *GIS) Snapshot() Snapshot {
	total := g.TotalNeighbors()
	w := IDWidth(len(g.neighbors))
	s := Snapshot{
		Lens:   make([]int32, len(g.neighbors)),
		IDs:    make([]byte, total*w),
		Scores: make([]byte, total*8),
		Opts:   g.opts,
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
			binary.LittleEndian.PutUint64(s.Scores[8*k:], math.Float64bits(n.Score))
			k++
		}
	}
	return s
}

// FromSnapshot reconstructs a GIS whose lists are carved from one slab
// of its own, from any of the three layouts. It refuses a snapshot
// carrying more than one layout, lengths that are negative or do not add
// up to the entries present, and a neighbour id outside the items the
// snapshot covers.
func FromSnapshot(s Snapshot) (*GIS, error) {
	raw, flat, perItem := len(s.IDs) > 0 || len(s.Scores) > 0, len(s.Index) > 0 || len(s.Score) > 0, len(s.Neighbors) > 0
	switch {
	case perItem && (raw || flat || len(s.Lens) > 0), raw && flat:
		return nil, fmt.Errorf("similarity: snapshot carries more than one neighbour layout")
	case perItem:
		s.Lens = make([]int32, len(s.Neighbors))
		for i, list := range s.Neighbors {
			s.Lens[i] = int32(len(list))
		}
	}

	// have is how many entries the layout offers; summing the lengths
	// stops once it is passed, so no sum of int32s can overflow.
	w := IDWidth(len(s.Lens))
	have := len(s.Index)
	switch {
	case raw:
		have = len(s.IDs) / w
	case perItem:
		have = math.MaxInt
	}
	total := 0
	for i, n := range s.Lens {
		if n < 0 {
			return nil, fmt.Errorf("similarity: snapshot item %d has negative neighbour count %d", i, n)
		}
		if total += int(n); total > have {
			break
		}
	}
	switch {
	case raw && (len(s.IDs) != total*w || len(s.Scores) != total*8):
		return nil, fmt.Errorf("similarity: snapshot holds %d id bytes and %d score bytes for %d neighbour slots of %d+8 bytes",
			len(s.IDs), len(s.Scores), total, w)
	case !raw && !perItem && (len(s.Index) != total || len(s.Score) != total):
		return nil, fmt.Errorf("similarity: snapshot holds %d indices and %d scores for %d neighbour slots",
			len(s.Index), len(s.Score), total)
	}

	slab := make([]mathx.Scored, total)
	switch {
	case raw && w == 2:
		for k := range slab {
			slab[k] = mathx.Scored{Index: int32(binary.LittleEndian.Uint16(s.IDs[2*k:])),
				Score: math.Float64frombits(binary.LittleEndian.Uint64(s.Scores[8*k:]))}
		}
	case raw:
		for k := range slab {
			slab[k] = mathx.Scored{Index: int32(binary.LittleEndian.Uint32(s.IDs[4*k:])),
				Score: math.Float64frombits(binary.LittleEndian.Uint64(s.Scores[8*k:]))}
		}
	case perItem:
		k := 0
		for _, list := range s.Neighbors {
			k += copy(slab[k:], list)
		}
	default:
		for k := range slab {
			slab[k] = mathx.Scored{Index: s.Index[k], Score: s.Score[k]}
		}
	}

	g := &GIS{neighbors: make([][]mathx.Scored, len(s.Lens)), opts: s.Opts}
	off := 0
	for i, n := range s.Lens {
		list := slab[off : off+int(n) : off+int(n)]
		for k, e := range list {
			if e.Index < 0 || int(e.Index) >= len(s.Lens) {
				return nil, fmt.Errorf("similarity: snapshot item %d entry %d names neighbour %d, outside the %d items it covers",
					i, k, e.Index, len(s.Lens))
			}
		}
		if n > 0 {
			g.neighbors[i] = list
		}
		off += int(n)
	}
	return g, nil
}
