package similarity

import (
	"fmt"

	"cfsf/internal/mathx"
)

// Snapshot is the serialisable form of a GIS. Neighbour lists are the
// expensive artefact of the offline phase, so model persistence stores
// them rather than recomputing.
//
// The lists are stored flat: item i's list is the Lens[i] entries of
// Index/Score that follow the lists of the items before it. Three scalar
// slices take gob's fast paths, where a [][]mathx.Scored goes through
// reflection once per entry.
type Snapshot struct {
	Lens  []int32
	Index []int32
	Score []float64
	Opts  GISOptions

	// Neighbors is the layout blobs of wire version 1 carry. It is only
	// ever decoded: Snapshot never fills it, and FromSnapshot refuses a
	// value holding both layouts.
	Neighbors [][]mathx.Scored
}

// Snapshot extracts a deep copy suitable for encoding.
func (g *GIS) Snapshot() Snapshot { return flatten(g.neighbors, g.opts) }

func flatten(lists [][]mathx.Scored, opts GISOptions) Snapshot {
	total := 0
	for _, list := range lists {
		total += len(list)
	}
	s := Snapshot{
		Lens:  make([]int32, len(lists)),
		Index: make([]int32, 0, total),
		Score: make([]float64, 0, total),
		Opts:  opts,
	}
	for i, list := range lists {
		s.Lens[i] = int32(len(list))
		for _, n := range list {
			s.Index = append(s.Index, n.Index)
			s.Score = append(s.Score, n.Score)
		}
	}
	return s
}

// FromSnapshot reconstructs a GIS whose lists are carved from one slab
// of its own. It refuses a snapshot whose lengths are negative or do not
// add up to the entries present, and one that carries both layouts.
func FromSnapshot(s Snapshot) (*GIS, error) {
	if len(s.Neighbors) > 0 {
		if len(s.Lens) > 0 || len(s.Index) > 0 || len(s.Score) > 0 {
			return nil, fmt.Errorf("similarity: snapshot carries both the flat and the per-item neighbour layout")
		}
		s = flatten(s.Neighbors, s.Opts)
	}
	total := 0
	for i, n := range s.Lens {
		if n < 0 {
			return nil, fmt.Errorf("similarity: snapshot item %d has negative neighbour count %d", i, n)
		}
		total += int(n)
	}
	if len(s.Index) != total || len(s.Score) != total {
		return nil, fmt.Errorf("similarity: snapshot holds %d indices and %d scores for %d neighbour slots",
			len(s.Index), len(s.Score), total)
	}
	slab := make([]mathx.Scored, total)
	for k := range slab {
		slab[k] = mathx.Scored{Index: s.Index[k], Score: s.Score[k]}
	}
	g := &GIS{neighbors: make([][]mathx.Scored, len(s.Lens)), opts: s.Opts}
	off := 0
	for i, n := range s.Lens {
		if n > 0 {
			g.neighbors[i] = slab[off : off+int(n) : off+int(n)]
		}
		off += int(n)
	}
	return g, nil
}
