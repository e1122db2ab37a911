package similarity

import (
	"encoding/binary"
	"fmt"
	"math"

	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
)

// Snapshot is the serialisable form of a GIS: every list's horizon
// (GIS.Horizon) and the options the GIS was built with, and no list. A
// list holds exactly its item's candidates that precede its horizon, and
// a candidate and its weight are a function of the matrix, which every
// persisted model stores; so FromSnapshot selects every list again, with
// BuildGIS's own accumulation, bit for bit the list BuildGIS and Refresh
// left. A GIS whose weights blend in item attributes (BuildGISWithContent)
// has lists no matrix reproduces, and no snapshot of it loads as itself.
//
// The horizons travel bit for bit, because no matrix reproduces them:
// they bound candidates a list turned away at weights they held then.
// TauIDs holds each item's τ id, Rice-coded (mathx.EncodeRice), and
// TauScores its weight as math.Float64bits, 8 bytes little-endian — the
// zero τ as id 0 at weight 0. On the ledger fixture that is 8 bytes plus
// about 10 bits an item, under 10 KB for 1 000 items.
type Snapshot struct {
	TauIDs    mathx.RiceCode
	TauScores []byte
	Opts      GISOptions
}

// Snapshot extracts every list's horizon and g's options.
func (g *GIS) Snapshot() Snapshot {
	q := len(g.neighbors)
	s := Snapshot{TauScores: make([]byte, 0, 8*q), Opts: g.opts}
	ids := make([]uint64, q)
	for i := range ids {
		tau := g.Horizon(i)
		ids[i] = uint64(tau.Index)
		s.TauScores = binary.LittleEndian.AppendUint64(s.TauScores, math.Float64bits(tau.Score))
	}
	s.TauIDs = mathx.EncodeRice(ids)
	return s
}

// horizons decodes the horizons of q items into tau, unless tau is nil. It
// refuses, naming the item, a count other than one per item, an id past
// the items, and a weight that is neither the zero τ's nor one a GIS entry
// can hold: positive and finite.
func (s *Snapshot) horizons(q int, tau []mathx.Scored) error {
	if err := s.TauIDs.Check(); err != nil {
		return fmt.Errorf("similarity: snapshot horizon code: %w", err)
	}
	if len(s.TauScores)%8 != 0 || len(s.TauScores)/8 != q {
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

// Check validates s as the snapshot of a GIS over q items, as
// FromSnapshot does before it selects anything.
func (s Snapshot) Check(q int) error { return s.horizons(q, nil) }

// FromSnapshot selects the GIS s is the snapshot of on m: item i's list
// is every candidate of i on m, under s's options, that precedes the
// horizon s stores for it (buildGIS). It refuses what horizons does, for
// m's items, and a list that comes out longer than TopN, which no GIS
// holds: such a horizon is not one BuildGIS or Refresh left.
func FromSnapshot(s Snapshot, m *ratings.Matrix) (*GIS, error) {
	tau := make([]mathx.Scored, m.NumItems())
	if err := s.horizons(len(tau), tau); err != nil {
		return nil, err
	}
	g := buildGIS(m, s.Opts, tau)
	for i, list := range g.neighbors {
		if s.Opts.TopN > 0 && len(list) > s.Opts.TopN {
			return nil, fmt.Errorf("similarity: snapshot item %d: %d candidates precede its horizon, past TopN %d", i, len(list), s.Opts.TopN)
		}
	}
	return g, nil
}
