package ratings

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// matrixWire is the stable on-disk representation of a Matrix: dims,
// scale and the rating triples in row-major order. Versioned so the
// format can evolve without breaking old snapshots.
//
//cfsf:wire matrixWireVersion
type matrixWire struct {
	Version   int
	NumUsers  int
	NumItems  int
	MinRating float64
	MaxRating float64
	Users     []int32
	Items     []int32
	Values    []float64
	Times     []int64 // aligned with the triples; absent when the matrix carries no timestamps
}

// matrixWireVersion 2 added Times; a version 1 stream (which could not
// carry timestamps) still decodes, as an untimed matrix.
const matrixWireVersion = 2

// GobEncode implements gob.GobEncoder, letting a Matrix be embedded in
// larger gob streams (model snapshots, caches).
func (m *Matrix) GobEncode() ([]byte, error) {
	w := matrixWire{
		Version:   matrixWireVersion,
		NumUsers:  m.numUsers,
		NumItems:  m.numItems,
		MinRating: m.minRating,
		MaxRating: m.maxRating,
		Users:     make([]int32, 0, m.nnz),
		Items:     make([]int32, 0, m.nnz),
		Values:    make([]float64, 0, m.nnz),
	}
	if m.rowTimes != nil {
		w.Times = make([]int64, 0, m.nnz)
	}
	for u := 0; u < m.numUsers; u++ {
		for _, e := range m.rows[u] {
			w.Users = append(w.Users, int32(u))
			w.Items = append(w.Items, e.Index)
			w.Values = append(w.Values, e.Value)
		}
		if m.rowTimes != nil {
			w.Times = append(w.Times, m.rowTimes[u]...)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Matrix) GobDecode(data []byte) error {
	var w matrixWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	if w.Version != 1 && w.Version != matrixWireVersion {
		return fmt.Errorf("ratings: unsupported matrix snapshot version %d", w.Version)
	}
	if len(w.Users) != len(w.Items) || len(w.Users) != len(w.Values) {
		return fmt.Errorf("ratings: corrupt matrix snapshot: %d/%d/%d triples",
			len(w.Users), len(w.Items), len(w.Values))
	}
	hasTimes := len(w.Times) > 0
	if hasTimes && len(w.Times) != len(w.Users) {
		return fmt.Errorf("ratings: corrupt matrix snapshot: %d timestamps for %d triples", len(w.Times), len(w.Users))
	}
	b := NewBuilder(w.NumUsers, w.NumItems)
	b.SetScale(w.MinRating, w.MaxRating)
	for k := range w.Users {
		var err error
		if hasTimes {
			err = b.AddWithTime(int(w.Users[k]), int(w.Items[k]), w.Values[k], w.Times[k])
		} else {
			err = b.Add(int(w.Users[k]), int(w.Items[k]), w.Values[k])
		}
		if err != nil {
			return fmt.Errorf("ratings: corrupt matrix snapshot: %w", err)
		}
	}
	*m = *b.Build()
	return nil
}
