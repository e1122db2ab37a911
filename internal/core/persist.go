package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"cfsf/internal/atomicfile"
	"cfsf/internal/cluster"
	"cfsf/internal/mathx"
	"cfsf/internal/ratings"
	"cfsf/internal/similarity"
	"cfsf/internal/smoothing"
)

// A model file is the one persisted form of a model: the `-model` file
// cfsf-server boots from, every recovery point internal/lifecycle writes,
// and what a follower bootstraps from. It stores what cannot be derived —
// the configuration, the matrix, which neighbours each item's GIS list
// keeps (as a set: Eq. 5 lists are sorted by weight), the cluster each
// user is assigned to — plus the WAL watermark it was written at, and
// Load derives the rest: GIS weights and list order, cluster centroids
// and member lists, smoothing tables, caches. So a loaded model predicts
// bit-for-bit like the saved one.
//
// The file is one checksummed frame: magic, kind, payload length, the
// CRC32-IEEE of the payload, then the gob payload. A torn, truncated or
// bit-rotted file is refused at load, and so is any byte after the frame.
const (
	blobKindShared byte = 1
	blobKindShard  byte = 2
	blobKindModel  byte = 3

	blobHeaderSize = 8 + 1 + 8 + 4
	// maxBlobPayload caps a corrupt length field before allocation.
	maxBlobPayload = int64(1) << 34
)

var blobMagic = [8]byte{'C', 'F', 'S', 'F', 'B', 'L', 'B', 1}

// fileWire is the gob payload of a model file. The matrix travels as
// per-user row lengths and three columns over every rating in row order,
// each a Rice code (mathx.RiceCode) under the parameter that makes it
// shortest: ItemCode each row's ascending item ids as gaps (id − previous
// − 1, the first as the id), as the GIS stores its id sets
// (similarity.Snapshot); ValueCode each value as its index into Scale,
// the matrix's distinct values ascending; and TimeCode, for a timed
// matrix, each timestamp as its zigzagged difference from the one before,
// carried across rows from 0 (mathx.DeltaCode).
//
//cfsf:wire fileWireVersion
type fileWire struct {
	Version   int
	Config    Config
	NumUsers  int
	NumItems  int
	MinRating float64
	MaxRating float64
	HasTimes  bool
	// GIS holds each item's neighbour id set alone; only a GIS that
	// blends in item attributes also stores its weights (Scores), since
	// no matrix reproduces them.
	GIS similarity.Snapshot
	// Clusters holds Assign, K, Iterations and Inertia; Load derives
	// Members, Mean and Count from the assignment and the rows
	// (cluster.Result.Derive).
	Clusters *cluster.Result
	// Seq is the WAL watermark the model folds: every rating with a
	// sequence at or below it. Zero for a model saved outside a data dir.
	Seq       uint64
	RowLens   []int32
	ItemCode  mathx.RiceCode
	Scale     []float64
	ValueCode mathx.RiceCode
	TimeCode  mathx.RiceCode // empty when the matrix carries no timestamps

	// RowItems, Values and Times are version 2's matrix columns: row
	// items gap-coded a uvarint each (mathx.NextGap), every value a
	// float64 and every timestamp an int64. Items is version 1's row item
	// ids, one int32 each, beside Values and Times. They are only ever
	// decoded.
	RowItems []byte
	Values   []float64
	Times    []int64
	Items    []int32
}

// fileWireVersion 3 stores every integer column Rice-coded: the GIS id
// sets, the row items, the values as indexes into their scale, and the
// timestamps as deltas. A version 3 file carrying a column an earlier
// version stores in its place — version 2's byte-coded RowItems or Set,
// float64 Values, int64 Times, version 1's Items — is refused, not
// trusted, and so is one carrying a part the load derives (strayPart).
// Version 2 files (sets, not orders, each column in whole bytes) and
// version 1 files (GIS ids in list order, the clustering whole, Items)
// still load. The formats before the model file — the unframed gob
// `-model` file (modelWire) and a manifest's shared and shard blobs —
// still load too (persist_legacy.go); nothing writes them any more.
const fileWireVersion = 3

func writeBlob(w io.Writer, kind byte, payload []byte) error {
	var hdr [blobHeaderSize]byte
	copy(hdr[:8], blobMagic[:])
	hdr[8] = kind
	binary.BigEndian.PutUint64(hdr[9:], uint64(len(payload)))
	binary.BigEndian.PutUint32(hdr[17:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("cfsf: write blob header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("cfsf: write blob payload: %w", err)
	}
	return nil
}

func readBlob(r io.Reader, wantKind byte) ([]byte, error) {
	var hdr [blobHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("cfsf: read blob header: %w", err)
	}
	if [8]byte(hdr[:8]) != blobMagic {
		return nil, fmt.Errorf("cfsf: bad blob magic")
	}
	if hdr[8] != wantKind {
		return nil, fmt.Errorf("cfsf: blob kind %d, want %d", hdr[8], wantKind)
	}
	n := int64(binary.BigEndian.Uint64(hdr[9:17]))
	if n < 0 || n > maxBlobPayload {
		return nil, fmt.Errorf("cfsf: blob payload length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("cfsf: read blob payload: %w", err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.BigEndian.Uint32(hdr[17:]) {
		return nil, fmt.Errorf("cfsf: blob checksum mismatch")
	}
	return payload, nil
}

// Save writes the model as a model file at watermark 0.
func (mod *Model) Save(w io.Writer) error { return mod.SaveAt(w, 0) }

// SaveAt writes the model as a model file recording watermark seq.
func (mod *Model) SaveAt(w io.Writer, seq uint64) error {
	m, cl := mod.m, mod.clusters
	n := m.NumRatings()
	wire := fileWire{
		Version:   fileWireVersion,
		Config:    mod.cfg,
		NumUsers:  m.NumUsers(),
		NumItems:  m.NumItems(),
		MinRating: m.MinRating(),
		MaxRating: m.MaxRating(),
		HasTimes:  m.HasTimes(),
		GIS:       mod.gisSnapshot(),
		Clusters:  &cluster.Result{Assign: cl.Assign, K: cl.K, Iterations: cl.Iterations, Inertia: cl.Inertia},
		Seq:       seq,
		RowLens:   make([]int32, m.NumUsers()),
	}
	items, values := make([]uint64, 0, n), make([]uint64, 0, n)
	var times []uint64
	if wire.HasTimes {
		times = make([]uint64, 0, n)
	}
	ids := map[uint64]uint64{} // a value's bits → its index into scale
	var scale []float64        // the distinct values, in order of first appearance
	prevTime := int64(0)
	for u := range wire.RowLens {
		row := m.UserRatings(u)
		wire.RowLens[u] = int32(len(row))
		prev := int32(-1)
		for _, e := range row {
			id, ok := ids[math.Float64bits(e.Value)]
			if !ok {
				id = uint64(len(scale))
				ids[math.Float64bits(e.Value)] = id
				scale = append(scale, e.Value)
			}
			items, values = append(items, uint64(e.Index-prev-1)), append(values, id)
			prev = e.Index
		}
		if wire.HasTimes {
			for _, t := range m.UserRatingTimes(u) {
				times = append(times, mathx.DeltaCode(prevTime, t))
				prevTime = t
			}
		}
	}
	wire.Scale = sortScale(scale, values)
	wire.ItemCode, wire.ValueCode, wire.TimeCode = mathx.EncodeRice(items), mathx.EncodeRice(values), mathx.EncodeRice(times)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("cfsf: save model: %w", err)
	}
	return writeBlob(w, blobKindModel, buf.Bytes())
}

// sortScale returns scale — a matrix's distinct values, in order of
// first appearance — ascending in valueOrder, and rewrites values, each an
// index into scale, to index the result.
func sortScale(scale []float64, values []uint64) []float64 {
	byValue := make([]int, len(scale))
	for i := range byValue {
		byValue[i] = i
	}
	slices.SortFunc(byValue, func(a, b int) int { return valueOrder(scale[a], scale[b]) })
	sorted, rank := make([]float64, len(scale)), make([]uint64, len(scale))
	for r, i := range byValue {
		sorted[r], rank[i] = scale[i], uint64(r)
	}
	for k, i := range values {
		values[k] = rank[i]
	}
	return sorted
}

// valueOrder orders finite values as numbers, and −0 before +0, so that
// a matrix holding both keeps both in its Scale and reloads bit for bit.
func valueOrder(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(b)>>63, math.Float64bits(a)>>63)
}

// SaveFile saves the model to path atomically and durably (temp file,
// fsync, rename, directory fsync), so a crash mid-save never leaves a
// torn model file behind.
func (mod *Model) SaveFile(path string) error {
	return atomicfile.WriteToAndSync(path, 0o644, func(f *os.File) error {
		return mod.Save(f)
	})
}

// File is a decoded model file before the model is rebuilt from it: the
// shared part (configuration, dimensions, GIS neighbour lists,
// clustering), the watermark, and the matrix rows.
type File struct {
	SharedPart
	Seq   uint64
	Rows  [][]ratings.Entry // Rows[u] is user u's ratings, item ascending
	Times [][]int64         // aligned with Rows; nil when the matrix carries no timestamps

	// clusterDerive is how long deriving the clustering's centroids and
	// member lists took (zero for a version 1 file, which stores them).
	clusterDerive time.Duration
}

// Decode reads and validates one model file: the frame and its checksum,
// nothing after it, the version, no part its version does not store
// (strayPart), the row slices against each other and — naming the user
// and the entry — every row's items against the item count and values
// against their scale, the configuration, the GIS against the item count,
// and the clustering against the dimensions. It derives a version 2 or 3
// file's clustering from its assignment and rows (cluster.Result.Derive),
// so the shared part is whole whichever version wrote it, and rebuilds
// nothing else; Model does.
//
//cfsf:wallclock-ok clustering derivation duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func Decode(r io.Reader) (*File, error) {
	payload, err := readBlob(r, blobKindModel)
	if err != nil {
		return nil, err
	}
	var one [1]byte
	if n, _ := io.ReadFull(r, one[:]); n > 0 {
		return nil, fmt.Errorf("cfsf: corrupt model file: bytes after the frame")
	}
	var wire fileWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("cfsf: decode model file: %w", err)
	}
	if wire.Version < 1 || wire.Version > fileWireVersion {
		return nil, fmt.Errorf("cfsf: unsupported model file version %d", wire.Version)
	}
	if part := strayPart(&wire); part != "" {
		return nil, fmt.Errorf("cfsf: corrupt model file: version %d stores no %s", wire.Version, part)
	}
	f := &File{
		SharedPart: SharedPart{
			Config:    wire.Config,
			NumUsers:  wire.NumUsers,
			NumItems:  wire.NumItems,
			MinRating: wire.MinRating,
			MaxRating: wire.MaxRating,
			HasTimes:  wire.HasTimes,
			GIS:       wire.GIS,
			Clusters:  wire.Clusters,
		},
		Seq: wire.Seq,
	}
	if err := f.decodeRows(&wire); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model file: %w", err)
	}
	if wire.Version >= 2 {
		t := time.Now()
		if err := f.deriveClusters(); err != nil {
			return nil, fmt.Errorf("cfsf: corrupt model file: %w", err)
		}
		f.clusterDerive = time.Since(t)
	}
	if err := f.SharedPart.check(); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model file: %w", err)
	}
	return f, nil
}

// strayPart names the first part wire carries that its version does not
// store — a part a later version derives at load, or a column another
// version stores in its place — or returns "".
func strayPart(wire *fileWire) string {
	g, c := &wire.GIS, wire.Clusters
	rice := func(r mathx.RiceCode) bool { return len(r.Bits) > 0 || r.K != 0 }
	for _, p := range []struct {
		name     string
		carried  bool
		from, to int // the versions that store it
	}{
		{"GIS list in list order, it is derived at load", len(g.IDs) > 0 || len(g.Index) > 0 || len(g.Score) > 0 || len(g.Neighbors) > 0, 1, 1},
		{"GIS weights of a GIS that does not blend in item attributes, they are derived at load", len(g.Scores) > 0 && !wire.Config.blendsContent(), 1, 1},
		{"cluster Members, they are derived at load", c != nil && len(c.Members) > 0, 1, 1},
		{"cluster Mean, it is derived at load", c != nil && len(c.Mean) > 0, 1, 1},
		{"cluster Count, it is derived at load", c != nil && len(c.Count) > 0, 1, 1},
		{"version 1 row Items", len(wire.Items) > 0, 1, 1},
		{"version 2 gap-coded GIS Set", len(g.Set) > 0, 2, 2},
		{"version 2 gap-coded RowItems", len(wire.RowItems) > 0, 2, 2},
		{"version 1–2 float64 Values", len(wire.Values) > 0, 1, 2},
		{"version 1–2 int64 Times", len(wire.Times) > 0, 1, 2},
		{"version 3 Rice-coded GIS SetCode", rice(g.SetCode), 3, 3},
		{"version 3 Rice-coded ItemCode", rice(wire.ItemCode), 3, 3},
		{"version 3 value Scale", len(wire.Scale) > 0, 3, 3},
		{"version 3 Rice-coded ValueCode", rice(wire.ValueCode), 3, 3},
		{"version 3 Rice-coded TimeCode", rice(wire.TimeCode), 3, 3},
	} {
		if p.carried && (wire.Version < p.from || wire.Version > p.to) {
			return p.name
		}
	}
	return ""
}

// decodeRows checks the row lengths of wire against the users and the
// entries the item column offers, and decodes f's rows and timestamps
// from the columns of wire's version (decodeColumns, decodeByteColumns).
func (f *File) decodeRows(wire *fileWire) error {
	if len(wire.RowLens) != wire.NumUsers {
		return fmt.Errorf("%d row lengths for %d users", len(wire.RowLens), wire.NumUsers)
	}
	cols := [3]mathx.RiceCode{wire.ItemCode, wire.ValueCode, wire.TimeCode}
	if wire.Version >= 3 {
		for i, c := range cols {
			if err := c.Check(); err != nil {
				return fmt.Errorf("%s column: %w", columnNames[i], err)
			}
		}
	}
	// have bounds the entries the item column offers — a Rice code takes
	// at least k+1 bits, a gap code a byte — so no sum of lengths can
	// overflow.
	have := wire.ItemCode.MaxValues()
	switch wire.Version {
	case 1:
		have = len(wire.Items)
	case 2:
		have = len(wire.RowItems)
	}
	total := 0
	for u, n := range wire.RowLens {
		if n < 0 || int(n) > have-total {
			return fmt.Errorf("row length %d of user %d overruns %d entries", n, u, have)
		}
		total += int(n)
	}
	back := make([]ratings.Entry, total)
	var times []int64
	var err error
	if wire.Version >= 3 {
		if wire.HasTimes {
			times = make([]int64, total)
		}
		err = decodeColumns(wire, back, times)
	} else {
		times, err = decodeByteColumns(wire, back)
	}
	if err != nil {
		return err
	}
	f.Rows = make([][]ratings.Entry, wire.NumUsers)
	if wire.HasTimes {
		f.Times = make([][]int64, wire.NumUsers)
	}
	off := 0
	for u, n := range wire.RowLens {
		f.Rows[u] = back[off : off+int(n) : off+int(n)]
		if wire.HasTimes {
			f.Times[u] = times[off : off+int(n) : off+int(n)]
		}
		off += int(n)
	}
	return nil
}

// decodeColumns decodes a version 3 file's Rice-coded columns into back
// and, for a timed matrix, times, both as long as the row lengths add up
// to. It refuses a Scale that is not finite or not strictly ascending
// (valueOrder), timestamps in an untimed file, and — naming the user and
// the entry — a code that runs past its column, an item that overruns the
// items and a value index past the Scale, and then bytes or nonzero pad
// bits left in a column after the last entry. A Scale value off
// [MinRating, MaxRating] is not refused: Save writes what the matrix
// holds, and a matrix can hold such values — one an older build saved
// after it applied them, or one built with a narrower explicit scale.
func decodeColumns(wire *fileWire, back []ratings.Entry, times []int64) error {
	for i, v := range wire.Scale {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("scale value %d is %v, not finite", i, v)
		case i > 0 && valueOrder(wire.Scale[i-1], v) >= 0:
			return fmt.Errorf("scale value %d (%v) does not ascend from %v", i, v, wire.Scale[i-1])
		}
	}
	if !wire.HasTimes && (len(wire.TimeCode.Bits) > 0 || wire.TimeCode.K != 0) {
		return fmt.Errorf("timestamps in a file whose matrix carries none")
	}
	var cols [3]*mathx.RiceReader // items, values and times, as many as back and times hold
	for c, code := range []mathx.RiceCode{wire.ItemCode, wire.ValueCode, wire.TimeCode} {
		n := len(back)
		if c == 2 {
			n = len(times)
		}
		var err error
		if cols[c], err = code.Reader(n); err != nil {
			return fmt.Errorf("%s column: %w", columnNames[c], err)
		}
	}
	items, values, stamps := cols[0], cols[1], cols[2]
	k, prevTime := 0, int64(0)
	for u, n := range wire.RowLens {
		prev := int32(-1)
		for j := 0; j < int(n); j++ {
			gap, err := items.Next()
			if err != nil {
				return fmt.Errorf("user %d entry %d: item: %w", u, j, err)
			}
			item, ok := mathx.GapID(prev, gap, wire.NumItems)
			if !ok {
				return fmt.Errorf("user %d entry %d: the item after item %d overruns the %d items", u, j, prev, wire.NumItems)
			}
			at, err := values.Next()
			if err != nil {
				return fmt.Errorf("user %d entry %d: value: %w", u, j, err)
			}
			if at >= uint64(len(wire.Scale)) {
				return fmt.Errorf("user %d entry %d: value index %d past the %d scale values", u, j, at, len(wire.Scale))
			}
			prev = item
			back[k] = ratings.Entry{Index: item, Value: wire.Scale[at]}
			if times != nil {
				z, err := stamps.Next()
				if err != nil {
					return fmt.Errorf("user %d entry %d: time: %w", u, j, err)
				}
				prevTime = mathx.DeltaDecode(prevTime, z)
				times[k] = prevTime
			}
			k++
		}
	}
	for c, r := range cols {
		if err := r.End(); err != nil {
			return fmt.Errorf("%s column after the row of user %d, the last: %w", columnNames[c], wire.NumUsers-1, err)
		}
	}
	return nil
}

// columnNames names a version 3 file's Rice-coded matrix columns in
// refusals.
var columnNames = [3]string{"item", "value", "time"}

// decodeByteColumns decodes a version 1 or 2 file's columns into back —
// a version 2 file's gap-coded RowItems or a version 1 file's Items, each
// beside its Values — and returns its Times, checking every column's
// length against back's and, naming the user and the entry, every
// gap-coded item against the item count.
func decodeByteColumns(wire *fileWire, back []ratings.Entry) ([]int64, error) {
	total := len(back)
	switch {
	case len(wire.Values) != total:
		return nil, fmt.Errorf("%d values for %d row slots", len(wire.Values), total)
	case wire.Version == 1 && len(wire.Items) != total:
		return nil, fmt.Errorf("%d items for %d row slots", len(wire.Items), total)
	}
	wantTimes := 0
	if wire.HasTimes {
		wantTimes = total
	}
	if len(wire.Times) != wantTimes {
		return nil, fmt.Errorf("%d timestamps for %d entries (timed %v)", len(wire.Times), total, wire.HasTimes)
	}
	if wire.Version == 1 {
		for k := range back {
			back[k] = ratings.Entry{Index: wire.Items[k], Value: wire.Values[k]}
		}
		return wire.Times, nil
	}
	off, k := 0, 0
	for u, n := range wire.RowLens {
		prev := int32(-1)
		for j := 0; j < int(n); j++ {
			item, w := mathx.NextGap(wire.RowItems[off:], prev, wire.NumItems)
			switch {
			case w == 0:
				return nil, fmt.Errorf("user %d entry %d: the item gap runs past the %d row item bytes", u, j, len(wire.RowItems))
			case w < 0:
				return nil, fmt.Errorf("user %d entry %d: the item after item %d overruns the %d items", u, j, prev, wire.NumItems)
			}
			off += w
			prev = item
			back[k] = ratings.Entry{Index: item, Value: wire.Values[k]}
			k++
		}
	}
	if off != len(wire.RowItems) {
		return nil, fmt.Errorf("%d row item bytes after the row of user %d, the last", len(wire.RowItems)-off, wire.NumUsers-1)
	}
	return wire.Times, nil
}

// deriveClusters derives the clustering's member lists and centroids
// from its assignment on f's rows. It first refuses an assignment of
// another length than the users, a K outside [1, NumUsers] (Run never
// fits more clusters than users, and users are never removed), and an
// item count the GIS lists do not match, so nothing is allocated by a
// length the rest of the file does not bear out.
func (f *File) deriveClusters() error {
	c := f.Clusters
	switch {
	case c == nil:
		return fmt.Errorf("missing clustering")
	case len(f.GIS.Lens) != f.NumItems:
		return fmt.Errorf("GIS covers %d items, model has %d", len(f.GIS.Lens), f.NumItems)
	case len(c.Assign) != f.NumUsers:
		return fmt.Errorf("cluster: %d assignments for %d users", len(c.Assign), f.NumUsers)
	case c.K < 1 || c.K > f.NumUsers:
		return fmt.Errorf("cluster: K = %d for %d users", c.K, f.NumUsers)
	}
	return c.Derive(f.NumItems, func(u int) []ratings.Entry { return f.Rows[u] })
}

// Model rebuilds the model the file holds (AssembleModel). Its
// TrainStats.ClusterDuration is the clustering's derivation in Decode, as
// its GISDuration is the GIS's.
func (f *File) Model() (*Model, error) {
	mod, err := AssembleModel(&f.SharedPart, f.Rows, f.Times)
	if err != nil {
		return nil, err
	}
	stampClusterDerive(mod, f.clusterDerive)
	return mod, nil
}

// Load reads a model file. A file written before the model file existed —
// an unframed gob `-model` file — loads too (persist_legacy.go).
func Load(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cfsf: load model: %w", err)
	}
	if !bytes.HasPrefix(data, blobMagic[:]) {
		return loadModelWire(bytes.NewReader(data))
	}
	f, err := Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return f.Model()
}

// LoadFile loads a model saved with SaveFile.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// stampRebuildDuration records how long reconstructing the derived
// offline state took in the model's TrainStats.
//
//cfsf:init-only called by the loaders on a model that has not been returned yet
//cfsf:wallclock-ok rebuild duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func stampRebuildDuration(mod *Model, start time.Time) {
	mod.stats.TotalDuration = time.Since(start)
}

// stampClusterDerive records how long deriving the clustering took in
// the model's TrainStats.
//
//cfsf:init-only called by File.Model on a model that has not been returned yet
func stampClusterDerive(mod *Model, d time.Duration) {
	mod.stats.ClusterDuration = d
}

// gisSnapshot is the GIS as a model file stores it: the neighbour id sets
// alone, unless the weights blend in item attributes and no matrix
// reproduces them.
func (mod *Model) gisSnapshot() similarity.Snapshot {
	return mod.gis.Snapshot(mod.cfg.blendsContent())
}

// rebuildModel reconstructs the derived offline state (GIS weights and
// list order, smoothing tables, caches) around persisted artefacts. It
// refuses a clustering that does not fit m (cluster.Result.Check), and a
// GIS snapshot that does not cover m's items (Predict indexes the GIS by
// item id) or does not derive on m (similarity.FromSnapshot).
//
//cfsf:wallclock-ok GIS derivation duration recorded in TrainStats only; no clock value reaches predictions or replayed state
func rebuildModel(cfg Config, m *ratings.Matrix, snap similarity.Snapshot, clusters *cluster.Result) (*Model, error) {
	if err := clusters.Check(m.NumUsers(), m.NumItems()); err != nil {
		return nil, err
	}
	t := time.Now()
	gis, err := similarity.FromSnapshot(snap, m)
	if err != nil {
		return nil, err
	}
	mod := &Model{
		cfg:      cfg,
		m:        m,
		gis:      gis,
		clusters: clusters,
	}
	mod.stats.GISDuration = time.Since(t)
	mod.sm = smoothing.New(mod.m, mod.clusters)
	mod.neighborCache = make([]atomic.Pointer[[]likeMinded], mod.m.NumUsers())
	mod.initRecCache()
	mod.buildTopM(nil)
	mod.stats.GISNeighbors = mod.gis.TotalNeighbors()
	mod.stats.ClusterIters = clusters.Iterations
	return mod, nil
}
