package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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

// fileWire is the gob payload of a model file. The matrix travels as flat
// row-major slices: per user its row length, then every row's item ids,
// values and (for a timed matrix) timestamps, concatenated. A row's item
// ids ascend, and RowItems stores them in mathx's gap code, as the GIS
// stores its id sets (similarity.Snapshot).
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
	Seq      uint64
	RowLens  []int32
	RowItems []byte
	Values   []float64
	Times    []int64 // empty when the matrix carries no timestamps

	// Items is version 1's row item ids, one int32 each. Only ever
	// decoded.
	Items []int32
}

// fileWireVersion 2 stores sets, not orders: the GIS as id sets with list
// order derived at load, the clustering as its assignment with centroids
// and member lists derived at load, and row items gap-coded. A version 2
// file carrying a derived part — Members, Mean or Count, GIS ids in list
// order, Eq. 5 weights, version 1's Items — is refused, not trusted. Version 1 files
// (GIS ids in list order, the clustering whole, Items) still load. The
// formats before the model file — the unframed gob `-model` file
// (modelWire) and a manifest's shared and shard blobs — still load too
// (persist_legacy.go); nothing writes them any more.
const fileWireVersion = 2

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
		RowItems:  make([]byte, 0, m.NumRatings()),
		Values:    make([]float64, 0, m.NumRatings()),
	}
	if wire.HasTimes {
		wire.Times = make([]int64, 0, m.NumRatings())
	}
	for u := range wire.RowLens {
		row := m.UserRatings(u)
		wire.RowLens[u] = int32(len(row))
		prev := int32(-1)
		for _, e := range row {
			wire.RowItems = mathx.AppendGap(wire.RowItems, prev, e.Index)
			wire.Values = append(wire.Values, e.Value)
			prev = e.Index
		}
		if wire.HasTimes {
			wire.Times = append(wire.Times, m.UserRatingTimes(u)...)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("cfsf: save model: %w", err)
	}
	return writeBlob(w, blobKindModel, buf.Bytes())
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
// nothing after it, the version, no derived part in a version 2 file, the
// row slices against each other and — naming the user — every row's
// gap-coded items against the item count, the configuration, the GIS
// against the item count, and the clustering against the dimensions. It
// derives a version 2 file's clustering from its assignment and rows
// (cluster.Result.Derive), so the shared part is whole whichever version
// wrote it, and rebuilds nothing else; Model does.
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
	sets := wire.Version >= 2
	if sets {
		if part := derivedPart(&wire); part != "" {
			return nil, fmt.Errorf("cfsf: corrupt model file: version %d stores no %s, it is derived at load", wire.Version, part)
		}
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
	if err := f.decodeRows(&wire, sets); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model file: %w", err)
	}
	if sets {
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

// derivedPart names the first part a version 2 file stores that it must
// leave to the load to derive, or returns "".
func derivedPart(wire *fileWire) string {
	g, c := &wire.GIS, wire.Clusters
	switch {
	case len(g.IDs) > 0 || len(g.Index) > 0 || len(g.Score) > 0 || len(g.Neighbors) > 0:
		return "GIS list in list order"
	case len(g.Scores) > 0 && !wire.Config.blendsContent():
		return "GIS weights of a GIS that does not blend in item attributes"
	case c != nil && len(c.Members) > 0:
		return "cluster Members"
	case c != nil && len(c.Mean) > 0:
		return "cluster Mean"
	case c != nil && len(c.Count) > 0:
		return "cluster Count"
	case len(wire.Items) > 0:
		return "version 1 row Items"
	}
	return ""
}

// decodeRows checks the row slices of wire against each other and carves
// f's rows and timestamps from them: a version 2 file's gap-coded items
// (sets) or a version 1 file's Items.
func (f *File) decodeRows(wire *fileWire, sets bool) error {
	if len(wire.RowLens) != wire.NumUsers {
		return fmt.Errorf("%d row lengths for %d users", len(wire.RowLens), wire.NumUsers)
	}
	// have is how many entries the item ids offer — a gap-coded one takes
	// at least one byte — so no sum of lengths can overflow.
	have := len(wire.Items)
	if sets {
		have = len(wire.RowItems)
	}
	total := 0
	for u, n := range wire.RowLens {
		if n < 0 || int(n) > have-total {
			return fmt.Errorf("row length %d of user %d overruns %d entries", n, u, have)
		}
		total += int(n)
	}
	switch {
	case len(wire.Values) != total:
		return fmt.Errorf("%d values for %d row slots", len(wire.Values), total)
	case !sets && len(wire.Items) != total:
		return fmt.Errorf("%d items for %d row slots", len(wire.Items), total)
	}
	wantTimes := 0
	if wire.HasTimes {
		wantTimes = total
	}
	if len(wire.Times) != wantTimes {
		return fmt.Errorf("%d timestamps for %d entries (timed %v)", len(wire.Times), total, wire.HasTimes)
	}
	back := make([]ratings.Entry, total)
	if sets {
		off, k := 0, 0
		for u, n := range wire.RowLens {
			prev := int32(-1)
			for j := 0; j < int(n); j++ {
				item, w := mathx.NextGap(wire.RowItems[off:], prev, wire.NumItems)
				switch {
				case w == 0:
					return fmt.Errorf("user %d entry %d: the item gap runs past the %d row item bytes", u, j, len(wire.RowItems))
				case w < 0:
					return fmt.Errorf("user %d entry %d: the item after item %d overruns the %d items", u, j, prev, wire.NumItems)
				}
				off += w
				prev = item
				back[k] = ratings.Entry{Index: item, Value: wire.Values[k]}
				k++
			}
		}
		if off != len(wire.RowItems) {
			return fmt.Errorf("%d row item bytes after the row of user %d, the last", len(wire.RowItems)-off, wire.NumUsers-1)
		}
	} else {
		for k := range back {
			back[k] = ratings.Entry{Index: wire.Items[k], Value: wire.Values[k]}
		}
	}
	f.Rows = make([][]ratings.Entry, wire.NumUsers)
	if wire.HasTimes {
		f.Times = make([][]int64, wire.NumUsers)
	}
	off := 0
	for u, n := range wire.RowLens {
		f.Rows[u] = back[off : off+int(n) : off+int(n)]
		if wire.HasTimes {
			f.Times[u] = wire.Times[off : off+int(n) : off+int(n)]
		}
		off += int(n)
	}
	return nil
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
