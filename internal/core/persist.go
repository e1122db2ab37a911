package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"
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
// the configuration, the matrix, each GIS list's horizon τ (a list is
// every candidate on the matrix that precedes it), the cluster each user
// is assigned to — plus the WAL watermark it was written at, and Load
// derives the rest: every GIS list, selected under its horizon as
// BuildGIS selects it, cluster centroids and member lists, smoothing
// tables, caches. So a loaded model predicts bit-for-bit like the saved
// one.
//
// The file is one checksummed frame: magic, kind, payload length, the
// CRC32-IEEE of the payload, then the gob payload. A torn, truncated or
// bit-rotted file is refused at load, and so is any byte after the frame.
// The kind byte is 3: kinds 1 and 2 were a manifest's shared and shard
// blobs, which this build does not read.
const (
	blobKindModel byte = 3

	blobHeaderSize = 8 + 1 + 8 + 4
	// maxBlobPayload caps a corrupt length field before allocation.
	maxBlobPayload = int64(1) << 34
)

var blobMagic = [8]byte{'C', 'F', 'S', 'F', 'B', 'L', 'B', 1}

// fileWire is the gob payload of a model file. The matrix travels as
// per-user row lengths and three columns over every rating in row order,
// each a Rice code (mathx.RiceCode) under the parameter that makes it
// shortest: ItemCode each row's ascending item ids as gaps (id − previous
// − 1, the first as the id); ValueCode each value as its index into Scale,
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
	// GIS holds each list's horizon and the GIS options, and no list:
	// Load selects every list under its horizon (similarity.FromSnapshot).
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
}

// fileWireVersion 6 is version 5 less its GIS lists (similarity.Snapshot's
// Lens, SetCode and Scores): version 5 stored every list as an id set
// beside its horizon, and version 6 stores the horizon alone. A build
// reads the version it writes and the one before it (DESIGN §12); gob
// skips the fields a version 5 file carries and fileWire does not, so
// both decode through fileWire. Anything older — model file versions 1
// to 4, and the unframed gob `-model` file before them — is refused as
// ErrRetiredFormat, naming the builds that migrate it (MigratingBuilds).
const fileWireVersion = 6

// migratingBuilds are the builds that migrate a retired model file, in
// the order they run: d297876 reads model file versions 1 and 2 and the
// unframed gob `-model` file and writes version 3, ac5d191 reads version
// 3 and writes version 4, and f163a25 reads version 4 and writes version
// 5, which this build reads. Loading a file with one and saving it again
// migrates the file, as booting a data dir with it and letting it
// snapshot migrates the dir.
var migratingBuilds = [...]string{"d297876", "ac5d191", "f163a25"}

// MigratingBuilds returns the builds that migrate a model file of retired
// version v to one this build reads, in the order to run them; v = 0
// stands for the unframed gob `-model` file.
func MigratingBuilds(v int) []string { return migratingBuilds[max(v, 2)-2:] }

// migration names the builds that migrate a model file of retired version
// v, and the version each writes.
func migration(v int) string {
	var b strings.Builder
	for k, build := range MigratingBuilds(v) {
		writes := fileWireVersion - len(MigratingBuilds(v)) + k
		if k == 0 {
			fmt.Fprintf(&b, "build %s reads it and writes version %d", build, writes)
		} else {
			fmt.Fprintf(&b, ", which build %s migrates to version %d", build, writes)
		}
	}
	return b.String()
}

// ErrRetiredFormat marks the refusal of a file in a format older than the
// ones this build reads.
var ErrRetiredFormat = errors.New("a format this build no longer reads")

// modelWireName opens every unframed gob `-model` file: gob names the
// type of the first value it sends.
var modelWireName = []byte("modelWire")

func writeBlob(w io.Writer, payload []byte) error {
	var hdr [blobHeaderSize]byte
	copy(hdr[:8], blobMagic[:])
	hdr[8] = blobKindModel
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

func readBlob(r io.Reader) ([]byte, error) {
	var hdr [blobHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("cfsf: read blob header: %w", err)
	}
	switch {
	case bytes.Contains(hdr[:], modelWireName):
		return nil, fmt.Errorf("cfsf: an unframed gob model file is %w: %s", ErrRetiredFormat, migration(0))
	case [8]byte(hdr[:8]) != blobMagic:
		return nil, fmt.Errorf("cfsf: bad blob magic")
	case hdr[8] != blobKindModel:
		return nil, fmt.Errorf("cfsf: blob kind %d, want %d", hdr[8], blobKindModel)
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

// SaveAt writes the model as a model file recording watermark seq. It
// refuses a model whose GIS blends in item attributes: after an Apply its
// lists hold content-blended and Eq. 5 weights side by side (Refresh
// recomputes Eq. 5 weights only), a function of nothing the file stores.
func (mod *Model) SaveAt(w io.Writer, seq uint64) error {
	if mod.cfg.blendsContent() {
		return fmt.Errorf("cfsf: save model: %w", errBlendedGIS)
	}
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
		GIS:       mod.gis.Snapshot(),
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
	return writeBlob(w, buf.Bytes())
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
// configuration, the dimensions, the GIS horizons, the clustering, the
// watermark, and the matrix rows. Its GIS is still the snapshot: the lists
// are selected once the matrix exists (Model).
type File struct {
	Version   int // the model file version it was written in
	Config    Config
	NumUsers  int
	NumItems  int
	MinRating float64
	MaxRating float64
	HasTimes  bool
	GIS       similarity.Snapshot
	Clusters  *cluster.Result
	Seq       uint64
	Rows      [][]ratings.Entry // Rows[u] is user u's ratings, item ascending
	Times     [][]int64         // aligned with Rows; nil when the matrix carries no timestamps

	// clusterDerive is how long deriving the clustering's centroids and
	// member lists took.
	clusterDerive time.Duration
}

// Decode reads and validates one model file: the frame and its checksum,
// nothing after it, the version, no part the load derives (strayPart), no
// GIS that blends in item attributes (SaveAt), the row slices against each
// other and — naming the user and the entry — every row's items against
// the item count and values against their scale, the configuration, the
// GIS horizons against the item count, and the clustering against the
// dimensions. It derives the clustering's centroids and member
// lists from its assignment and rows (cluster.Result.Derive) and rebuilds
// nothing else; Model does. A file older than the version before the one
// this build writes is refused as ErrRetiredFormat.
//
// Clock reads: clustering derivation duration recorded in TrainStats only; no clock value reaches predictions or replayed state.
func Decode(r io.Reader) (*File, error) {
	payload, err := readBlob(r)
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
	switch {
	case wire.Version < 1 || wire.Version > fileWireVersion:
		return nil, fmt.Errorf("cfsf: unsupported model file version %d", wire.Version)
	case wire.Version < fileWireVersion-1:
		return nil, fmt.Errorf("cfsf: model file version %d is %w: %s", wire.Version, ErrRetiredFormat, migration(wire.Version))
	case wire.Config.blendsContent():
		return nil, fmt.Errorf("cfsf: model file version %d: %w", wire.Version, errBlendedGIS)
	}
	if part := strayPart(&wire); part != "" {
		return nil, fmt.Errorf("cfsf: corrupt model file: version %d stores no %s", wire.Version, part)
	}
	f := &File{
		Version:   wire.Version,
		Config:    wire.Config,
		NumUsers:  wire.NumUsers,
		NumItems:  wire.NumItems,
		MinRating: wire.MinRating,
		MaxRating: wire.MaxRating,
		HasTimes:  wire.HasTimes,
		GIS:       wire.GIS,
		Clusters:  wire.Clusters,
		Seq:       wire.Seq,
	}
	if err := f.decodeRows(&wire); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model file: %w", err)
	}
	t := time.Now()
	if err := f.deriveClusters(); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model file: %w", err)
	}
	f.clusterDerive = time.Since(t)
	if err := f.check(); err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model file: %w", err)
	}
	return f, nil
}

// strayPart names the first part wire carries that a model file leaves to
// the load to derive, or returns "".
func strayPart(wire *fileWire) string {
	c := wire.Clusters
	switch {
	case c != nil && len(c.Members) > 0:
		return "cluster Members, they are derived at load"
	case c != nil && len(c.Mean) > 0:
		return "cluster Mean, it is derived at load"
	case c != nil && len(c.Count) > 0:
		return "cluster Count, it is derived at load"
	}
	return ""
}

// decodeRows checks the row lengths of wire against the users and the
// entries the item column offers, and decodes f's rows and timestamps
// from wire's columns (decodeColumns).
func (f *File) decodeRows(wire *fileWire) error {
	if len(wire.RowLens) != wire.NumUsers {
		return fmt.Errorf("%d row lengths for %d users", len(wire.RowLens), wire.NumUsers)
	}
	for i, c := range [3]mathx.RiceCode{wire.ItemCode, wire.ValueCode, wire.TimeCode} {
		if err := c.Check(); err != nil {
			return fmt.Errorf("%s column: %w", columnNames[i], err)
		}
	}
	// have bounds the entries the item column offers — a Rice code takes
	// at least k+1 bits — so no sum of lengths can overflow.
	have := wire.ItemCode.MaxValues()
	total := 0
	for u, n := range wire.RowLens {
		if n < 0 || int(n) > have-total {
			return fmt.Errorf("row length %d of user %d overruns %d entries", n, u, have)
		}
		total += int(n)
	}
	back := make([]ratings.Entry, total)
	var times []int64
	if wire.HasTimes {
		times = make([]int64, total)
	}
	if err := decodeColumns(wire, back, times); err != nil {
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

// decodeColumns decodes a model file's Rice-coded columns into back
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

// columnNames names a model file's Rice-coded matrix columns in
// refusals.
var columnNames = [3]string{"item", "value", "time"}

// deriveClusters derives the clustering's member lists and centroids
// from its assignment on f's rows. It first refuses an assignment of
// another length than the users, a K outside [1, NumUsers] (Run never
// fits more clusters than users, and users are never removed), and an
// item count the GIS horizon weights, 8 bytes an item, do not match, so
// nothing is allocated by a length the rest of the file does not bear
// out.
func (f *File) deriveClusters() error {
	c := f.Clusters
	switch {
	case c == nil:
		return fmt.Errorf("missing clustering")
	case len(f.GIS.TauScores)%8 != 0 || len(f.GIS.TauScores)/8 != f.NumItems:
		return fmt.Errorf("GIS horizons hold %d weight bytes, model has %d items", len(f.GIS.TauScores), f.NumItems)
	case len(c.Assign) != f.NumUsers:
		return fmt.Errorf("cluster: %d assignments for %d users", len(c.Assign), f.NumUsers)
	case c.K < 1 || c.K > f.NumUsers:
		return fmt.Errorf("cluster: K = %d for %d users", c.K, f.NumUsers)
	}
	return c.Derive(f.NumItems, func(u int) []ratings.Entry { return f.Rows[u] })
}

// check validates what a decoded file holds besides its rows: the
// configuration, the clustering against the dimensions, the GIS horizons
// against the item count.
func (f *File) check() error {
	if err := f.Config.Validate(); err != nil {
		return err
	}
	if err := f.Clusters.Check(f.NumUsers, f.NumItems); err != nil {
		return err
	}
	return f.GIS.Check(f.NumItems)
}

// Model rebuilds the model the file holds: it builds the matrix from the
// rows and selects around it every GIS list under its horizon, so the
// model predicts bit-for-bit like the saved one (rebuildModel). Its
// TrainStats.ClusterDuration is the clustering's derivation in Decode, as
// its GISDuration is the GIS's selection.
//
// Clock reads: rebuild duration recorded in TrainStats only; no clock value reaches predictions or replayed state.
func (f *File) Model() (*Model, error) {
	b := ratings.NewBuilder(f.NumUsers, f.NumItems)
	b.SetScale(f.MinRating, f.MaxRating)
	for u, row := range f.Rows {
		for k, e := range row {
			var err error
			if f.HasTimes {
				err = b.AddWithTime(u, int(e.Index), e.Value, f.Times[u][k])
			} else {
				err = b.Add(u, int(e.Index), e.Value)
			}
			if err != nil {
				return nil, fmt.Errorf("cfsf: assemble: %w", err)
			}
		}
	}
	start := time.Now()
	mod, err := rebuildModel(f.Config, b.Build(), f.GIS, f.Clusters)
	if err != nil {
		return nil, fmt.Errorf("cfsf: corrupt model: %w", err)
	}
	stampRebuildDuration(mod, start)
	stampClusterDerive(mod, f.clusterDerive)
	return mod, nil
}

// Load reads a model file (Decode) and rebuilds its model (File.Model).
func Load(r io.Reader) (*Model, error) {
	f, err := Decode(r)
	if err != nil {
		return nil, err
	}
	return f.Model()
}

// LoadFile loads a model saved with SaveFile. A refusal names the file.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	mod, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return mod, nil
}

// stampRebuildDuration records how long reconstructing the derived
// offline state took in the model's TrainStats.
//
// Clock reads: rebuild duration recorded in TrainStats only; no clock value reaches predictions or replayed state.
//
//cfsf:init-only called by File.Model on a model that has not been returned yet
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

// errBlendedGIS refuses to persist a GIS that blends in item attributes.
var errBlendedGIS = errors.New("a GIS that blends in item attributes is not persisted: after an Apply its lists are a function of nothing a model file stores; retrain it from its ratings")

// rebuildModel reconstructs the derived offline state (GIS lists,
// smoothing tables, caches) around persisted artefacts. It refuses a
// clustering that does not fit m (cluster.Result.Check), and a GIS
// snapshot that does not cover m's items (Predict indexes the GIS by item
// id) or does not select on m (similarity.FromSnapshot).
//
// Clock reads: GIS selection duration recorded in TrainStats only; no clock value reaches predictions or replayed state.
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
	mod.stats.GISNeighbors = mod.gis.TotalNeighbors()
	mod.stats.ClusterIters = clusters.Iterations
	return mod, nil
}
