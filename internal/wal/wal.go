package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cfsf/internal/core"
)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged rating is
	// ever lost, at the cost of one fsync per /rate.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to a periodic background Sync call (the
	// lifecycle manager's ticker): an OS crash can lose the last
	// interval, a process crash loses nothing.
	SyncInterval
	// SyncNever never fsyncs explicitly: durability is whatever the OS
	// page cache provides. A process crash still loses nothing (appends
	// are write(2) calls), an OS crash can lose unflushed data.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options tunes a WAL. The zero value selects the defaults noted on each
// field.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size. <= 0 means 4 MiB.
	SegmentBytes int64
	// Sync is the fsync policy applied to appends (default SyncAlways).
	Sync SyncPolicy
	// Logf receives operational messages (torn-tail truncation, segment
	// pruning); nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

const (
	segPrefix     = "seg-"
	segSuffix     = ".wal"
	segHeaderSize = 16
)

var segMagic = [8]byte{'C', 'F', 'S', 'F', 'W', 'A', 'L', 1}

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

// segment is one on-disk log file and the sequence it starts at.
type segment struct {
	name     string
	firstSeq uint64
}

// OpenStats reports what Open found while scanning the log.
type OpenStats struct {
	// Segments is the number of log files present after the scan.
	Segments int
	// Records is the total number of valid records across all segments.
	Records int
	// LastSeq is the sequence of the final valid record (0 for an empty
	// log).
	LastSeq uint64
	// LastCheckpoint is the highest Covered value among checkpoint
	// records (0 when none exist).
	LastCheckpoint uint64
	// TornBytes counts bytes truncated off the final segment because a
	// crash tore the last record; 0 for a clean log.
	TornBytes int64
}

// WAL is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialised internally.
type WAL struct {
	dir  string  //cfsf:immutable
	opts Options //cfsf:immutable

	mu       sync.Mutex
	f        *os.File  //cfsf:guarded-by mu // current segment, positioned at its end
	size     int64     //cfsf:guarded-by mu // current segment size
	lastSeq  uint64    //cfsf:guarded-by mu
	segments []segment //cfsf:guarded-by mu // ascending by firstSeq; last is the open one
	stats    OpenStats //cfsf:guarded-by mu
	closed   bool      //cfsf:guarded-by mu
	// appendSig is closed and replaced on every append (and on close) to
	// wake tail-following cursors; nil until someone asks for it.
	appendSig chan struct{} //cfsf:guarded-by mu
}

// Open opens (creating if needed) the log in dir, scans every segment,
// truncates a torn tail on the final one, and positions for append.
func Open(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		// A base can hold acknowledged ratings above the newest snapshot,
		// so it is refused rather than ignored.
		if strings.HasPrefix(name, "base-") && strings.HasSuffix(name, ".cwal") {
			return nil, fmt.Errorf("wal: %s is a compacted base and WAL compaction was removed in this build: stop the previous build cleanly (its shutdown snapshot covers the whole log), move the file away, then boot this build",
				filepath.Join(dir, name))
		}
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), "%016x", &first); err != nil {
			return nil, fmt.Errorf("wal: unparsable segment name %q", name)
		}
		w.segments = append(w.segments, segment{name: name, firstSeq: first})
	}
	sort.Slice(w.segments, func(i, j int) bool { return w.segments[i].firstSeq < w.segments[j].firstSeq })

	if len(w.segments) == 0 {
		if err := w.createSegment(1); err != nil {
			return nil, err
		}
		w.stats.Segments = 1
		return w, nil
	}

	// Scan every segment in order: count records, find the last sequence
	// and latest checkpoint, and — on the final segment only — truncate a
	// torn tail. Corruption anywhere before the tail is unrecoverable
	// (replay order would be broken) and fails the open.
	for i, seg := range w.segments {
		last := i == len(w.segments)-1
		if err := w.scanSegment(seg, last); err != nil {
			return nil, err
		}
	}

	// Reopen the final segment for appending at its validated end.
	lastSeg := w.segments[len(w.segments)-1]
	f, err := os.OpenFile(filepath.Join(dir, lastSeg.name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: reopen segment: %w", err)
	}
	if _, err := f.Seek(w.size, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: seek segment end: %w", err)
	}
	w.f = f
	w.stats.Segments = len(w.segments)
	return w, nil
}

// scanSegment validates one segment; for the final segment it records
// the append position and truncates a torn tail.
//
//cfsf:locked mu called only from Open, before the WAL is returned to any caller
func (w *WAL) scanSegment(seg segment, final bool) error {
	path := filepath.Join(w.dir, seg.name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: read segment: %w", err)
	}
	if len(data) < segHeaderSize {
		if !final {
			return fmt.Errorf("wal: segment %s shorter than its header", seg.name)
		}
		// A crash can tear even the header of a freshly rotated segment;
		// rewrite it in place and treat the segment as empty.
		w.opts.Logf("wal: segment %s has a torn header (%d bytes), rewriting", seg.name, len(data))
		w.stats.TornBytes += int64(len(data))
		if err := writeSegmentHeader(path, seg.firstSeq); err != nil {
			return err
		}
		w.size = segHeaderSize
		w.stats.LastSeq = w.lastSeq
		return nil
	}
	if [8]byte(data[:8]) != segMagic {
		return fmt.Errorf("wal: segment %s has bad magic", seg.name)
	}
	if first := binary.BigEndian.Uint64(data[8:16]); first != seg.firstSeq {
		return fmt.Errorf("wal: segment %s header sequence %d does not match its name", seg.name, first)
	}

	off := int64(segHeaderSize)
	for off < int64(len(data)) {
		rec, n, err := decodeRecord(data[off:])
		if err != nil {
			if !final {
				return fmt.Errorf("wal: segment %s corrupt at offset %d: %v", seg.name, off, err)
			}
			torn := int64(len(data)) - off
			w.opts.Logf("wal: dropping torn tail of %s: %d byte(s) at offset %d (%v)", seg.name, torn, off, err)
			w.stats.TornBytes += torn
			if err := os.Truncate(path, off); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			break
		}
		if rec.Seq <= w.lastSeq {
			return fmt.Errorf("wal: segment %s: sequence %d not increasing after %d", seg.name, rec.Seq, w.lastSeq)
		}
		w.lastSeq = rec.Seq
		w.stats.Records++
		if rec.Type == RecordCheckpoint && rec.Covered > w.stats.LastCheckpoint {
			w.stats.LastCheckpoint = rec.Covered
		}
		off += int64(n)
	}
	if final {
		w.size = off
		w.stats.LastSeq = w.lastSeq
	}
	return nil
}

// writeSegmentHeader (re)creates a segment file holding only its header,
// fsynced along with the directory entry.
func writeSegmentHeader(path string, firstSeq uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close segment header: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// createSegment starts a fresh segment whose first record will carry
// firstSeq and opens it for appending.
//
//cfsf:locked mu called from Open pre-publication and from rotateLocked with the lock held
func (w *WAL) createSegment(firstSeq uint64) error {
	name := segName(firstSeq)
	path := filepath.Join(w.dir, name)
	if err := writeSegmentHeader(path, firstSeq); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	w.f = f
	w.size = segHeaderSize
	w.segments = append(w.segments, segment{name: name, firstSeq: firstSeq})
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir for sync: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Stats returns what Open found (segments, records, torn bytes, last
// checkpoint). Segments reflects later rotations and prunes too.
func (w *WAL) Stats() OpenStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.stats
	s.Segments = len(w.segments)
	s.LastSeq = w.lastSeq
	return s
}

// LastSeq returns the sequence of the most recently appended record.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// AppendRating appends one rating update routed to the given model shard
// (-1 when the caller does not shard) and returns its sequence.
func (w *WAL) AppendRating(u core.RatingUpdate, shard int) (uint64, error) {
	return w.append(Record{Type: RecordRating, Update: u, Shard: shard})
}

// AppendRatings appends a batch of rating updates as one write (and, under
// SyncAlways, one fsync): the batched-ingestion path pays the durability
// cost once per request instead of once per rating. shards[i] is the model
// shard ups[i] routes to (-1 when unsharded); len(shards) must equal
// len(ups). The returned sequences are consecutive and in batch order.
func (w *WAL) AppendRatings(ups []core.RatingUpdate, shards []int) ([]uint64, error) {
	if len(ups) != len(shards) {
		return nil, fmt.Errorf("wal: %d updates but %d shard ids", len(ups), len(shards))
	}
	if len(ups) == 0 {
		return nil, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("wal: append on closed log")
	}
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(w.lastSeq + 1); err != nil {
			return nil, err
		}
	}
	seqs := make([]uint64, len(ups))
	buf := make([]byte, 0, maxEncodedRecord*len(ups))
	for i, u := range ups {
		seqs[i] = w.lastSeq + 1 + uint64(i)
		buf = appendRecord(buf, Record{Type: RecordRating, Seq: seqs[i], Update: u, Shard: shards[i]})
	}
	if _, err := w.f.Write(buf); err != nil {
		return nil, fmt.Errorf("wal: append batch: %w", err)
	}
	w.size += int64(len(buf))
	w.lastSeq = seqs[len(seqs)-1]
	if w.opts.Sync == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return nil, fmt.Errorf("wal: fsync: %w", err)
		}
	}
	w.notifyAppendLocked()
	return seqs, nil
}

// AppendBatchCommit records that every rating with sequence <= covered
// is applied, closing the current replay batch. shard is the model shard
// the batch was applied on (-1 for a monolithic or multi-shard apply).
func (w *WAL) AppendBatchCommit(covered uint64, shard int) (uint64, error) {
	return w.append(Record{Type: RecordBatchCommit, Covered: covered, Shard: shard})
}

// AppendCheckpoint records that a durable snapshot covers every rating
// with sequence <= covered.
func (w *WAL) AppendCheckpoint(covered uint64) (uint64, error) {
	return w.append(Record{Type: RecordCheckpoint, Covered: covered})
}

// AppendRetrain records a full retrain of the model at applied watermark atSeq.
func (w *WAL) AppendRetrain(atSeq uint64) (uint64, error) {
	return w.append(Record{Type: RecordRetrain, Covered: atSeq})
}

func (w *WAL) append(rec Record) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	rec.Seq = w.lastSeq + 1

	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(rec.Seq); err != nil {
			return 0, err
		}
	}

	var buf [maxEncodedRecord]byte
	frame := appendRecord(buf[:0], rec)
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	w.size += int64(len(frame))
	w.lastSeq = rec.Seq
	if w.opts.Sync == SyncAlways {
		if err := w.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
	}
	w.notifyAppendLocked()
	return rec.Seq, nil
}

// rotateLocked closes the current segment (fsynced regardless of policy,
// so a sealed segment is always durable) and starts the next one.
//
//cfsf:locked mu append holds the lock across the rotation
func (w *WAL) rotateLocked(firstSeq uint64) error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync sealed segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: close sealed segment: %w", err)
	}
	return w.createSegment(firstSeq)
}

// Sync flushes the current segment to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.f.Sync()
}

// Prune removes segments every record of which has sequence <= covered
// (established because the next segment starts at or below covered+1).
// The active segment is never removed. It returns how many files were
// deleted.
func (w *WAL) Prune(covered uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	removed := 0
	for len(w.segments) > 1 && w.segments[1].firstSeq <= covered+1 {
		name := w.segments[0].name
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil {
			return removed, fmt.Errorf("wal: prune %s: %w", name, err)
		}
		w.opts.Logf("wal: pruned segment %s (covered through %d)", name, covered)
		w.segments = w.segments[1:]
		removed++
	}
	return removed, nil
}

// AvailableFrom returns the first segment's first sequence: the lowest
// sequence from which the log serves a contiguous record stream. The log
// can extend a state at sequence S iff AvailableFrom() <= S+1; otherwise
// records in (S, tail] are gone.
func (w *WAL) AvailableFrom() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.segments[0].firstSeq
}

// Close syncs and closes the log. A closed log rejects appends; Replay
// still works (it opens its own handles).
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.notifyAppendLocked()
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("wal: sync on close: %w", err)
	}
	return w.f.Close()
}

// CloseAbrupt closes the underlying file without a final sync — a
// crash-simulation hook for recovery tests. Data already written by
// appends survives (they were write(2) calls); only OS-cache flushing is
// skipped, exactly as a SIGKILL would.
func (w *WAL) CloseAbrupt() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	w.notifyAppendLocked()
	return w.f.Close()
}

// Replay streams every record with sequence > afterSeq, in order, to fn.
// It reads its own file handles, so it is safe while the log is open for
// append; records appended after Replay starts may or may not be seen. A
// decode error stops the replay — call it after Open, which has already
// truncated any torn tail.
func (w *WAL) Replay(afterSeq uint64, fn func(Record) error) error {
	w.mu.Lock()
	segs := make([]segment, len(w.segments))
	copy(segs, w.segments)
	w.mu.Unlock()

	for _, seg := range segs {
		data, err := os.ReadFile(filepath.Join(w.dir, seg.name))
		if err != nil {
			return fmt.Errorf("wal: replay read %s: %w", seg.name, err)
		}
		if len(data) < segHeaderSize {
			return fmt.Errorf("wal: replay: segment %s shorter than its header", seg.name)
		}
		off := segHeaderSize
		for off < len(data) {
			rec, n, err := decodeRecord(data[off:])
			if err != nil {
				return fmt.Errorf("wal: replay: segment %s at offset %d: %v", seg.name, off, err)
			}
			off += n
			if rec.Seq <= afterSeq {
				continue
			}
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return nil
}
