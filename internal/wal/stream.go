package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Streaming read support: a Cursor walks the log from an arbitrary
// sequence and follows the live tail, returning raw encoded frames so a
// replication leader can relay bytes without re-encoding (followers see
// the exact CRC-framed records the leader's disk holds).
//
// A cursor position is only serveable while AvailableFrom() <= next:
// every sequence from the cursor position to the tail is still present
// (nothing pruned out from under the reader). That is re-checked on every
// Next call, so a prune racing an open stream surfaces as ErrRebootstrap —
// a clean "fetch a newer snapshot" signal — never as a silent gap.

// ErrRebootstrap reports that the log no longer holds a cursor's
// position: the caller must restart from a newer durable snapshot instead
// of patching forward.
var ErrRebootstrap = errors.New("wal: position no longer streamable; re-bootstrap from a newer snapshot")

// ErrShortFrame reports that a buffer ends before the record frame does;
// stream consumers use it to detect "wait for more bytes".
var ErrShortFrame = errShort

// DecodeFrame decodes the first record frame in buf, returning the
// record and the encoded frame length. errors.Is(err, ErrShortFrame)
// means buf holds only a prefix of the frame.
func DecodeFrame(buf []byte) (Record, int, error) {
	return decodeRecord(buf)
}

// AppendFrame encodes rec as one log frame onto buf and returns the
// extended slice. rec.Seq is written as given (unlike the append path,
// which assigns sequences itself).
func AppendFrame(buf []byte, rec Record) []byte {
	return appendRecord(buf, rec)
}

// AppendSignal returns a channel that is closed by the next successful
// append, together with the last sequence at the time of the call.
// Callers that want to follow the tail without polling compare their
// position against the returned sequence and, when caught up, wait on
// the channel (typically alongside a timeout and a cancel signal).
func (w *WAL) AppendSignal() (<-chan struct{}, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.appendSig == nil {
		w.appendSig = make(chan struct{})
	}
	return w.appendSig, w.lastSeq
}

// notifyAppendLocked wakes AppendSignal waiters after lastSeq advanced.
//
//cfsf:locked mu callers hold the lock across the append
func (w *WAL) notifyAppendLocked() {
	if w.appendSig != nil {
		close(w.appendSig)
		w.appendSig = nil
	}
}

// Cursor streams encoded record frames from a fixed starting position
// through the live tail. It opens its own file handles, so it is safe
// alongside concurrent appends, rotations and prunes; it is NOT safe for
// concurrent use by multiple goroutines.
type Cursor struct {
	w    *WAL
	next uint64 // next sequence to deliver

	name string // current segment ("" when unpositioned)
	f    *os.File
	off  int64 // next read offset within f

	chunk []byte // scratch read buffer
}

// NewCursor returns a cursor that delivers every record with sequence >
// afterSeq, in order. It fails with ErrRebootstrap (possibly wrapped)
// when the log cannot serve that position — because it was pruned away,
// or lies beyond the log's end (a follower ahead of this leader must also
// restart from a snapshot rather than trust its divergent tail).
func (w *WAL) NewCursor(afterSeq uint64) (*Cursor, error) {
	if last := w.LastSeq(); afterSeq > last {
		return nil, fmt.Errorf("wal: cursor after %d beyond log end %d: %w", afterSeq, last, ErrRebootstrap)
	}
	c := &Cursor{w: w, next: afterSeq + 1}
	if err := c.checkStreamable(); err != nil {
		return nil, err
	}
	return c, nil
}

// checkStreamable re-validates the cursor's serving invariant.
func (c *Cursor) checkStreamable() error {
	if af := c.w.AvailableFrom(); af > c.next {
		return fmt.Errorf("wal: log starts at %d, cursor needs %d: %w", af, c.next, ErrRebootstrap)
	}
	return nil
}

// resolveFile names the file currently holding sequence next. It must
// only be called for next <= lastSeq; a miss means the position was
// pruned away.
func (w *WAL) resolveFile(next uint64) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := len(w.segments) - 1; i >= 0; i-- {
		if w.segments[i].firstSeq <= next {
			return w.segments[i].name, nil
		}
	}
	return "", fmt.Errorf("wal: no file holds sequence %d: %w", next, ErrRebootstrap)
}

// isLastSegment reports whether name is the currently active (append)
// segment. Decode errors there can be a concurrently in-flight write,
// not corruption.
func (w *WAL) isLastSegment(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments) > 0 && w.segments[len(w.segments)-1].name == name
}

// position opens the file holding c.next and seeks past its header. The
// frame-skip loop in Next handles files that start below c.next.
func (c *Cursor) position() error {
	name, err := c.w.resolveFile(c.next)
	if err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(c.w.dir, name))
	if err != nil {
		// The file can vanish between resolve and open (a prune); the
		// caller re-resolves on the next pass.
		return fmt.Errorf("wal: cursor open %s: %w", name, err)
	}
	c.f, c.name, c.off = f, name, segHeaderSize
	return nil
}

// closeFile drops the current source file, if any.
func (c *Cursor) closeFile() {
	if c.f != nil {
		_ = c.f.Close()
		c.f = nil
	}
	c.name, c.off = "", 0
}

// Next appends encoded record frames to dst until roughly maxBytes are
// buffered or the cursor catches up with the log tail, returning the
// extended slice and the number of records appended. A caught-up cursor
// returns immediately with no frames; pair Next with AppendSignal to
// follow the tail without polling. ErrRebootstrap (possibly wrapped)
// means a prune overtook the position and the consumer must restart from
// a newer snapshot.
func (c *Cursor) Next(dst []byte, maxBytes int) ([]byte, int, error) {
	if c.chunk == nil {
		// Strictly larger than the biggest decodable frame (frame header +
		// maxBody), so a full chunk always either yields a frame or proves
		// corruption — a decode can never stall mid-chunk for lack of bytes.
		c.chunk = make([]byte, 128<<10)
	}
	appended := 0
	for sameFile := 0; ; {
		if err := c.checkStreamable(); err != nil {
			return dst, appended, err
		}
		last := c.w.LastSeq()
		if c.next > last {
			return dst, appended, nil // caught up
		}
		if c.f == nil {
			if err := c.position(); err != nil {
				if errors.Is(err, ErrRebootstrap) {
					return dst, appended, err
				}
				// Open raced a prune: re-resolve, but not forever.
				if sameFile++; sameFile > 5 {
					return dst, appended, err
				}
				continue
			}
			sameFile = 0
		}

		n, rerr := c.f.ReadAt(c.chunk, c.off)
		consumed, derr := c.consume(c.chunk[:n], &dst, &appended, maxBytes)
		c.off += int64(consumed)
		if consumed > 0 {
			sameFile = 0
		}
		if derr != nil {
			if errors.Is(derr, errCorrupt) && c.w.isLastSegment(c.name) {
				// A torn-looking frame at the active segment's tail is an
				// append still becoming visible; retry from the same offset
				// on the next call.
				return dst, appended, nil
			}
			return dst, appended, fmt.Errorf("wal: cursor read %s at offset %d: %w", c.name, c.off, derr)
		}
		if len(dst) >= maxBytes {
			return dst, appended, nil
		}
		if consumed == 0 && (rerr != nil || n == 0) {
			// End of this file's written data. If the target moved to a
			// newer file (rotation), transition; otherwise the missing
			// bytes belong to an append whose write has completed but whose
			// data our read raced — loop to re-read.
			name, err := c.w.resolveFile(c.next)
			if err != nil {
				return dst, appended, err
			}
			if name != c.name {
				c.closeFile()
				continue
			}
			if sameFile++; sameFile > 5 {
				// Nothing new after several passes despite lastSeq >= next:
				// hand back to the caller (it will wait on AppendSignal).
				return dst, appended, nil
			}
		}
	}
}

// consume decodes whole frames from buf, appending those at or above the
// cursor position to *dst, and returns how many bytes of buf were
// consumed (always a whole number of frames). A frame cut short by the
// end of buf is left unconsumed. Decode errors other than ErrShortFrame
// are returned for the caller to classify.
func (c *Cursor) consume(buf []byte, dst *[]byte, appended *int, maxBytes int) (int, error) {
	off := 0
	for off < len(buf) {
		rec, n, err := decodeRecord(buf[off:])
		if err != nil {
			if errors.Is(err, errShort) {
				return off, nil
			}
			return off, err
		}
		if rec.Seq >= c.next {
			if len(*dst) > 0 && len(*dst)+n > maxBytes {
				return off, nil
			}
			*dst = append(*dst, buf[off:off+n]...)
			*appended++
			c.next = rec.Seq + 1
		}
		off += n
	}
	return off, nil
}

// NextSeq returns the sequence the cursor will deliver next (one past
// the last delivered record).
func (c *Cursor) NextSeq() uint64 { return c.next }

// Close releases the cursor's file handle. The cursor must not be used
// afterwards.
func (c *Cursor) Close() error {
	c.closeFile()
	return nil
}
