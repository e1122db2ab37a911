// Package atomicfile publishes files atomically and durably: content is
// written to a temp file in the destination directory, fsynced, renamed
// into place, and the directory is fsynced so the rename itself survives
// a power cut. rename(2) alone only guarantees atomicity — without the
// directory fsync the new name can vanish on crash, which is exactly the
// window the snapshot path must not have.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteAndSync writes data to path atomically: temp file in the same
// directory, write, fsync, rename over path, fsync the directory. On any
// error the temp file is removed and path is untouched (either the old
// content or nothing is visible, never a torn file).
func WriteAndSync(path string, data []byte, perm os.FileMode) error {
	return WriteToAndSync(path, perm, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// WriteToAndSync is WriteAndSync for streaming writers: fill receives the
// open temp file and writes the content (e.g. a gob encoder); the
// fsync+rename+dir-fsync promotion is identical.
func WriteToAndSync(path string, perm os.FileMode, fill func(f *os.File) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: create temp in %s: %w", dir, err)
	}
	tmp := f.Name()
	cleanup := func() {
		_ = f.Close()
		_ = os.Remove(tmp)
	}
	if err := fill(f); err != nil {
		cleanup()
		return fmt.Errorf("atomicfile: write %s: %w", path, err)
	}
	if err := f.Chmod(perm); err != nil {
		cleanup()
		return fmt.Errorf("atomicfile: chmod %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("atomicfile: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("atomicfile: close %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("atomicfile: rename %s: %w", path, err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so previously renamed or removed entries are
// durable. Failure matters as much as a data fsync failure: the caller's
// rename may not survive a crash, so the error must not be discarded.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicfile: open dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("atomicfile: sync dir %s: %w", dir, err)
	}
	return nil
}
