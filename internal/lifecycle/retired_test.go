package lifecycle

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/wal"
)

// modelWire shares its name, the one gob sends first, with the type of
// the unframed gob `-model` file builds up to 8cb6e8a wrote.
type modelWire struct{ Version int }

// TestRetiredFormatsAreRefused: a build reads the model file version it
// writes and the one before it. Everything older is refused naming the
// file and, in order, the builds that migrate it: a model file of version
// 1 to 4, an unframed gob `-model` file, and a data dir whose recovery
// points are any of these, manifests with their blobs, or a gob snapshot. A data dir
// is opened with a bootstrap that would succeed, so each row proves boot
// refuses rather than retrains — v2-ddea235's WAL still starts at seq 1 —
// and writes nothing. Beside a snapshot file this build loads, a retired
// file in a data dir is ignored and left in place.
func TestRetiredFormatsAreRefused(t *testing.T) {
	base := newBaseModel(t)
	loadFile := func(t *testing.T, data []byte) (string, error) {
		path := filepath.Join(t.TempDir(), "model.cfsf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := core.LoadFile(path)
		return path, err
	}
	for _, tc := range []struct {
		name string
		// builds are the builds the refusal names, in order.
		builds []string
		// dirFile names the retired file a row plants alone in a data dir;
		// refuse, for the other rows, refuses one and returns its path.
		dirFile string
		refuse  func(t *testing.T) (string, error)
	}{
		{name: "model file version 1", builds: core.MigratingBuilds(1), refuse: func(t *testing.T) (string, error) {
			return loadFile(t, frame(t, modelWire{Version: 1}))
		}},
		{name: "model file version 3", builds: core.MigratingBuilds(3), refuse: func(t *testing.T) (string, error) {
			return loadFile(t, frame(t, modelWire{Version: 3}))
		}},
		{name: "model file version 4", builds: core.MigratingBuilds(4), refuse: func(t *testing.T) (string, error) {
			return loadFile(t, frame(t, modelWire{Version: 4}))
		}},
		{name: "model file version 2", builds: core.MigratingBuilds(2), refuse: func(t *testing.T) (string, error) {
			path := filepath.Join("testdata", "v2-ddea235", "snapshots", snapshotName(0x27))
			_, err := core.LoadFile(path)
			return path, err
		}},
		{name: "unframed gob model file", builds: core.MigratingBuilds(0), refuse: func(t *testing.T) (string, error) {
			return loadFile(t, gobOf(t, modelWire{Version: 4}))
		}},
		{name: "data dir v2-ddea235", builds: core.MigratingBuilds(2), refuse: func(t *testing.T) (string, error) {
			dir := copyDir(t, filepath.Join("testdata", "v2-ddea235"))
			return filepath.Join(snapshotDir(dir), snapshotName(0x27)), openRefused(t, dir, base)
		}},
		{name: "manifest", builds: core.MigratingBuilds(2), dirFile: "manifest-0000000000000027.json"},
		{name: "shared blob", builds: core.MigratingBuilds(2), dirFile: "shared-0000000000000027.blob"},
		{name: "shard blob", builds: core.MigratingBuilds(2), dirFile: "shard-0000-0000000000000027.blob"},
		{name: "gob snapshot", builds: append([]string{"157aafe"}, core.MigratingBuilds(2)...), dirFile: "snap-0000000000000000.gob"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refuse := tc.refuse
			if tc.dirFile != "" {
				refuse = func(t *testing.T) (string, error) {
					dir := t.TempDir()
					path := plant(t, dir, tc.dirFile)
					return path, openRefused(t, dir, base)
				}
			}
			path, err := refuse(t)
			if err == nil || !strings.Contains(err.Error(), path) || !namesInOrder(err.Error(), tc.builds) {
				t.Fatalf("err = %v, want a refusal naming %s and builds %v in order", err, path, tc.builds)
			}
			if tc.dirFile == "" {
				return
			}
			dir := copyDir(t, filepath.Join("testdata", "v5-f163a25"))
			path = plant(t, dir, tc.dirFile)
			m, err := Open(noBoot(t), Config{DataDir: dir, Fsync: wal.SyncNever})
			if err != nil {
				t.Fatalf("beside a loadable snapshot: %v", err)
			}
			if got := gridHash(m.Model()); got != legacyGrid {
				t.Fatalf("beside a loadable snapshot: grid %s, want %s", got, legacyGrid)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("%s not left in place: %v", tc.dirFile, err)
			}
		})
	}
}

// namesInOrder reports whether msg names every build of builds, in order.
func namesInOrder(msg string, builds []string) bool {
	for _, b := range builds {
		at := strings.Index(msg, b)
		if at < 0 {
			return false
		}
		msg = msg[at+len(b):]
	}
	return true
}

// openRefused opens dir with a bootstrap that would succeed and returns
// the refusal, failing the test if Open boots or writes a snapshot file.
func openRefused(t *testing.T, dir string, base *core.Model) error {
	t.Helper()
	before, _ := filepath.Glob(filepath.Join(snapshotDir(dir), snapshotPrefix+"*"))
	m, err := Open(bootWith(base), Config{DataDir: dir, Fsync: wal.SyncNever})
	if err == nil {
		m.Abort()
		t.Fatal("Open booted the dir")
	}
	if after, _ := filepath.Glob(filepath.Join(snapshotDir(dir), snapshotPrefix+"*")); len(after) != len(before) {
		t.Fatalf("a refused boot wrote snapshot files: %v, before %v", after, before)
	}
	return err
}

// plant writes a file named name, its content immaterial, into dir's
// snapshots directory and returns its path.
func plant(t *testing.T, dir, name string) string {
	t.Helper()
	if err := os.MkdirAll(snapshotDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(snapshotDir(dir), name)
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func gobOf(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// frame wraps v's gob encoding in the frame every model file version
// shares: magic, kind 3, payload length, CRC32-IEEE of the payload.
func frame(t *testing.T, v any) []byte {
	payload := gobOf(t, v)
	out := append([]byte("CFSFBLB\x01"), 3)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}
