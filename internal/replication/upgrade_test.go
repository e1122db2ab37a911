package replication

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cfsf/internal/core"
)

// TestFollowerBootstrapsFromALeaderOneBuildBehind is a rolling upgrade:
// followers move to a new build before their leader, so a follower on
// this build bootstraps from a leader still serving the model file
// version the build before it wrote. testdata/leader-f163a25 is the data
// dir of a b42e5f3 leader — it booted a dir of that build, replayed its
// WAL tail and wrote its boot snapshot covering the whole log — with each
// snapshot file loaded and saved again by ac5d191, as version 4, and then
// by f163a25, as version 5. A manager on it boots from that file without
// a replay, so it serves the very bytes f163a25 wrote, which store every
// GIS list as an id set: leader and follower each skip the sets and
// select the lists under the file's horizons. The follower reaches the
// leader's fingerprint at its watermark, and then streams the ratings the
// leader takes after it without bootstrapping again.
func TestFollowerBootstrapsFromALeaderOneBuildBehind(t *testing.T) {
	dir := copyDir(t, filepath.Join("testdata", "leader-f163a25"))
	mgr := openManager(t, dir, nil)
	defer mgr.Close()
	ls := newLeaderServer(NewLeader(mgr, nil))
	defer ls.ts.Close()

	want, err := os.ReadFile(filepath.Join(dir, "snapshots", "model-0000000000000031.cfsf"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ls.ts.URL + PathSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("the leader served %d bytes, not the %d-byte file f163a25 wrote", len(served), len(want))
	}
	file, err := core.Decode(bytes.NewReader(served))
	if err != nil {
		t.Fatal(err)
	}
	if file.Version != 5 || file.Seq != mgr.AppliedSeq() {
		t.Fatalf("the leader serves a version %d file at seq %d; want version 5 at its watermark %d", file.Version, file.Seq, mgr.AppliedSeq())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := Start(ctx, Options{
		LeaderURL:    ls.ts.URL,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitUntil(t, "follower bootstrapped", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })
	if got, want := mustFingerprint(t, f.Model()), mustFingerprint(t, mgr.Model()); got != want {
		t.Fatalf("post-bootstrap fingerprints differ:\n  follower %s\n  leader   %s", got, want)
	}
	boots := f.Stats()["bootstraps"]
	submitAndDrain(t, mgr, 0, 6)
	waitUntil(t, "follower streamed the tail", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })
	if got, want := mustFingerprint(t, f.Model()), mustFingerprint(t, mgr.Model()); got != want {
		t.Fatalf("post-stream fingerprints differ:\n  follower %s\n  leader   %s", got, want)
	}
	if f.Stats()["bootstraps"] != boots {
		t.Fatalf("the stream triggered a re-bootstrap: %v -> %v", boots, f.Stats()["bootstraps"])
	}
}

// copyDir copies the tree at src into a fresh temporary directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
