package replication

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/lifecycle"
	"cfsf/internal/mathx"
	"cfsf/internal/synth"
	"cfsf/internal/wal"
)

func newBaseModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Users = 40
	cfg.Items = 50
	cfg.MinPerUser = 8
	cfg.MeanPerUser = 12
	cfg.Archetypes = 4
	d, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultConfig()
	mcfg.M = 8
	mcfg.K = 4
	mcfg.Clusters = 4
	mod, err := core.Train(d.Matrix, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func openManager(t *testing.T, dir string, mod *core.Model) *lifecycle.Manager {
	t.Helper()
	mgr, err := lifecycle.Open(
		func() (*core.Model, error) { return mod, nil },
		lifecycle.Config{
			DataDir:      dir,
			Fsync:        wal.SyncAlways,
			SegmentBytes: 512,
			SnapshotKeep: 1,
		})
	if err != nil {
		t.Fatal(err)
	}
	return mgr
}

// leaderServer exposes a Leader over httptest with a switchable fault:
// while failWAL is set, new /admin/wal requests answer 503 and
// cutStreams aborts in-flight ones, so the follower is parked in its
// reconnect loop while the test rearranges the log under it.
type leaderServer struct {
	ts      *httptest.Server
	failWAL atomic.Bool
	// forged, when set, is served once in place of the next WAL stream.
	forged atomic.Pointer[[]byte]

	mu      sync.Mutex
	cancels map[int]context.CancelFunc
	nextID  int
}

func newLeaderServer(l *Leader) *leaderServer {
	ls := &leaderServer{cancels: map[int]context.CancelFunc{}}
	mux := http.NewServeMux()
	mux.HandleFunc(PathWAL, func(w http.ResponseWriter, r *http.Request) {
		if ls.failWAL.Load() {
			http.Error(w, "induced outage", http.StatusServiceUnavailable)
			return
		}
		if frames := ls.forged.Swap(nil); frames != nil {
			_, _ = w.Write(*frames)
			return
		}
		ctx, cancel := context.WithCancel(r.Context())
		ls.mu.Lock()
		id := ls.nextID
		ls.nextID++
		ls.cancels[id] = cancel
		ls.mu.Unlock()
		defer func() {
			cancel()
			ls.mu.Lock()
			delete(ls.cancels, id)
			ls.mu.Unlock()
		}()
		l.ServeWAL(w, r.WithContext(ctx))
	})
	mux.HandleFunc(PathSnapshot, l.ServeSnapshot)
	ls.ts = httptest.NewServer(mux)
	return ls
}

// cutStreams aborts every in-flight WAL stream.
func (ls *leaderServer) cutStreams() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, cancel := range ls.cancels {
		cancel()
	}
}

// logLines collects a follower's log output for tests that assert a
// line names its cause.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// named reports whether one logged line contains every part.
func (l *logLines) named(parts ...string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.ContainsFunc(l.lines, func(line string) bool {
		for _, p := range parts {
			if !strings.Contains(line, p) {
				return false
			}
		}
		return true
	})
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func mustFingerprint(t *testing.T, mod *core.Model) string {
	t.Helper()
	fp, err := Fingerprint(mod)
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestFingerprintCoversTheLiveWeights: the model file stores which
// neighbours each item keeps but not their weights, so Fingerprint hashes
// the live weights too — flipping the lowest bit of one changes it, and
// flipping it back restores it. Without that, follower ≡ leader and
// recovered ≡ killed would no longer cover the weights a model serves.
func TestFingerprintCoversTheLiveWeights(t *testing.T) {
	mod := newBaseModel(t)
	before := mustFingerprint(t, mod)
	gis := mod.GIS()
	item := -1
	for i := 0; i < gis.NumItems(); i++ {
		if len(gis.Neighbors(i)) > 0 {
			item = i
			break
		}
	}
	if item < 0 {
		t.Fatal("the base model's GIS is empty")
	}
	// Neighbors shares the model's own list; the test restores it below.
	n := &gis.Neighbors(item)[0]
	orig := n.Score
	n.Score = math.Float64frombits(math.Float64bits(orig) ^ 1)
	flipped := mustFingerprint(t, mod)
	n.Score = orig
	if flipped == before {
		t.Fatalf("one flipped weight of item %d left the fingerprint at %s", item, before)
	}
	if after := mustFingerprint(t, mod); after != before {
		t.Fatalf("restored model fingerprints %s, want %s", after, before)
	}
}

// TestFingerprintCoversTheHorizons: two models whose lists are the same
// and whose GIS horizons differ — one list's zero τ loaded as a set τ
// below every entry of it — fingerprint apart: the horizon decides which
// lists a later Apply selects again, so follower ≡ leader has to cover it.
func TestFingerprintCoversTheHorizons(t *testing.T) {
	var buf bytes.Buffer
	if err := newBaseModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	load := func(edit func(f *core.File)) *core.Model {
		t.Helper()
		f, err := core.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		edit(f)
		mod, err := f.Model()
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	same := load(func(*core.File) {})
	item := -1
	for i := 0; i < same.GIS().NumItems() && item < 0; i++ {
		if len(same.GIS().Neighbors(i)) > 0 && same.GIS().Horizon(i) == (mathx.Scored{}) {
			item = i
		}
	}
	if item < 0 {
		t.Fatal("no list of the base model holds every candidate")
	}
	moved := load(func(f *core.File) {
		f.GIS.TauScores = bytes.Clone(f.GIS.TauScores)
		binary.LittleEndian.PutUint64(f.GIS.TauScores[8*item:], math.Float64bits(math.SmallestNonzeroFloat64))
	})
	if got := moved.GIS().Horizon(item); got.Score != math.SmallestNonzeroFloat64 {
		t.Fatalf("item %d loaded with horizon %v", item, got)
	}
	if a, b := mustFingerprint(t, same), mustFingerprint(t, moved); a == b {
		t.Fatalf("a moved horizon of item %d left the fingerprint at %s", item, a)
	}
}

func testUpdate(i int) core.RatingUpdate {
	return core.RatingUpdate{User: i % 41, Item: i % 50, Value: float64(i%5) + 1, Time: int64(2000 + i)}
}

// submitAndDrain feeds n updates through the leader and waits until they
// are applied (so the WAL holds their batch commits too).
func submitAndDrain(t *testing.T, mgr *lifecycle.Manager, from, n int) {
	t.Helper()
	var last uint64
	for i := from; i < from+n; i++ {
		seq, _, err := mgr.Submit(testUpdate(i))
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	waitUntil(t, "leader applied submissions", func() bool { return mgr.AppliedSeq() >= last })
}

// TestFollowerBootstrapAndStreamParity is the tentpole's core promise: a
// follower that bootstraps from the newest snapshot and streams the WAL
// tail converges to a bit-identical model — same fingerprint at the same
// applied sequence — and keeps converging as the leader takes new writes.
func TestFollowerBootstrapAndStreamParity(t *testing.T) {
	mgr := openManager(t, t.TempDir(), newBaseModel(t))
	defer mgr.Close()
	ls := newLeaderServer(NewLeader(mgr, nil))
	defer ls.ts.Close()

	submitAndDrain(t, mgr, 0, 5)

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

	waitUntil(t, "follower caught up", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })
	if got, want := mustFingerprint(t, f.Model()), mustFingerprint(t, mgr.Model()); got != want {
		t.Fatalf("post-bootstrap fingerprints differ:\n  follower %s\n  leader   %s", got, want)
	}

	// Live tail: new writes land on the follower through the stream, not
	// through another bootstrap.
	boots := f.Stats()["bootstraps"]
	submitAndDrain(t, mgr, 5, 7)
	waitUntil(t, "follower streamed the tail", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })
	if got, want := mustFingerprint(t, f.Model()), mustFingerprint(t, mgr.Model()); got != want {
		t.Fatalf("post-stream fingerprints differ:\n  follower %s\n  leader   %s", got, want)
	}

	// A retrain is one more record in that stream: the follower re-runs it
	// at the same watermark and lands on the leader's model, and what is
	// rated afterwards folds into the same retrained state on both.
	if !mgr.TriggerRetrain() {
		t.Fatal("retrain trigger refused while idle")
	}
	waitUntil(t, "leader retrained", func() bool { return !mgr.Retraining() && !mgr.Model().Stats().Incremental })
	want := mustFingerprint(t, mgr.Model())
	waitUntil(t, "follower folded the retrain", func() bool {
		mod := f.Model()
		return !mod.Stats().Incremental && mustFingerprint(t, mod) == want
	})
	submitAndDrain(t, mgr, 12, 6)
	waitUntil(t, "follower streamed past the retrain", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })
	if got, want := mustFingerprint(t, f.Model()), mustFingerprint(t, mgr.Model()); got != want {
		t.Fatalf("post-retrain fingerprints differ:\n  follower %s\n  leader   %s", got, want)
	}
	if f.Stats()["bootstraps"] != boots {
		t.Fatalf("the stream triggered a re-bootstrap: %v -> %v", boots, f.Stats()["bootstraps"])
	}
}

// TestFollowerRebootstrapsOnUnfoldableRetrain: a retrain record taken at
// a watermark the follower has not reached cannot be honoured from its
// state and must not be skipped either — the follower treats it like a
// 410 and starts over from the leader's newest snapshot. The leader's log
// runs on past the forged record's sequence, so a follower that dropped
// the refusal would resume streaming behind it and never re-bootstrap.
func TestFollowerRebootstrapsOnUnfoldableRetrain(t *testing.T) {
	mgr := openManager(t, t.TempDir(), newBaseModel(t))
	defer mgr.Close()
	ls := newLeaderServer(NewLeader(mgr, nil))
	defer ls.ts.Close()
	submitAndDrain(t, mgr, 0, 5)

	var logged logLines
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := Start(ctx, Options{
		LeaderURL: ls.ts.URL, ReconnectMin: 5 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
		Logf: logged.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitUntil(t, "follower caught up", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })

	// Park the follower, let the real log grow past the sequence the forged
	// record will claim, then hand the forged record to its next connect.
	ls.failWAL.Store(true)
	ls.cutStreams()
	waitUntil(t, "follower parked", func() bool { return f.Stats()["connected"] == false })
	last := mgr.WALStats().LastSeq
	submitAndDrain(t, mgr, 5, 3)
	if end := mgr.WALStats().LastSeq; end < last+2 {
		t.Fatalf("leader log did not grow past the forged sequence: %d -> %d", last, end)
	}
	frame := wal.AppendFrame(nil, wal.Record{Type: wal.RecordRetrain, Seq: last + 1, Covered: mgr.AppliedSeq() + 9})
	ls.forged.Store(&frame)
	ls.failWAL.Store(false)
	waitUntil(t, "follower re-bootstrapped", func() bool { return f.Stats()["rebootstraps"].(int64) == 1 })
	if !logged.named(fmt.Sprintf("retrain record %d", last+1), "re-bootstrapping") {
		t.Fatalf("re-bootstrap log line does not name retrain record %d: %q", last+1, logged.lines)
	}

	submitAndDrain(t, mgr, 8, 3)
	waitUntil(t, "follower streaming again", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })
	if got, want := mustFingerprint(t, f.Model()), mustFingerprint(t, mgr.Model()); got != want {
		t.Fatalf("fingerprints differ after the re-bootstrap:\n  follower %s\n  leader   %s", got, want)
	}
}

// TestFollowerRebootstrapsAfterPrune forces the 410 path: while the
// follower is cut off, the leader takes writes and snapshots, and the
// snapshot prunes the log past the follower's cursor. On reconnect the
// stream position is gone — the leader must answer 410, and the follower
// must recover by re-bootstrapping from the newer snapshot, never by
// patching over the gap.
func TestFollowerRebootstrapsAfterPrune(t *testing.T) {
	mgr := openManager(t, t.TempDir(), newBaseModel(t))
	defer mgr.Close()
	ls := newLeaderServer(NewLeader(mgr, nil))
	defer ls.ts.Close()

	submitAndDrain(t, mgr, 0, 4)

	var logged logLines
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := Start(ctx, Options{
		LeaderURL:    ls.ts.URL,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
		Logf:         logged.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitUntil(t, "follower caught up", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })

	// Cut the stream, then move the log's floor past the follower: new
	// writes (rotating the 512-byte segments several times) and a snapshot
	// that becomes the only retained recovery point (SnapshotKeep=1), so
	// every segment below it is pruned.
	ls.failWAL.Store(true)
	ls.cutStreams()
	cutoffSeq := mgr.WALStats().LastSeq // the follower's cursor is at or below this
	submitAndDrain(t, mgr, 4, 20)
	if _, err := mgr.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if af := mgr.WALAvailableFrom(); af <= cutoffSeq+1 {
		t.Fatalf("test setup: log still starts at %d, not past follower cursor %d", af, cutoffSeq)
	}

	ls.failWAL.Store(false)
	waitUntil(t, "follower re-bootstrapped past the gap", func() bool {
		return f.Stats()["rebootstraps"].(int64) >= 1 && f.AppliedSeq() >= mgr.AppliedSeq()
	})
	if got, want := mustFingerprint(t, f.Model()), mustFingerprint(t, mgr.Model()); got != want {
		t.Fatalf("post-re-bootstrap fingerprints differ:\n  follower %s\n  leader   %s", got, want)
	}
	if !logged.named("log starts at", "re-bootstrapping") {
		t.Fatalf("re-bootstrap log line does not name the pruned log as the cause: %q", logged.lines)
	}

	// And the stream keeps working afterwards.
	submitAndDrain(t, mgr, 24, 3)
	waitUntil(t, "follower streams again after re-bootstrap", func() bool { return f.AppliedSeq() >= mgr.AppliedSeq() })
}

// TestLeaderServes410WithFloorInfo checks the wire contract directly: an
// unserveable position answers 410 Gone (not 404, not a silent empty
// stream) so a follower can distinguish "re-bootstrap" from "retry", and
// the body says where the log starts and why the position died.
func TestLeaderServes410WithFloorInfo(t *testing.T) {
	mgr := openManager(t, t.TempDir(), newBaseModel(t))
	defer mgr.Close()
	ls := newLeaderServer(NewLeader(mgr, nil))
	defer ls.ts.Close()

	submitAndDrain(t, mgr, 0, 12)
	if _, err := mgr.Snapshot(); err != nil {
		t.Fatal(err)
	}
	af := mgr.WALAvailableFrom()
	if af <= 1 {
		t.Fatal("test setup: the snapshot pruned nothing")
	}

	resp, err := http.Get(ls.ts.URL + PathWAL + "?after=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("status = %d, want 410", resp.StatusCode)
	}
	var body struct {
		Cause         string `json:"cause"`
		AvailableFrom uint64 `json:"available_from"`
		SnapshotSeq   uint64 `json:"snapshot_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.AvailableFrom != af || body.SnapshotSeq+1 < af || !strings.Contains(body.Cause, fmt.Sprintf("log starts at %d", af)) {
		t.Fatalf("410 body = %+v, want the log's start %d, a snapshot at or above it, and the cause", body, af)
	}

	// A position beyond the log end is equally unserveable: the follower
	// has a divergent log and must restart from a snapshot.
	resp2, err := http.Get(ls.ts.URL + PathWAL + "?after=999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Fatalf("beyond-end status = %d, want 410", resp2.StatusCode)
	}
}

// TestCatchupStreamStopsWhenAsked covers follow=0: a bounded read that
// returns the current backlog and then ends instead of tailing forever.
func TestCatchupStreamStopsWhenAsked(t *testing.T) {
	mgr := openManager(t, t.TempDir(), newBaseModel(t))
	defer mgr.Close()
	ls := newLeaderServer(NewLeader(mgr, nil))
	defer ls.ts.Close()

	submitAndDrain(t, mgr, 0, 6)

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(ls.ts.URL + PathWAL + "?after=0&follow=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var n int
	buf := make([]byte, 0, 1<<20)
	tmp := make([]byte, 32<<10)
	for {
		k, err := resp.Body.Read(tmp)
		buf = append(buf, tmp[:k]...)
		if err != nil {
			break // EOF: the bounded stream ended by itself
		}
	}
	for len(buf) > 0 {
		rec, fn, err := wal.DecodeFrame(buf)
		if err != nil {
			t.Fatalf("decode relayed frame: %v", err)
		}
		if rec.Seq == 0 {
			t.Fatal("relayed record without a sequence")
		}
		n++
		buf = buf[fn:]
	}
	if n == 0 {
		t.Fatal("bounded catch-up stream relayed no records")
	}
}
