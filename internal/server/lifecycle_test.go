package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/lifecycle"
	"cfsf/internal/obs"
	"cfsf/internal/synth"
	"cfsf/internal/wal"
)

func smallModel(t *testing.T) *core.Model {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Users = 40
	cfg.Items = 50
	cfg.MinPerUser = 8
	cfg.MeanPerUser = 12
	cfg.Archetypes = 4
	d := synth.MustGenerate(cfg)
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

// newDurableServer wires a lifecycle manager into a test server the same
// way cmd/cfsf-server does: shared registry, model owned by the manager.
func newDurableServer(t *testing.T, dir string, mod *core.Model) (*httptest.Server, *lifecycle.Manager) {
	t.Helper()
	reg := obs.NewRegistry()
	mgr, err := lifecycle.Open(
		func() (*core.Model, error) { return mod, nil },
		lifecycle.Config{DataDir: dir, Fsync: wal.SyncAlways, Registry: reg},
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWithOptions(nil, nil, Options{Registry: reg, Manager: mgr}).Handler())
	t.Cleanup(srv.Close)
	return srv, mgr
}

func postJSON(t *testing.T, url string, payload any) (int, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(payload); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode, body
}

func rateBody(i int) map[string]any {
	return map[string]any{"user": i % 41, "item": i % 50, "rating": float64(i%5) + 1}
}

// TestRateQueuedThenApplied: in manager mode /rate acknowledges with 202
// "queued" (plus seq and pending depth), and the rating becomes visible
// to reads once the micro-batch lands.
func TestRateQueuedThenApplied(t *testing.T) {
	srv, mgr := newDurableServer(t, t.TempDir(), smallModel(t))
	before := mgr.Model().Matrix().NumRatings()

	code, body := postJSON(t, srv.URL+"/rate", map[string]any{"user": 40, "item": 3, "rating": 5})
	if code != http.StatusAccepted || body["status"] != "queued" {
		t.Fatalf("/rate = %d %v, want 202 queued", code, body)
	}
	seq := uint64(body["seq"].(float64))
	if seq == 0 {
		t.Fatalf("queued response missing seq: %v", body)
	}
	if _, ok := body["pending"]; !ok {
		t.Fatalf("queued response missing pending depth: %v", body)
	}

	deadline := time.Now().Add(10 * time.Second)
	for mgr.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatal("queued rating never applied")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Read-your-write now holds: /stats serves the post-batch model.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if got := int(stats["ratings"].(float64)); got != before+1 {
		t.Errorf("ratings after apply = %d, want %d", got, before+1)
	}
	if stats["incremental"] != true {
		t.Errorf("serving model not marked incremental after queued apply: %v", stats["incremental"])
	}

	// Validation still rejects garbage before it reaches the WAL.
	if code, _ := postJSON(t, srv.URL+"/rate", map[string]any{"user": 1, "item": 1, "rating": 99}); code != http.StatusBadRequest {
		t.Errorf("out-of-scale rating = %d, want 400", code)
	}
	if code, _ := postJSON(t, srv.URL+"/rate", map[string]any{"user": 10_000, "item": 1, "rating": 3}); code != http.StatusBadRequest {
		t.Errorf("out-of-bounds user = %d, want 400", code)
	}

	// /metrics carries the wal/lifecycle instrumentation.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, name := range []string{
		"wal_last_seq", "wal_append_latency_ms", "lifecycle_applied_total",
		"wal_segments", "wal_available_from", "oldest_snapshot_seq",
		"lifecycle_batch_size", "lifecycle_pending", "rate_queued_total",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}

	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	// After close the queue is gone: /rate sheds with 503.
	if code, _ := postJSON(t, srv.URL+"/rate", rateBody(1)); code != http.StatusServiceUnavailable {
		t.Errorf("/rate after close = %d, want 503", code)
	}
}

func TestAdminEndpoints(t *testing.T) {
	srv, mgr := newDurableServer(t, t.TempDir(), smallModel(t))
	defer mgr.Close()

	// A rating so the snapshot has something new to cover.
	code, body := postJSON(t, srv.URL+"/rate", rateBody(7))
	if code != http.StatusAccepted {
		t.Fatalf("/rate = %d %v", code, body)
	}
	seq := uint64(body["seq"].(float64))
	deadline := time.Now().Add(10 * time.Second)
	for mgr.AppliedSeq() < seq && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	code, body = postJSON(t, srv.URL+"/admin/snapshot", nil)
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("/admin/snapshot = %d %v", code, body)
	}
	if body["path"] == "" || body["covered_seq"].(float64) < float64(seq) {
		t.Errorf("snapshot response incomplete: %v", body)
	}
	// Idempotent: nothing new applied, so the second call skips.
	if code, body = postJSON(t, srv.URL+"/admin/snapshot", nil); code != http.StatusOK || body["status"] != "skipped" {
		t.Errorf("repeat snapshot = %d %v, want skipped", code, body)
	}

	// /stats carries the one WAL retention rule as live numbers: the log
	// starts at or below the oldest retained snapshot's watermark plus one.
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Lifecycle struct {
			Storage map[string]float64 `json:"storage"`
		} `json:"lifecycle"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	storage := stats.Lifecycle.Storage
	for _, key := range []string{"wal_segments", "wal_available_from", "oldest_snapshot_seq"} {
		if _, ok := storage[key]; !ok {
			t.Errorf("/stats lifecycle.storage missing %s: %v", key, storage)
		}
	}
	if len(storage) != 3 {
		t.Errorf("/stats lifecycle.storage = %v, want exactly three keys", storage)
	}
	if storage["wal_available_from"] > storage["oldest_snapshot_seq"]+1 {
		t.Errorf("wal starts at %v, above the oldest snapshot (seq %v) + 1", storage["wal_available_from"], storage["oldest_snapshot_seq"])
	}

	code, body = postJSON(t, srv.URL+"/admin/retrain", nil)
	if code != http.StatusAccepted || body["status"] != "started" {
		t.Fatalf("/admin/retrain = %d %v", code, body)
	}
	// The compaction endpoint went with compaction.
	resp, err = http.Post(srv.URL+"/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /admin/compact = %d, want 404", resp.StatusCode)
	}
	// GET on a write-side admin endpoint is not routed.
	resp, err = http.Get(srv.URL + "/admin/retrain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /admin/retrain = %d, want method not allowed", resp.StatusCode)
	}
	// GET /admin/snapshot is a follower's bootstrap: the newest snapshot
	// file, verbatim, which decodes at the watermark it covers.
	resp, err = http.Get(srv.URL + "/admin/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	file, err := core.Decode(resp.Body)
	resp.Body.Close()
	if err != nil || file.Seq < seq {
		t.Fatalf("GET /admin/snapshot: file at seq %v, %v; want one decoding at seq >= %d", file, err, seq)
	}
}

// TestAdminWithoutManager: a stateless server (no -data-dir) refuses the
// operational endpoints instead of pretending.
func TestAdminWithoutManager(t *testing.T) {
	for _, ep := range []string{"/admin/snapshot", "/admin/retrain"} {
		code, body := postJSON(t, testSrv.URL+ep, nil)
		if code != http.StatusServiceUnavailable {
			t.Errorf("%s without manager = %d %v, want 503", ep, code, body)
		}
		if msg := fmt.Sprint(body["error"]); !strings.Contains(msg, "data-dir") {
			t.Errorf("%s error %q does not point at -data-dir", ep, msg)
		}
	}
}

// TestServerCrashRecovery drives the whole loop over HTTP: rate via the
// queued path, kill the manager without any shutdown, reboot from the
// data dir, and require the recovered serving model to predict exactly
// like the pre-crash one.
func TestServerCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srv, mgr := newDurableServer(t, dir, smallModel(t))

	var last uint64
	for i := 0; i < 5; i++ {
		code, body := postJSON(t, srv.URL+"/rate", rateBody(i))
		if code != http.StatusAccepted {
			t.Fatalf("rate %d = %d %v", i, code, body)
		}
		last = uint64(body["seq"].(float64))
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.AppliedSeq() < last {
		if time.Now().After(deadline) {
			t.Fatal("ratings never applied")
		}
		time.Sleep(2 * time.Millisecond)
	}
	before := mgr.Model()
	mgr.Abort() // simulated SIGKILL

	reborn, err := lifecycle.Open(
		func() (*core.Model, error) {
			t.Fatal("bootstrap ran although snapshots exist")
			return nil, nil
		},
		lifecycle.Config{DataDir: dir},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	after := reborn.Model()

	m := before.Matrix()
	for u := 0; u < m.NumUsers(); u++ {
		for i := 0; i < m.NumItems(); i++ {
			if before.Predict(u, i) != after.Predict(u, i) {
				t.Fatalf("prediction (%d,%d) differs after recovery: %v vs %v",
					u, i, before.Predict(u, i), after.Predict(u, i))
			}
		}
	}
}
