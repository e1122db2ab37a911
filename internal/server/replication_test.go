package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/lifecycle"
	"cfsf/internal/obs"
	"cfsf/internal/replication"
	"cfsf/internal/wal"
)

// noRedirect returns a client that surfaces 3xx responses instead of
// following them — the tests assert on the redirect itself.
func noRedirect() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

func TestAdminTokenGatesAdminRoutes(t *testing.T) {
	srv := httptest.NewServer(NewWithOptions(smallModel(t), nil, Options{AdminToken: "s3cret"}).Handler())
	defer srv.Close()

	paths := []struct {
		method, path string
	}{
		{"GET", "/admin/fingerprint"},
		{"GET", replication.PathManifest},
		{"GET", replication.PathWAL + "?after=0&follow=0"},
		{"GET", replication.PathBlob + "?file=x"},
		{"POST", "/admin/snapshot"},
	}
	for _, p := range paths {
		req, _ := http.NewRequest(p.method, srv.URL+p.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s %s without token: status %d, want 401", p.method, p.path, resp.StatusCode)
		}

		req, _ = http.NewRequest(p.method, srv.URL+p.path, nil)
		req.Header.Set("Authorization", "Bearer wrong")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("%s %s with bad token: status %d, want 401", p.method, p.path, resp.StatusCode)
		}
	}

	// The right token reaches the handler (fingerprint answers 200; the
	// replication routes answer their no-manager 503 — not 401).
	req, _ := http.NewRequest("GET", srv.URL+"/admin/fingerprint", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fingerprint with token: status %d, want 200", resp.StatusCode)
	}

	// Read paths stay open: the token guards /admin/*, not serving.
	if code, _ := getFrom(t, srv, "/predict?user=1&item=1"); code != http.StatusOK {
		t.Fatalf("predict on tokened server: status %d, want 200", code)
	}
}

func getFrom(t *testing.T, srv *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &body)
	return resp.StatusCode, body
}

// TestFollowerRedirectsWritesAndServesReads wires a real leader (manager
// mode) and a real follower through the exported handler stack: reads
// are served locally by the follower, writes and durability admin calls
// answer 307 pointing at the leader.
func TestFollowerRedirectsWritesAndServesReads(t *testing.T) {
	reg := obs.NewRegistry()
	mgr, err := lifecycle.Open(
		func() (*core.Model, error) { return smallModel(t), nil },
		lifecycle.Config{DataDir: t.TempDir(), Fsync: wal.SyncAlways, Registry: reg},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	leader := httptest.NewServer(NewWithOptions(nil, nil, Options{Registry: reg, Manager: mgr}).Handler())
	defer leader.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := replication.Start(ctx, replication.Options{
		LeaderURL:    leader.URL,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	fsrv := NewWarming(Options{})
	fsrv.ActivateFollower(f, nil)
	follower := httptest.NewServer(fsrv.Handler())
	defer follower.Close()

	// Reads answer locally.
	if code, _ := getFrom(t, follower, "/predict?user=1&item=1"); code != http.StatusOK {
		t.Fatalf("follower predict: status %d, want 200", code)
	}
	if code, body := getFrom(t, follower, "/healthz"); code != http.StatusOK || body["role"] != "follower" {
		t.Fatalf("follower healthz: status %d role %v, want 200/follower", code, body["role"])
	}

	// Writes 307 to the same path on the leader, method and body intact.
	client := noRedirect()
	payload := bytes.NewBufferString(`{"user":1,"item":2,"rating":4}`)
	resp, err := client.Post(follower.URL+"/rate", "application/json", payload)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower rate: status %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != leader.URL+"/rate" {
		t.Fatalf("follower rate Location = %q, want %q", loc, leader.URL+"/rate")
	}

	for _, path := range []string{"/admin/snapshot", "/admin/retrain"} {
		resp, err := client.Post(follower.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("follower %s: status %d, want 307", path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, leader.URL) {
			t.Fatalf("follower %s Location = %q, want leader-prefixed", path, loc)
		}
	}

	// No route, no redirect: the compaction endpoint is gone on every role.
	resp, err = client.Post(follower.URL+"/admin/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("follower /admin/compact: status %d, want 404", resp.StatusCode)
	}

	// A client that follows the redirect lands the write on the leader.
	resp2, err := http.Post(follower.URL+"/rate", "application/json",
		bytes.NewBufferString(`{"user":1,"item":2,"rating":4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("redirect-following rate: status %d, want 202 (queued on the leader)", resp2.StatusCode)
	}

	// /stats exposes the replication section with lag fields.
	_, stats := getFrom(t, follower, "/stats")
	repl, ok := stats["replication"].(map[string]any)
	if !ok {
		t.Fatalf("follower /stats has no replication section: %v", stats)
	}
	if repl["role"] != "follower" || repl["leader"] != leader.URL {
		t.Fatalf("replication stats = %v", repl)
	}
}

// TestFollowerShardStatsShowLiveApplies: a follower's /stats and /metrics
// describe the model the follower itself applied — a rating it streamed
// and folded shows up in its shard's rating count.
func TestFollowerShardStatsShowLiveApplies(t *testing.T) {
	reg := obs.NewRegistry()
	mgr, err := lifecycle.Open(
		func() (*core.Model, error) { return smallModel(t), nil },
		lifecycle.Config{DataDir: t.TempDir(), Fsync: wal.SyncNever, Registry: reg},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	leader := httptest.NewServer(NewWithOptions(nil, nil, Options{Registry: reg, Manager: mgr}).Handler())
	defer leader.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f, err := replication.Start(ctx, replication.Options{
		LeaderURL:    leader.URL,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fsrv := NewWarming(Options{})
	fsrv.ActivateFollower(f, nil)
	follower := httptest.NewServer(fsrv.Handler())
	defer follower.Close()

	const user = 3
	item := 0
	for ; ; item++ {
		if _, rated := f.Model().Matrix().Rating(user, item); !rated {
			break
		}
	}
	ratingsOf := func(ep string) []float64 {
		t.Helper()
		_, body := getFrom(t, follower, ep)
		shards, ok := body["shards"].([]any)
		if !ok {
			t.Fatalf("follower %s shards = %v", ep, body["shards"])
		}
		out := make([]float64, len(shards))
		for c, sh := range shards {
			out[c] = sh.(map[string]any)["ratings"].(float64)
		}
		return out
	}
	before := map[string][]float64{"/stats": ratingsOf("/stats"), "/metrics": ratingsOf("/metrics")}
	seq, _, err := mgr.Submit(core.RatingUpdate{User: user, Item: item, Value: 4})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.AppliedSeq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at applied seq %d, want %d", f.AppliedSeq(), seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
	shard := f.Model().Clusters().Assign[user]
	for ep, was := range before {
		if now := ratingsOf(ep); now[shard] <= was[shard] {
			t.Errorf("follower %s: shard %d holds %v ratings after the follower applied user %d's new one, %v before", ep, shard, now[shard], user, was[shard])
		}
	}
}

func TestMaxQPSThrottlesWith429(t *testing.T) {
	srv := httptest.NewServer(NewWithOptions(smallModel(t), nil, Options{MaxQPS: 5}).Handler())
	defer srv.Close()

	var ok, throttled int
	var sawRetryAfter bool
	for i := 0; i < 60; i++ {
		resp, err := http.Get(srv.URL + "/predict?user=1&item=1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			throttled++
			if resp.Header.Get("Retry-After") != "" {
				sawRetryAfter = true
			}
		default:
			t.Fatalf("predict: unexpected status %d", resp.StatusCode)
		}
	}
	// Burst capacity is one second of tokens (5), plus whatever refills
	// during the loop; 60 rapid-fire requests must overrun it.
	if throttled == 0 {
		t.Fatalf("no 429s across 60 requests against MaxQPS=5 (ok=%d)", ok)
	}
	if ok == 0 {
		t.Fatal("every request throttled; burst capacity should admit some")
	}
	if !sawRetryAfter {
		t.Fatal("429 responses carry no Retry-After header")
	}

	// Health and stats stay exempt from admission control.
	if code, _ := getFrom(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz throttled: status %d", code)
	}
}
