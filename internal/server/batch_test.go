package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestRateBatchStandalone: an array body on /rate applies the whole
// batch in one Apply pass, including progressive growth — entry i
// may introduce ids GrowthMargin+i past the bounds, because earlier
// entries in the same batch create the ids it builds on.
func TestRateBatchStandalone(t *testing.T) {
	mod := smallModel(t)
	srv := httptest.NewServer(NewWithOptions(mod, nil, Options{MaxBatch: 8}).Handler())
	defer srv.Close()
	before := mod.Matrix().NumRatings()

	code, body := postJSON(t, srv.URL+"/rate", []map[string]any{
		{"user": 2, "item": 3, "rating": 4},
		{"user": 40, "item": 5, "rating": 3}, // fresh user (margin 1+1)
		{"user": 41, "item": 7, "rating": 5}, // builds on the previous entry's growth
	})
	if code != http.StatusOK || body["status"] != "applied" {
		t.Fatalf("/rate batch = %d %v, want 200 applied", code, body)
	}
	if got := body["count"].(float64); got != 3 {
		t.Errorf("applied count = %v, want 3", got)
	}
	if got := int(body["ratings"].(float64)); got != before+3 {
		t.Errorf("ratings after batch = %d, want %d", got, before+3)
	}
	if got := int(body["users"].(float64)); got != 42 {
		t.Errorf("users after growth batch = %d, want 42", got)
	}

	// Validation failures name the offending entry and apply nothing.
	mid := mod.Matrix().NumRatings()
	code, body = postJSON(t, srv.URL+"/rate", []map[string]any{
		{"user": 1, "item": 1, "rating": 4},
		{"user": 1, "item": 2, "rating": 99},
	})
	if code != http.StatusBadRequest || !strings.Contains(body["error"].(string), "entry 1") {
		t.Fatalf("bad entry = %d %v, want 400 naming entry 1", code, body)
	}
	if got := mod.Matrix().NumRatings(); got != mid {
		t.Errorf("failed batch partially applied: %d ratings, want %d", got, mid)
	}

	if code, body = postJSON(t, srv.URL+"/rate", []map[string]any{}); code != http.StatusBadRequest {
		t.Errorf("empty batch = %d %v, want 400", code, body)
	}
	big := make([]map[string]any, 9) // MaxBatch is 8
	for i := range big {
		big[i] = rateBody(i)
	}
	if code, body = postJSON(t, srv.URL+"/rate", big); code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d %v, want 400", code, body)
	}
}

// TestRateBatchQueued: in manager mode an array body becomes one WAL
// append group and one 202 response carrying every assigned sequence.
func TestRateBatchQueued(t *testing.T) {
	srv, mgr := newDurableServer(t, t.TempDir(), smallModel(t))
	before := mgr.Model().Matrix().NumRatings()

	batch := make([]map[string]any, 4)
	for i := range batch {
		batch[i] = rateBody(i)
	}
	code, body := postJSON(t, srv.URL+"/rate", batch)
	if code != http.StatusAccepted || body["status"] != "queued" {
		t.Fatalf("/rate batch = %d %v, want 202 queued", code, body)
	}
	seqs, ok := body["seqs"].([]any)
	if !ok || len(seqs) != 4 {
		t.Fatalf("queued batch seqs = %v, want 4 sequences", body["seqs"])
	}
	last := uint64(seqs[len(seqs)-1].(float64))
	for i := 1; i < len(seqs); i++ {
		if seqs[i].(float64) != seqs[i-1].(float64)+1 {
			t.Fatalf("seqs not consecutive: %v", seqs)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for mgr.AppliedSeq() < last {
		if time.Now().After(deadline) {
			t.Fatal("batch never applied")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := mgr.Model().Matrix().NumRatings(); got <= before {
		t.Errorf("ratings after batch = %d, want > %d", got, before)
	}
}

// TestStatsAndMetricsShards: both introspection endpoints expose the
// per-shard view — /stats for humans, /metrics for scrapers — in
// standalone mode too.
func TestStatsAndMetricsShards(t *testing.T) {
	for _, ep := range []string{"/stats", "/metrics"} {
		code, body := get(t, ep)
		if code != http.StatusOK {
			t.Fatalf("%s = %d", ep, code)
		}
		shards, ok := body["shards"].([]any)
		if !ok || len(shards) != 6 { // testSrv trains with Clusters = 6
			t.Fatalf("%s shards = %v, want 6 entries", ep, body["shards"])
		}
		first := shards[0].(map[string]any)
		for _, key := range []string{"id", "users", "ratings", "applies", "applied", "last_apply_ms"} {
			if _, ok := first[key]; !ok {
				t.Errorf("%s shard entry missing %s: %v", ep, key, first)
			}
		}
		if len(first) != 6 {
			t.Errorf("%s shard entry carries keys beyond the six above: %v", ep, first)
		}
	}
	code, body := get(t, "/stats")
	if code != http.StatusOK || body["num_shards"].(float64) != 6 {
		t.Errorf("/stats num_shards = %v, want 6", body["num_shards"])
	}
}

// TestAdminRetrain: there is one retrain, so the endpoint takes no
// parameter — a leftover ?mode= from an older client is neither validated
// nor echoed.
func TestAdminRetrain(t *testing.T) {
	srv, mgr := newDurableServer(t, t.TempDir(), smallModel(t))
	// Close lets the accepted retrain land, so TempDir's cleanup finds the
	// data directory quiet.
	defer mgr.Close()

	code, body := postJSON(t, srv.URL+"/admin/retrain?mode=bogus", nil)
	if code != http.StatusAccepted || len(body) != 1 || body["status"] != "started" {
		t.Fatalf("/admin/retrain = %d %v, want 202 {status: started}", code, body)
	}
}
