package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cfsf/internal/core"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// newTestServer trains a small model once per test binary.
var testSrv = func() *httptest.Server {
	cfg := synth.DefaultConfig()
	cfg.Users = 80
	cfg.Items = 100
	cfg.MinPerUser = 12
	cfg.MeanPerUser = 25
	cfg.Archetypes = 6
	d := synth.MustGenerate(cfg)
	mcfg := core.DefaultConfig()
	mcfg.M = 20
	mcfg.K = 10
	mcfg.Clusters = 6
	mod, err := core.Train(d.Matrix, mcfg)
	if err != nil {
		panic(err)
	}
	return httptest.NewServer(New(mod, d.ItemTitles).Handler())
}()

func get(t *testing.T, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(testSrv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s content type %q", path, ct)
	}
	return resp.StatusCode, body
}

func TestHealthz(t *testing.T) {
	code, body := get(t, "/healthz")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, body)
	}
}

func TestStats(t *testing.T) {
	code, body := get(t, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if body["users"].(float64) != 80 || body["items"].(float64) != 100 {
		t.Errorf("stats dims wrong: %v", body)
	}
	cfg := body["config"].(map[string]any)
	if cfg["M"].(float64) != 20 {
		t.Errorf("config M = %v, want 20", cfg["M"])
	}
}

func TestPredict(t *testing.T) {
	code, body := get(t, "/predict?user=3&item=7")
	if code != http.StatusOK {
		t.Fatalf("predict = %d %v", code, body)
	}
	pred := body["prediction"].(float64)
	if pred < 1 || pred > 5 {
		t.Errorf("prediction %g out of scale", pred)
	}
	if _, ok := body["components"].(map[string]any); !ok {
		t.Error("missing components")
	}
	if _, ok := body["title"].(string); !ok {
		t.Error("missing title for synthetic dataset")
	}
}

func TestPredictValidation(t *testing.T) {
	cases := []struct {
		path string
		code int
	}{
		{"/predict?item=7", http.StatusBadRequest},
		{"/predict?user=3", http.StatusBadRequest},
		{"/predict?user=abc&item=7", http.StatusBadRequest},
		{"/predict?user=9999&item=7", http.StatusNotFound},
		{"/predict?user=3&item=9999", http.StatusNotFound},
	}
	for _, c := range cases {
		code, body := get(t, c.path)
		if code != c.code {
			t.Errorf("%s = %d, want %d (%v)", c.path, code, c.code, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: missing error field", c.path)
		}
	}
}

func TestRecommend(t *testing.T) {
	code, body := get(t, "/recommend?user=5&n=4")
	if code != http.StatusOK {
		t.Fatalf("recommend = %d %v", code, body)
	}
	recs := body["recommendations"].([]any)
	if len(recs) != 4 {
		t.Fatalf("got %d recommendations, want 4", len(recs))
	}
	prev := 6.0
	for _, r := range recs {
		entry := r.(map[string]any)
		score := entry["score"].(float64)
		if score > prev {
			t.Error("recommendations not sorted by score")
		}
		prev = score
		if _, ok := entry["title"]; !ok {
			t.Error("recommendation missing title")
		}
	}
}

// TestQueryParamValidation is the table over the unified bounded-int
// parser's whole rejection surface, on both query handlers: missing,
// non-integer, fractional, overflowing and out-of-range values are all
// 400s with an error body, while in-bounds values that name a
// nonexistent resource stay 404s and boundary values are accepted.
func TestQueryParamValidation(t *testing.T) {
	cases := []struct {
		path string
		code int
	}{
		// /recommend: user required in [0, maxIDParam], n optional in [1, 100].
		{"/recommend", http.StatusBadRequest},                               // user missing
		{"/recommend?n=5", http.StatusBadRequest},                           // user missing, n present
		{"/recommend?user=x", http.StatusBadRequest},                        // user non-integer
		{"/recommend?user=1.5", http.StatusBadRequest},                      // user fractional
		{"/recommend?user=-1", http.StatusBadRequest},                       // user negative
		{"/recommend?user=99999999999999999999", http.StatusBadRequest},     // user overflows int
		{"/recommend?user=2147483648", http.StatusBadRequest},               // user past the id ceiling
		{"/recommend?user=5&n=0", http.StatusBadRequest},                    // n below range
		{"/recommend?user=5&n=-3", http.StatusBadRequest},                   // n negative
		{"/recommend?user=5&n=101", http.StatusBadRequest},                  // n above range
		{"/recommend?user=5&n=1000", http.StatusBadRequest},                 // n far above range
		{"/recommend?user=5&n=x", http.StatusBadRequest},                    // n non-integer
		{"/recommend?user=5&n=2.5", http.StatusBadRequest},                  // n fractional
		{"/recommend?user=5&n=99999999999999999999", http.StatusBadRequest}, // n overflows int
		{"/recommend?user=9999", http.StatusNotFound},                       // valid id, no such user
		{"/recommend?user=5&n=1", http.StatusOK},                            // n lower boundary
		{"/recommend?user=5&n=100", http.StatusOK},                          // n upper boundary
		// /predict: user and item both required in [0, maxIDParam].
		{"/predict?item=7", http.StatusBadRequest},                           // user missing
		{"/predict?user=3", http.StatusBadRequest},                           // item missing
		{"/predict?user=abc&item=7", http.StatusBadRequest},                  // user non-integer
		{"/predict?user=3&item=abc", http.StatusBadRequest},                  // item non-integer
		{"/predict?user=-1&item=7", http.StatusBadRequest},                   // user negative
		{"/predict?user=3&item=-7", http.StatusBadRequest},                   // item negative
		{"/predict?user=3.5&item=7", http.StatusBadRequest},                  // user fractional
		{"/predict?user=99999999999999999999&item=7", http.StatusBadRequest}, // user overflows int
		{"/predict?user=3&item=2147483648", http.StatusBadRequest},           // item past the id ceiling
		{"/predict?user=9999&item=7", http.StatusNotFound},                   // valid id, no such user
		{"/predict?user=3&item=9999", http.StatusNotFound},                   // valid id, no such item
	}
	for _, c := range cases {
		code, body := get(t, c.path)
		if code != c.code {
			t.Errorf("%s = %d, want %d (%v)", c.path, code, c.code, body)
		}
		if c.code != http.StatusOK {
			if _, ok := body["error"]; !ok {
				t.Errorf("%s: missing error field", c.path)
			}
		}
	}
}

// TestRecommendRendersEmptyList pins the empty-result contract at the
// HTTP boundary: a user with nothing to recommend gets
// "recommendations": [] — never null — matching core.Recommend's
// non-nil-on-valid-input contract.
func TestRecommendRendersEmptyList(t *testing.T) {
	b := ratings.NewBuilder(2, 2).SetScale(1, 5)
	b.MustAdd(0, 0, 4)
	b.MustAdd(0, 1, 3)
	b.MustAdd(1, 0, 5)
	cfg := core.DefaultConfig()
	cfg.M, cfg.K, cfg.Clusters = 2, 1, 1
	mod, err := core.Train(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(mod, nil).Handler())
	defer srv.Close()

	// User 0 rated the whole catalogue: nothing left to recommend.
	resp, err := http.Get(srv.URL + "/recommend?user=0&n=5")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated user = %d: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `"recommendations":[]`) {
		t.Errorf("empty result not rendered as []: %s", raw)
	}
	if strings.Contains(string(raw), "null") {
		t.Errorf("response contains null: %s", raw)
	}
}

// TestStatsExposeRecommendCache: both observability endpoints surface
// the recommendation-cache counters, and serving the same user twice
// moves the hit counter between scrapes.
func TestStatsExposeRecommendCache(t *testing.T) {
	readHits := func() (statsHits, metricsHits float64) {
		code, body := get(t, "/stats")
		if code != http.StatusOK {
			t.Fatalf("stats = %d", code)
		}
		rc, ok := body["recommend_cache"].(map[string]any)
		if !ok {
			t.Fatalf("stats missing recommend_cache: %v", body)
		}
		for _, key := range []string{"hits", "misses", "scans", "widened", "scan_mean_ms", "scan_items", "scan_priced"} {
			if _, ok := rc[key]; !ok {
				t.Fatalf("recommend_cache missing %q: %v", key, rc)
			}
		}
		code, body = get(t, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics = %d", code)
		}
		reg := body["registry"].(map[string]any)
		gauges := reg["gauges"].(map[string]any)
		g, ok := gauges["recommend_cache_hits"].(float64)
		if !ok {
			t.Fatalf("metrics missing recommend_cache_hits gauge: %v", gauges)
		}
		// The repeated read below misses once, so an exact scan has run
		// and been timed by the second scrape.
		if rc["hits"].(float64) >= 1 {
			if rc["scans"].(float64) < 1 || rc["scan_mean_ms"].(float64) <= 0 {
				t.Errorf("stats scans = %v, scan_mean_ms = %v after a cold read", rc["scans"], rc["scan_mean_ms"])
			}
			if ms, _ := gauges["recommend_scan_mean_ms"].(float64); ms <= 0 {
				t.Errorf("metrics recommend_scan_mean_ms = %v after a cold read", gauges["recommend_scan_mean_ms"])
			}
			items, priced := rc["scan_items"].(float64), rc["scan_priced"].(float64)
			if priced < 1 || priced > items {
				t.Errorf("stats scan_priced = %v of scan_items = %v after a cold read", priced, items)
			}
			if gauges["recommend_scans_widened"] != rc["widened"] {
				t.Errorf("metrics recommend_scans_widened = %v, stats widened = %v", gauges["recommend_scans_widened"], rc["widened"])
			}
			if ratio, _ := gauges["recommend_scan_priced_ratio"].(float64); ratio != priced/items ||
				gauges["recommend_scan_items"] != items || gauges["recommend_scan_priced"] != priced {
				t.Errorf("metrics scan gauges %v/%v ratio %v, stats %v/%v", gauges["recommend_scan_priced"],
					gauges["recommend_scan_items"], gauges["recommend_scan_priced_ratio"], priced, items)
			}
		}
		return rc["hits"].(float64), g
	}
	readHits()
	// Two reads of one user: at most one miss, at least one hit.
	get(t, "/recommend?user=11&n=5")
	get(t, "/recommend?user=11&n=5")
	statsHits, metricsHits := readHits()
	if statsHits < 1 {
		t.Errorf("stats hits = %v after a repeated read, want >= 1", statsHits)
	}
	if metricsHits < 1 {
		t.Errorf("metrics hits gauge = %v after a repeated read, want >= 1", metricsHits)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	resp, err := http.Post(testSrv.URL+"/predict?user=1&item=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST = %d, want 405", resp.StatusCode)
	}
}

func TestConcurrentRequests(t *testing.T) {
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		g := g
		go func() {
			resp, err := http.Get(testSrv.URL + fmt.Sprintf("/predict?user=%d&item=%d", g%10, g%20))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRateAppliesIncrementalUpdate(t *testing.T) {
	// Use a private server so the shared one is unaffected.
	cfg := synth.DefaultConfig()
	cfg.Users = 50
	cfg.Items = 60
	cfg.MinPerUser = 10
	cfg.MeanPerUser = 15
	cfg.Archetypes = 5
	d := synth.MustGenerate(cfg)
	mcfg := core.DefaultConfig()
	mcfg.M = 10
	mcfg.K = 5
	mcfg.Clusters = 5
	mod, err := core.Train(d.Matrix, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(mod, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := srv.Model().Matrix().NumRatings()
	resp, err := http.Post(ts.URL+"/rate", "application/json",
		strings.NewReader(`{"user":50,"item":3,"rating":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /rate = %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["users"].(float64) != 51 {
		t.Errorf("users = %v, want 51 (new user grew the matrix)", body["users"])
	}
	after := srv.Model().Matrix().NumRatings()
	if after != before+1 {
		t.Errorf("ratings %d -> %d, want +1", before, after)
	}
	if r, ok := srv.Model().Matrix().Rating(50, 3); !ok || r != 5 {
		t.Errorf("new rating not visible: %g,%v", r, ok)
	}
}

func TestRateValidation(t *testing.T) {
	for _, payload := range []string{
		`not json`,
		`{"user":-1,"item":3,"rating":5}`,
		`{"user":1,"item":3,"rating":9}`,
	} {
		resp, err := http.Post(testSrv.URL+"/rate", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q = %d, want 400", payload, resp.StatusCode)
		}
	}
}

// trainSmallModel trains a compact model for tests that need a private
// server (so mutations or custom Options never leak into testSrv).
func trainSmallModel(t *testing.T) *core.Model {
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

func post(t *testing.T, url, payload string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, body
}

// TestMetricsEndToEnd drives traffic through /predict and then checks
// that GET /metrics reports per-endpoint counts, status classes, and
// latency percentiles for it.
func TestMetricsEndToEnd(t *testing.T) {
	const hits = 5
	for i := 0; i < hits; i++ {
		if code, _ := get(t, fmt.Sprintf("/predict?user=%d&item=%d", i%10, i%20)); code != http.StatusOK {
			t.Fatalf("predict warmup = %d", code)
		}
	}
	get(t, "/predict?user=999999&item=1") // one 404 for the status map

	code, body := get(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	endpoints, ok := body["endpoints"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing endpoints section: %v", body)
	}
	ep, ok := endpoints["GET /predict"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing GET /predict endpoint: %v", endpoints)
	}
	if n := ep["requests"].(float64); n < hits+1 {
		t.Errorf("GET /predict requests = %g, want >= %d", n, hits+1)
	}
	statuses := ep["status"].(map[string]any)
	if statuses["2xx"].(float64) < hits {
		t.Errorf("2xx count = %v, want >= %d", statuses["2xx"], hits)
	}
	if statuses["4xx"].(float64) < 1 {
		t.Errorf("4xx count = %v, want >= 1", statuses["4xx"])
	}
	lat := ep["latency_ms"].(map[string]any)
	for _, q := range []string{"p50", "p95", "p99", "count", "max"} {
		if _, ok := lat[q]; !ok {
			t.Errorf("latency_ms missing %q: %v", q, lat)
		}
	}
	if lat["count"].(float64) < hits {
		t.Errorf("latency count = %v, want >= %d", lat["count"], hits)
	}
	if !(lat["p50"].(float64) <= lat["p95"].(float64) && lat["p95"].(float64) <= lat["p99"].(float64)) {
		t.Errorf("percentiles not monotonic: %v", lat)
	}
	if _, ok := ep["in_flight"]; !ok {
		t.Error("endpoint metrics missing in_flight gauge")
	}
	reg, ok := body["registry"].(map[string]any)
	if !ok {
		t.Fatalf("metrics missing registry snapshot: %v", body)
	}
	gauges := reg["gauges"].(map[string]any)
	for _, g := range []string{"model_users", "model_train_total_ms", "model_train_gis_ms", "model_incremental", "model_gis_reselected"} {
		if _, ok := gauges[g]; !ok {
			t.Errorf("registry missing gauge %q", g)
		}
	}
}

func TestStatsTrainPhaseTimings(t *testing.T) {
	code, body := get(t, "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	trainMS, ok := body["train_ms"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing train_ms: %v", body)
	}
	requireTrainPhasesWithinTotal(t, trainMS)
	if body["incremental"] != false {
		t.Errorf("freshly trained model reported incremental=%v", body["incremental"])
	}
	if train, ok := body["train"].(map[string]any); !ok || train["gis_reselected"] != 0.0 {
		t.Errorf("stats train = %v, want gis_reselected 0 for a freshly trained model", body["train"])
	}
}

// requireTrainPhasesWithinTotal checks /stats train_ms reports all three
// phases and that they account for no more than the total: they time
// disjoint stretches of the same train or apply.
func requireTrainPhasesWithinTotal(t *testing.T, trainMS map[string]any) {
	t.Helper()
	var sum float64
	for _, phase := range []string{"gis", "cluster", "smooth"} {
		ms, ok := trainMS[phase].(float64)
		if !ok {
			t.Fatalf("train_ms missing phase %q: %v", phase, trainMS)
		}
		sum += ms
	}
	total, ok := trainMS["total"].(float64)
	if !ok {
		t.Fatalf("train_ms missing total: %v", trainMS)
	}
	if sum > total+1e-6 {
		t.Errorf("train_ms phases sum to %g ms, more than total %g ms: %v", sum, total, trainMS)
	}
}

func TestPredictBatch(t *testing.T) {
	code, body := post(t, testSrv.URL+"/predict/batch",
		`{"pairs":[{"user":1,"item":2},{"user":3,"item":7},{"user":0,"item":0}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch = %d %v", code, body)
	}
	if body["count"].(float64) != 3 {
		t.Errorf("count = %v, want 3", body["count"])
	}
	preds := body["predictions"].([]any)
	if len(preds) != 3 {
		t.Fatalf("got %d predictions, want 3", len(preds))
	}
	first := preds[0].(map[string]any)
	if first["user"].(float64) != 1 || first["item"].(float64) != 2 {
		t.Errorf("predictions not in input order: %v", first)
	}
	for _, p := range preds {
		v := p.(map[string]any)["prediction"].(float64)
		if v < 1 || v > 5 {
			t.Errorf("prediction %g out of scale", v)
		}
	}
	if _, ok := body["elapsed_ms"]; !ok {
		t.Error("batch response missing elapsed_ms")
	}
}

func TestPredictBatchValidation(t *testing.T) {
	srv := NewWithOptions(trainSmallModel(t), nil, Options{MaxBatch: 4, MaxBodyBytes: 512})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := `{"pairs":[` + strings.Repeat(`{"user":1,"item":1},`, 4) + `{"user":1,"item":1}]}`
	cases := []struct {
		name    string
		payload string
		code    int
	}{
		{"not json", `pairs please`, http.StatusBadRequest},
		{"empty batch", `{"pairs":[]}`, http.StatusBadRequest},
		{"missing pairs", `{}`, http.StatusBadRequest},
		{"oversized batch", big, http.StatusBadRequest},
		{"trailing garbage", `{"pairs":[{"user":1,"item":1}]} extra`, http.StatusBadRequest},
		{"second document", `{"pairs":[{"user":1,"item":1}]}{"pairs":[]}`, http.StatusBadRequest},
		{"oversize body", `{"pairs":[` + strings.Repeat(`{"user":11,"item":11},`, 30) + `{"user":1,"item":1}]}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		code, body := post(t, ts.URL+"/predict/batch", c.payload)
		if code != c.code {
			t.Errorf("%s = %d, want %d (%v)", c.name, code, c.code, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: missing error field", c.name)
		}
	}
}

func TestRateBodyLimits(t *testing.T) {
	srv := NewWithOptions(trainSmallModel(t), nil, Options{MaxBodyBytes: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name    string
		payload string
		code    int
	}{
		{"oversize body", `{"user":1,"item":1,"rating":3,"pad":"` + strings.Repeat("x", 100) + `"}`, http.StatusRequestEntityTooLarge},
		{"trailing garbage", `{"user":1,"item":1,"rating":3}garbage`, http.StatusBadRequest},
		{"second document", `{"user":1,"item":1,"rating":3}{}`, http.StatusBadRequest},
	}
	before := srv.Model().Matrix().NumRatings()
	for _, c := range cases {
		code, body := post(t, ts.URL+"/rate", c.payload)
		if code != c.code {
			t.Errorf("%s = %d, want %d (%v)", c.name, code, c.code, body)
		}
	}
	if after := srv.Model().Matrix().NumRatings(); after != before {
		t.Errorf("rejected bodies changed the model: %d -> %d ratings", before, after)
	}
}

// TestRateGrowthMargin is the allocation-bomb regression test: an id far
// past the matrix bounds must return 400, not allocate a 2-billion-row
// matrix.
func TestRateGrowthMargin(t *testing.T) {
	srv := New(trainSmallModel(t), nil) // default margin 1, 40×50 matrix
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, c := range []struct {
		name    string
		payload string
		code    int
	}{
		{"huge user id", `{"user":2000000000,"item":3,"rating":4}`, http.StatusBadRequest},
		{"huge item id", `{"user":3,"item":2000000000,"rating":4}`, http.StatusBadRequest},
		{"user just past margin", `{"user":41,"item":3,"rating":4}`, http.StatusBadRequest},
		{"item just past margin", `{"user":3,"item":51,"rating":4}`, http.StatusBadRequest},
		{"next fresh user", `{"user":40,"item":3,"rating":4}`, http.StatusOK},
	} {
		code, body := post(t, ts.URL+"/rate", c.payload)
		if code != c.code {
			t.Errorf("%s = %d, want %d (%v)", c.name, code, c.code, body)
		}
	}
	// The accepted update grew the matrix by exactly one user.
	if got := srv.Model().Matrix().NumUsers(); got != 41 {
		t.Errorf("users = %d, want 41", got)
	}

	wide := NewWithOptions(trainSmallModel(t), nil, Options{GrowthMargin: 100})
	tw := httptest.NewServer(wide.Handler())
	defer tw.Close()
	if code, body := post(t, tw.URL+"/rate", `{"user":120,"item":3,"rating":4}`); code != http.StatusOK {
		t.Errorf("margin 100, user 120 = %d, want 200 (%v)", code, body)
	}
	if code, _ := post(t, tw.URL+"/rate", `{"user":300,"item":3,"rating":4}`); code != http.StatusBadRequest {
		t.Errorf("margin 100, user 300 = %d, want 400", code)
	}
}

func TestRateMarksModelIncremental(t *testing.T) {
	srv := New(trainSmallModel(t), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, body := post(t, ts.URL+"/rate", `{"user":1,"item":2,"rating":4}`); code != http.StatusOK {
		t.Fatalf("rate = %d %v", code, body)
	}
	st := srv.Model().Stats()
	if !st.Incremental || st.UpdatesApplied != 1 {
		t.Errorf("stats after rate: incremental=%v updates=%d, want true/1", st.Incremental, st.UpdatesApplied)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["incremental"] != true {
		t.Errorf("/stats incremental = %v, want true", body["incremental"])
	}
	trainMS, ok := body["train_ms"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing train_ms: %v", body)
	}
	requireTrainPhasesWithinTotal(t, trainMS)
}

func TestDebugPprofGating(t *testing.T) {
	mod := trainSmallModel(t)
	plain := httptest.NewServer(New(mod, nil).Handler())
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable without Debug option")
	}

	dbg := httptest.NewServer(NewWithOptions(mod, nil, Options{Debug: true}).Handler())
	defer dbg.Close()
	resp, err = http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with Debug = %d, want 200", resp.StatusCode)
	}
}

// round3 regression: the old int-cast trick (float64(int(v*1000+0.5))/1000)
// rounded negatives toward zero minus a millesimal — -1.2345 became
// -1.234 instead of -1.235 — and overflowed for huge magnitudes.
func TestRound3Negatives(t *testing.T) {
	cases := map[float64]float64{
		1.2345:  1.235,
		-1.2345: -1.235,
		-1.2344: -1.234,
		-0.0005: -0.001,
		2.5:     2.5,
		-3.0:    -3,
		0:       0,
	}
	for in, want := range cases {
		if got := round3(in); got != want {
			t.Errorf("round3(%v) = %v, want %v", in, got, want)
		}
	}
}
