// Package server implements the JSON-over-HTTP recommendation API used
// by cmd/cfsf-server, demonstrating the paper's offline/online split in
// a serving setting: the expensive offline phase runs once, the cheap
// online phase answers every request from the current model, and new
// ratings stream in through the incremental-refresh extension
// (Model.Apply) without downtime.
//
// Endpoints:
//
//	GET  /healthz                 -> {"status":"ok"}
//	GET  /stats                   -> dataset, model, and train-phase statistics
//	GET  /metrics                 -> per-endpoint request counts + latency
//	                                 percentiles, model gauges (JSON)
//	GET  /predict?user=U&item=I   -> fused prediction with components
//	POST /predict/batch           -> {"pairs":[{"user":U,"item":I},...]}
//	                                 parallel fan-out prediction
//	GET  /recommend?user=U&n=N    -> top-N items for the user
//	POST /rate                    -> {"user":U,"item":I,"rating":R} applies
//	                                 an incremental model refresh (or, with a
//	                                 lifecycle manager, journals the rating
//	                                 and queues it for the next micro-batch);
//	                                 an array body [{...},{...}] ingests the
//	                                 whole batch under one WAL append group
//	                                 and answers with per-item seqs
//	POST /admin/snapshot          -> write a model snapshot now (manager mode)
//	POST /admin/retrain           -> start a background retrain (manager mode)
//	GET  /admin/fingerprint       -> sha256 of the serving model's persisted
//	                                 form plus the applied seq and role — the
//	                                 replica-parity check
//	GET  /admin/snapshot          -> the newest snapshot file (replication)
//	GET  /admin/wal?after=S       -> chunked stream of raw WAL frames past seq
//	                                 S, following the tail (replication)
//
// A follower (ActivateFollower) serves the reads locally and answers
// /rate and the POST /admin/* routes with 307 to its leader. Every
// /admin/* route sits behind Options.AdminToken when one is set.
//
// Every handler is wrapped in middleware that records request count,
// status class, in-flight gauge, and a latency histogram per endpoint
// (internal/obs); Options.Debug additionally mounts net/http/pprof
// under /debug/pprof/.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cfsf/internal/core"
	"cfsf/internal/lifecycle"
	"cfsf/internal/obs"
	"cfsf/internal/replication"
)

// Options tunes the request-safety limits of the server. The zero value
// selects the defaults noted on each field.
type Options struct {
	// GrowthMargin is how far past the current matrix bounds a /rate id
	// may grow the matrix: an update with User >= NumUsers+GrowthMargin
	// (or likewise for items) is rejected with 400 instead of
	// allocating. <= 0 means 1 — only the next fresh user/item id is
	// accepted, matching the RatingUpdate contract.
	GrowthMargin int
	// MaxBodyBytes caps request bodies (http.MaxBytesReader) on /rate
	// and /predict/batch. <= 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxBatch caps the number of pairs in one /predict/batch call.
	// <= 0 means 1024.
	MaxBatch int
	// Debug mounts net/http/pprof under /debug/pprof/.
	Debug bool
	// Registry receives the server's metrics; one is created when nil.
	Registry *obs.Registry
	// Manager, when non-nil, owns the serving model: /rate journals to
	// its WAL and queues the update for micro-batched application
	// (responding "queued" instead of "applied"), and the /admin
	// endpoints become operational. Share its obs.Registry with this
	// Options' Registry so /metrics covers wal/lifecycle instrumentation.
	Manager *lifecycle.Manager
	// AdminToken, when non-empty, gates every /admin/* endpoint behind
	// "Authorization: Bearer <token>" (constant-time compare). Empty
	// leaves admin open, preserving single-operator deployments.
	AdminToken string
	// MaxQPS caps the serving endpoints (/predict, /predict/batch,
	// /recommend, /rate) at this many requests per second with a
	// one-second burst; excess answers 429 + Retry-After. <= 0 disables
	// the cap.
	MaxQPS int
}

func (o Options) withDefaults() Options {
	if o.GrowthMargin <= 0 {
		o.GrowthMargin = 1
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	return o
}

// Server serves a CFSF model. Reads go through an atomic pointer so
// predictions never block; writes (incoming ratings) refresh the model
// incrementally under a mutex and swap the pointer.
//
// A Server can be constructed before its model exists (NewWarming): it
// answers /healthz and /metrics immediately while every model-dependent
// endpoint returns 503 "warming up", and Activate later installs the
// model (and optional lifecycle manager) and flips readiness. This is
// what lets cmd/cfsf-server open its listener before the offline phase
// or snapshot+WAL recovery finishes, so load balancers — and the loadgen
// harness measuring recovery time — can watch /healthz?ready=1 go green
// the moment the model is actually servable.
type Server struct {
	// Exactly one of own, mgr and flw holds the model after activation
	// (see current).
	own     atomic.Pointer[core.Model]           // standalone: /rate applies to it under mu
	mu      sync.Mutex                           // serialises standalone /rate applies
	mgr     atomic.Pointer[lifecycle.Manager]    // leader: the manager owns the model
	flw     atomic.Pointer[replication.Follower] // read replica: the follower does
	repl    atomic.Pointer[replication.Leader]
	limiter *qpsLimiter              // nil when MaxQPS is unset
	ready   atomic.Bool              // model (and manager or follower) installed
	titles  atomic.Pointer[[]string] // optional item display names
	opts    Options
	reg     *obs.Registry
	start   time.Time

	epMu      sync.Mutex
	endpoints map[string]*endpointMetrics //cfsf:guarded-by epMu
}

// New returns a Server for the model with default Options; titles may be
// nil.
func New(model *core.Model, titles []string) *Server {
	return NewWithOptions(model, titles, Options{})
}

// NewWithOptions returns a ready Server with explicit request-safety
// limits.
func NewWithOptions(model *core.Model, titles []string, opts Options) *Server {
	s := NewWarming(opts)
	s.Activate(model, titles, opts.Manager)
	return s
}

// NewWarming returns a Server with no model yet: alive but not ready.
// /healthz and /metrics serve immediately; everything touching the model
// answers 503 until Activate installs one. Options.Manager is ignored
// here — pass the manager to Activate once it has booted.
func NewWarming(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:      opts,
		reg:       opts.Registry,
		start:     time.Now(),
		endpoints: map[string]*endpointMetrics{},
	}
	if opts.MaxQPS > 0 {
		s.limiter = newQPSLimiter(opts.MaxQPS)
	}
	s.reg.Gauge("server_ready").Set(0)
	return s
}

// Activate installs the serving model (or the lifecycle manager that owns
// one) and marks the server ready. It must be called exactly once; the
// readiness flip is the publication point, so handlers never observe a
// half-installed model.
func (s *Server) Activate(model *core.Model, titles []string, mgr *lifecycle.Manager) {
	if mgr != nil {
		s.mgr.Store(mgr)
	} else {
		s.own.Store(model)
	}
	s.titles.Store(&titles)
	s.recordModelGauges(s.current())
	s.ready.Store(true)
	s.reg.Gauge("server_ready").Set(1)
}

// Ready reports whether the model is installed and servable.
func (s *Server) Ready() bool { return s.ready.Load() }

// manager returns the lifecycle manager owning the model, or nil.
func (s *Server) manager() *lifecycle.Manager { return s.mgr.Load() }

// current returns the model to serve this request from, taken from
// whichever role owns it: the follower's replica, the manager's (both
// swap it on every micro-batch), or the server's own pointer. It is nil
// until Activate.
func (s *Server) current() *core.Model {
	if f := s.follower(); f != nil {
		return f.Model()
	}
	if mgr := s.manager(); mgr != nil {
		return mgr.Model()
	}
	return s.own.Load()
}

// itemTitles returns the display names installed by Activate, or nil.
func (s *Server) itemTitles() []string {
	if p := s.titles.Load(); p != nil {
		return *p
	}
	return nil
}

// Model returns the currently served model.
func (s *Server) Model() *core.Model { return s.current() }

// Registry returns the metrics registry backing GET /metrics.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the routed HTTP handler with every endpoint
// instrumented.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("GET /healthz", s.handleHealth))
	mux.HandleFunc("GET /stats", s.instrument("GET /stats", s.requireReady(s.handleStats)))
	mux.HandleFunc("GET /metrics", s.instrument("GET /metrics", s.handleMetrics))
	mux.HandleFunc("GET /predict", s.instrument("GET /predict", s.limitQPS(s.requireReady(s.handlePredict))))
	mux.HandleFunc("POST /predict/batch", s.instrument("POST /predict/batch", s.limitQPS(s.requireReady(s.handlePredictBatch))))
	mux.HandleFunc("GET /recommend", s.instrument("GET /recommend", s.limitQPS(s.requireReady(s.handleRecommend))))
	mux.HandleFunc("POST /rate", s.instrument("POST /rate", s.limitQPS(s.requireReady(s.handleRate))))
	mux.HandleFunc("POST /admin/snapshot", s.instrument("POST /admin/snapshot", s.requireAdmin(s.requireReady(s.handleAdminSnapshot))))
	mux.HandleFunc("POST /admin/retrain", s.instrument("POST /admin/retrain", s.requireAdmin(s.requireReady(s.handleAdminRetrain))))
	mux.HandleFunc("GET "+replication.PathWAL, s.instrument("GET "+replication.PathWAL, s.requireAdmin(s.requireReady(s.handleReplWAL))))
	mux.HandleFunc("GET "+replication.PathSnapshot, s.instrument("GET "+replication.PathSnapshot, s.requireAdmin(s.requireReady(s.handleReplSnapshot))))
	mux.HandleFunc("GET "+replication.PathFingerprint, s.instrument("GET "+replication.PathFingerprint, s.requireAdmin(s.requireReady(s.handleFingerprint))))
	if s.opts.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// requireReady guards a model-dependent handler: until Activate installs
// the model, requests are shed with 503 instead of dereferencing a nil
// model. Load balancers should key on /healthz?ready=1 instead of
// tripping this path.
func (s *Server) requireReady(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, errWarmingUp)
			return
		}
		h(w, r)
	}
}

var errWarmingUp = errors.New("warming up: model not loaded yet")

// recordModelGauges publishes the served model's dimensions and
// train-phase timings into the registry so /metrics tracks every swap.
func (s *Server) recordModelGauges(mod *core.Model) {
	if mod == nil {
		return
	}
	m := mod.Matrix()
	st := mod.Stats()
	s.reg.Gauge("model_users").Set(float64(m.NumUsers()))
	s.reg.Gauge("model_items").Set(float64(m.NumItems()))
	s.reg.Gauge("model_ratings").Set(float64(m.NumRatings()))
	s.reg.Gauge("model_train_gis_ms").Set(durMS(st.GISDuration))
	s.reg.Gauge("model_train_cluster_ms").Set(durMS(st.ClusterDuration))
	s.reg.Gauge("model_train_smooth_ms").Set(durMS(st.SmoothDuration))
	s.reg.Gauge("model_train_total_ms").Set(durMS(st.TotalDuration))
	incremental := 0.0
	if st.Incremental {
		incremental = 1
	}
	s.reg.Gauge("model_incremental").Set(incremental)
	s.reg.Gauge("model_gis_reselected").Set(float64(st.GISReselected))
	s.reg.Gauge("model_shards").Set(float64(mod.Config().Clusters))
	rc := core.ReadRecCacheStats()
	s.reg.Gauge("recommend_cache_hits").Set(float64(rc.Hits))
	s.reg.Gauge("recommend_cache_misses").Set(float64(rc.Misses))
	s.reg.Gauge("recommend_scans").Set(float64(rc.Scans))
	s.reg.Gauge("recommend_scans_widened").Set(float64(rc.Widened))
	s.reg.Gauge("recommend_scan_mean_ms").Set(scanMeanMS(rc))
	s.reg.Gauge("recommend_scan_items").Set(float64(rc.ScanItems))
	s.reg.Gauge("recommend_scan_priced").Set(float64(rc.ScanPriced))
	s.reg.Gauge("recommend_scan_priced_ratio").Set(pricedRatio(rc))
}

// scanMeanMS is the mean wall time of one exact Recommend scan: what a
// read that misses the cache costs inside core, 0 before the first scan.
func scanMeanMS(rc core.RecCacheStats) float64 {
	if rc.Scans == 0 {
		return 0
	}
	return durMS(time.Duration(rc.ScanNanos)) / float64(rc.Scans)
}

// pricedRatio is the share of the candidates handed to exact scans
// that SUIR′ was evaluated for — what the bound-and-prune selection could
// not skip — 0 before the first scan.
func pricedRatio(rc core.RecCacheStats) float64 {
	if rc.ScanItems == 0 {
		return 0
	}
	return float64(rc.ScanPriced) / float64(rc.ScanItems)
}

// recCacheView is the /stats JSON form of the process-wide
// recommendation-cache counters (reccache.go).
func recCacheView() map[string]any {
	rc := core.ReadRecCacheStats()
	return map[string]any{
		"hits":         rc.Hits,
		"misses":       rc.Misses,
		"scans":        rc.Scans,
		"widened":      rc.Widened,
		"scan_mean_ms": scanMeanMS(rc),
		"scan_items":   rc.ScanItems,
		"scan_priced":  rc.ScanPriced,
	}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decodeJSON decodes a single JSON document from the (size-limited)
// request body, rejecting bodies over maxBytes and trailing garbage
// after the document.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errBodyTooLarge
		}
		return fmt.Errorf("decode body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errBodyTooLarge
		}
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

var errBodyTooLarge = errors.New("request body too large")

// rateReq is one rating in a POST /rate body — either the whole body
// (single-object form) or one element of the array form.
type rateReq struct {
	User   int     `json:"user"`
	Item   int     `json:"item"`
	Rating float64 `json:"rating"`
	Time   int64   `json:"time,omitempty"`
}

// handleRate accepts one rating or an array of them. The body is decoded
// once into a slice — an object body is a slice of one, and the form only
// shapes the response — validated once (validateRates), and handed whole
// to one of two sinks.
//
// With a lifecycle manager the ratings are journaled as ONE WAL append
// group (a single buffered write and fsync covering every entry) and
// queued for micro-batched application: 202 {"status":"queued"} with the
// assigned seq (or per-item "seqs") and the pending count. A subsequent
// read may not see them until their batch lands (see the README's
// read-your-write note); validation runs against the serving model at
// submission time, and the model growing before the apply only ever
// widens what would have been accepted.
//
// Standalone, they are folded in synchronously by one Model.Apply
// — validation runs under the same lock as the apply, so a concurrent
// swap can never change the model between the two — and the answer is
// 200 {"status":"applied"}.
func (s *Server) handleRate(w http.ResponseWriter, r *http.Request) {
	if f := s.follower(); f != nil {
		s.redirectToLeader(w, r, f)
		return
	}
	var raw json.RawMessage
	if err := decodeJSON(w, r, s.opts.MaxBodyBytes, &raw); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	// The first non-whitespace byte tells /rate's two body forms apart.
	array := bytes.HasPrefix(bytes.TrimLeft(raw, " \t\r\n"), []byte("["))
	reqs := make([]rateReq, 1)
	var dst any = &reqs[0]
	if array {
		dst = &reqs
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode body: %v", err))
		return
	}
	if len(reqs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(reqs) > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch size %d exceeds limit %d", len(reqs), s.opts.MaxBatch))
		return
	}
	if mgr := s.manager(); mgr != nil {
		ups, err := s.validateRates(mgr.Model(), reqs, array)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		seqs, pending, err := mgr.SubmitBatch(ups)
		switch {
		case errors.Is(err, lifecycle.ErrQueueFull), errors.Is(err, lifecycle.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		s.reg.Counter("rate_queued_total").Add(int64(len(ups)))
		resp := map[string]any{"status": "queued", "pending": pending}
		if array {
			s.reg.Counter("rate_batches_total").Inc()
			resp["count"], resp["seqs"] = len(seqs), seqs
		} else {
			resp["seq"] = seqs[0]
		}
		writeJSON(w, http.StatusAccepted, resp)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.own.Load()
	ups, err := s.validateRates(cur, reqs, array)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	next, err := cur.Apply(ups)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.own.Store(next)
	s.recordModelGauges(next)
	s.reg.Counter("rate_applied_total").Add(int64(len(ups)))
	m := next.Matrix()
	resp := map[string]any{
		"status": "applied", "users": m.NumUsers(), "items": m.NumItems(), "ratings": m.NumRatings(),
	}
	if array {
		s.reg.Counter("rate_batches_total").Inc()
		resp["count"] = len(ups)
	}
	writeJSON(w, http.StatusOK, resp)
}

// validateRates checks every rating of one /rate request against the
// given model's scale and growth margin and converts the request into
// updates. Entry i may reference ids up to GrowthMargin+i past the current
// bounds, since earlier entries of the same request may have introduced
// the ids it builds on — a single rating gets exactly GrowthMargin. Array
// entries are named in the error.
func (s *Server) validateRates(cur *core.Model, reqs []rateReq, array bool) ([]core.RatingUpdate, error) {
	m := cur.Matrix()
	ups := make([]core.RatingUpdate, len(reqs))
	for i, q := range reqs {
		margin := s.opts.GrowthMargin + i
		var err error
		switch {
		case q.User < 0 || q.Item < 0:
			err = fmt.Errorf("negative id")
		case q.Rating < m.MinRating() || q.Rating > m.MaxRating():
			err = fmt.Errorf("rating %g outside scale %g..%g", q.Rating, m.MinRating(), m.MaxRating())
		case q.User >= m.NumUsers()+margin || q.Item >= m.NumItems()+margin:
			err = fmt.Errorf("id (%d,%d) more than %d past current bounds %d×%d",
				q.User, q.Item, margin, m.NumUsers(), m.NumItems())
		}
		if err != nil {
			if array {
				err = fmt.Errorf("entry %d: %w", i, err)
			}
			return nil, err
		}
		ups[i] = core.RatingUpdate{User: q.User, Item: q.Item, Value: q.Rating, Time: q.Time}
	}
	return ups, nil
}

// handleHealth distinguishes liveness from readiness: a 200 with
// "ready":false means the process is up but the model is still training
// or recovering (snapshot load + WAL-tail replay). With ?ready=1 the
// check becomes a readiness probe: 503 until Activate, so load balancers
// and the loadgen harness can wait for — and time — warm-up precisely.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	ready := s.ready.Load()
	resp := map[string]any{"status": "ok", "ready": ready}
	if f := s.follower(); f != nil {
		resp["role"] = "follower"
		resp["applied_seq"] = f.AppliedSeq()
	} else if mgr := s.manager(); mgr != nil {
		resp["pending"] = mgr.Pending()
		resp["applied_seq"] = mgr.AppliedSeq()
	}
	status := http.StatusOK
	if !ready && r.URL.Query().Get("ready") != "" {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	mod := s.current()
	m := mod.Matrix()
	st := mod.Stats()
	cfg := mod.Config()
	shards := mod.ShardStats()
	resp := map[string]any{
		"num_shards":    len(shards),
		"shards":        shards,
		"users":         m.NumUsers(),
		"items":         m.NumItems(),
		"ratings":       m.NumRatings(),
		"density":       m.Density(),
		"gis_neighbors": st.GISNeighbors,
		"cluster_iters": st.ClusterIters,
		"train": map[string]any{
			"gis_reselected": st.GISReselected,
		},
		"train_ms": map[string]any{
			"gis":     durMS(st.GISDuration),
			"cluster": durMS(st.ClusterDuration),
			"smooth":  durMS(st.SmoothDuration),
			"total":   durMS(st.TotalDuration),
		},
		"train_total_ms":  st.TotalDuration.Milliseconds(),
		"incremental":     st.Incremental,
		"updates_applied": st.UpdatesApplied,
		"recommend_cache": recCacheView(),
		"config": map[string]any{
			"M": cfg.M, "K": cfg.K, "C": cfg.Clusters,
			"lambda": cfg.Lambda, "delta": cfg.Delta, "epsilon": cfg.OriginalWeight,
		},
	}
	// The queue view the loadgen steady scenario asserts on: depth and
	// apply-lag (newest journaled seq minus applied watermark) must drain
	// back to zero once traffic stops.
	if mgr := s.manager(); mgr != nil {
		ws := mgr.WALStats()
		lc := map[string]any{
			"pending":      mgr.Pending(),
			"apply_lag":    mgr.ApplyLag(),
			"applied_seq":  mgr.AppliedSeq(),
			"wal_last_seq": ws.LastSeq,
			"retraining":   mgr.Retraining(),
			"storage": map[string]any{
				"wal_segments":        ws.Segments,
				"wal_available_from":  mgr.WALAvailableFrom(),
				"oldest_snapshot_seq": mgr.OldestSnapshotSeq(),
			},
		}
		// What the last non-skipped snapshot wrote: its file, the
		// watermark it covers, its size and how long it took.
		if snap := mgr.SnapshotStats(); snap.Path != "" {
			lc["last_snapshot"] = snap
		}
		resp["lifecycle"] = lc
	}
	if rs := s.replicationStats(); rs != nil {
		resp["replication"] = rs
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics reports the per-endpoint view plus the raw registry
// snapshot. Model and queue gauges are refreshed at scrape time so they
// track the serving model even when swaps happen inside the lifecycle
// manager. Unlike /stats it serves before Activate too — a scrape of a
// warming server sees server_ready=0 and whatever boot has recorded.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	mod := s.current()
	s.recordModelGauges(mod)
	var shards []core.ShardStats
	if mod != nil {
		shards = mod.ShardStats()
	}
	if mgr := s.manager(); mgr != nil {
		mgr.PublishGauges()
	}
	if f := s.follower(); f != nil {
		f.Stats() // refreshes the replication lag gauges at scrape time
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(s.start).Seconds(),
		"ready":          s.ready.Load(),
		"endpoints":      s.endpointsView(),
		"registry":       s.reg.Snapshot(),
		"shards":         shards,
	})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := boundedIntParam(q, "user", 0, maxIDParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	item, err := boundedIntParam(q, "item", 0, maxIDParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mod := s.current()
	m := mod.Matrix()
	if user < 0 || user >= m.NumUsers() || item < 0 || item >= m.NumItems() {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("user %d or item %d outside %d×%d", user, item, m.NumUsers(), m.NumItems()))
		return
	}
	p := mod.PredictDetailed(user, item)
	resp := map[string]any{
		"user": user, "item": item, "prediction": round3(p.Value),
		"components": map[string]any{
			"sir": round3(p.SIR), "sur": round3(p.SUR), "suir": round3(p.SUIR),
		},
		"local_items": p.ItemsUsed, "local_users": p.UsersUsed,
	}
	if titles := s.itemTitles(); item < len(titles) {
		resp["title"] = titles[item]
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePredictBatch predicts every pair of the request in one parallel
// fan-out (Model.PredictBatch over internal/parallel). Out-of-bounds
// pairs fall back to the cold-start chain rather than failing the batch,
// exactly as single predictions outside the matrix would.
func (s *Server) handlePredictBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Pairs []struct {
			User int `json:"user"`
			Item int `json:"item"`
		} `json:"pairs"`
	}
	if err := decodeJSON(w, r, s.opts.MaxBodyBytes, &req); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return
	}
	if len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	if len(req.Pairs) > s.opts.MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch size %d exceeds limit %d", len(req.Pairs), s.opts.MaxBatch))
		return
	}
	pairs := make([]core.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = core.Pair{User: p.User, Item: p.Item}
	}
	mod := s.current()
	t := time.Now()
	values := mod.PredictBatch(pairs)
	elapsed := time.Since(t)
	preds := make([]map[string]any, len(pairs))
	for i, p := range pairs {
		preds[i] = map[string]any{
			"user": p.User, "item": p.Item, "prediction": round3(values[i]),
		}
	}
	s.reg.Counter("batch_pairs_total").Add(int64(len(pairs)))
	writeJSON(w, http.StatusOK, map[string]any{
		"count":       len(preds),
		"elapsed_ms":  durMS(elapsed),
		"predictions": preds,
	})
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	user, err := boundedIntParam(q, "user", 0, maxIDParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	n, err := optionalBoundedIntParam(q, "n", 1, 100, 10)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mod := s.current()
	m := mod.Matrix()
	if user < 0 || user >= m.NumUsers() {
		writeError(w, http.StatusNotFound, fmt.Errorf("user %d outside 0..%d", user, m.NumUsers()-1))
		return
	}
	recs := mod.Recommend(user, n)
	titles := s.itemTitles()
	items := make([]map[string]any, 0, len(recs))
	for _, rec := range recs {
		entry := map[string]any{"item": rec.Item, "score": round3(rec.Score)}
		if rec.Item < len(titles) {
			entry["title"] = titles[rec.Item]
		}
		items = append(items, entry)
	}
	writeJSON(w, http.StatusOK, map[string]any{"user": user, "recommendations": items})
}

// maxIDParam bounds user/item ids accepted from the query string. Ids
// are int32 inside the model, so anything above this is garbage input,
// not a resource that might exist; matrix-bounds checks (404) still
// apply below it.
const maxIDParam = 1<<31 - 1

// boundedIntParam parses the named query parameter as an integer in
// [lo, hi]. Every handler reading numeric query input goes through this
// one parser, so the rejection surface is uniform: missing, non-integer
// (including fractional and overflow) and out-of-range values all yield
// one 400 with the accepted range spelled out. q is the handler's one
// parse of the query string.
func boundedIntParam(q url.Values, name string, lo, hi int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing required parameter %q", name)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %q is not an integer", name, v)
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("parameter %q: %d outside %d..%d", name, n, lo, hi)
	}
	return n, nil
}

// optionalBoundedIntParam is boundedIntParam with a default for an
// absent parameter; a present value is validated identically.
func optionalBoundedIntParam(q url.Values, name string, lo, hi, def int) (int, error) {
	if q.Get(name) == "" {
		return def, nil
	}
	return boundedIntParam(q, name, lo, hi)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("cfsf-server: encode response: %v", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// round3 rounds to three decimals. math.Round (round half away from
// zero) rather than int(v*1000+0.5), which truncates toward zero and
// mis-rounds negative values (e.g. signed deviations or future metrics).
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
