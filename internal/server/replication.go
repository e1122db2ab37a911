package server

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"cfsf/internal/replication"
)

// --- admin auth ---

// requireAdmin gates a handler behind the shared admin token
// (Options.AdminToken). With no token configured the gate is open —
// single-operator deployments keep working — but a replicated fleet
// should set one, since GET /admin/snapshot and /admin/wal serve the
// full dataset. The comparison is constant-time.
func (s *Server) requireAdmin(h http.HandlerFunc) http.HandlerFunc {
	if s.opts.AdminToken == "" {
		return h
	}
	want := []byte("Bearer " + s.opts.AdminToken)
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			s.reg.Counter("admin_auth_failures_total").Inc()
			writeError(w, http.StatusUnauthorized, errors.New("missing or invalid admin token"))
			return
		}
		h(w, r)
	}
}

// --- follower role ---

// ActivateFollower installs a replication follower as the model source
// and marks the server ready. The server becomes a read replica: writes
// and durability admin calls redirect to the leader with 307.
func (s *Server) ActivateFollower(f *replication.Follower, titles []string) {
	s.flw.Store(f)
	s.titles.Store(&titles)
	s.recordModelGauges(f.Model())
	s.ready.Store(true)
	s.reg.Gauge("server_ready").Set(1)
}

// follower returns the replication follower serving this process, or
// nil on a leader/standalone.
func (s *Server) follower() *replication.Follower { return s.flw.Load() }

// redirectToLeader answers a write (or durability admin call) on a
// follower with 307 to the same path on the leader. 307 preserves the
// method and body, so a client that follows redirects lands the exact
// request on the leader.
func (s *Server) redirectToLeader(w http.ResponseWriter, r *http.Request, f *replication.Follower) {
	s.reg.Counter("follower_redirects_total").Inc()
	w.Header().Set("Location", f.LeaderURL()+r.URL.RequestURI())
	writeJSON(w, http.StatusTemporaryRedirect, map[string]any{
		"error":  "read-only replica: writes go to the leader",
		"leader": f.LeaderURL(),
	})
}

// --- leader endpoints ---

// replicationLeader returns the lazily built wire-protocol server for
// the lifecycle manager, or nil when this process has no manager.
func (s *Server) replicationLeader() *replication.Leader {
	if l := s.repl.Load(); l != nil {
		return l
	}
	mgr := s.manager()
	if mgr == nil {
		return nil
	}
	l := replication.NewLeader(mgr, s.reg)
	if s.repl.CompareAndSwap(nil, l) {
		return l
	}
	return s.repl.Load()
}

// CloseReplication ends any active leader-side WAL streams. Call before
// http.Server.Shutdown: the streams are long-lived chunked responses
// Shutdown would otherwise wait out to its deadline.
func (s *Server) CloseReplication() {
	if l := s.repl.Load(); l != nil {
		l.Close()
	}
}

// handleReplWAL streams the WAL tail to a follower (manager mode only).
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	l := s.replicationLeader()
	if l == nil {
		writeError(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	l.ServeWAL(w, r)
}

// handleReplSnapshot streams the newest snapshot file to a bootstrapping
// follower (manager mode only).
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	l := s.replicationLeader()
	if l == nil {
		writeError(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	l.ServeSnapshot(w, r)
}

// handleFingerprint hashes the serving model's persisted form — the
// replica-parity check. Leader and follower answer it identically; a
// comparison is meaningful when both report the same seq.
func (s *Server) handleFingerprint(w http.ResponseWriter, _ *http.Request) {
	mod := s.current()
	if mod == nil {
		writeError(w, http.StatusServiceUnavailable, errWarmingUp)
		return
	}
	fp, err := replication.Fingerprint(mod)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	var seq uint64
	role := "standalone"
	if f := s.follower(); f != nil {
		seq, role = f.AppliedSeq(), "follower"
	} else if mgr := s.manager(); mgr != nil {
		seq, role = mgr.AppliedSeq(), "leader"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"fingerprint": fp,
		"seq":         seq,
		"role":        role,
	})
}

// --- read-path admission control ---

// qpsLimiter is a token bucket: capacity MaxQPS (one second of burst),
// refilled continuously. It makes a node's serving capacity explicit —
// beyond it clients get 429 + Retry-After instead of collapsing latency,
// which is also what gives "capacity per replica" a crisp definition in
// the scaling benchmark.
type qpsLimiter struct {
	mu     sync.Mutex
	rate   float64   // tokens per second
	tokens float64   //cfsf:guarded-by mu
	last   time.Time //cfsf:guarded-by mu
}

func newQPSLimiter(maxQPS int) *qpsLimiter {
	return &qpsLimiter{rate: float64(maxQPS), tokens: float64(maxQPS), last: time.Now()}
}

func (l *qpsLimiter) allow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	l.last = now
	if l.tokens > l.rate {
		l.tokens = l.rate
	}
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}

// limitQPS applies the node's serving-capacity cap (Options.MaxQPS) to a
// handler; zero means unlimited.
func (s *Server) limitQPS(h http.HandlerFunc) http.HandlerFunc {
	if s.limiter == nil {
		return h
	}
	throttled := s.reg.Counter("server_throttled_total")
	return func(w http.ResponseWriter, r *http.Request) {
		if !s.limiter.allow() {
			throttled.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("over capacity (%g qps)", s.limiter.rate))
			return
		}
		h(w, r)
	}
}

// replicationStats is the /stats and /healthz "replication" section.
func (s *Server) replicationStats() map[string]any {
	if f := s.follower(); f != nil {
		return f.Stats()
	}
	return nil
}
