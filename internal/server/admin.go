package server

import (
	"fmt"
	"net/http"
)

// handleAdminSnapshot writes a model snapshot synchronously via the
// lifecycle manager and reports where it landed. Without a manager the
// server has no durability layer and responds 503.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	if f := s.follower(); f != nil {
		s.redirectToLeader(w, r, f)
		return
	}
	mgr := s.manager()
	if mgr == nil {
		writeError(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	info, err := mgr.Snapshot()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.reg.Counter("admin_snapshot_total").Inc()
	resp := map[string]any{
		"status":      "ok",
		"path":        info.Path,
		"covered_seq": info.CoveredSeq,
		"duration_ms": durMS(info.Duration),
	}
	if info.Skipped {
		resp["status"] = "skipped"
	} else {
		resp["bytes"] = info.Bytes
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdminRetrain starts a background retrain of the serving model
// (the drift-repair pass internal/core/update.go calls for): the manager
// journals a retrain record at its applied watermark and re-runs the
// offline phase on the matrix there, serving reads and accepting ratings
// meanwhile. 409 when a retrain is already in flight.
func (s *Server) handleAdminRetrain(w http.ResponseWriter, r *http.Request) {
	if f := s.follower(); f != nil {
		s.redirectToLeader(w, r, f)
		return
	}
	mgr := s.manager()
	if mgr == nil {
		writeError(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	if !mgr.TriggerRetrain() {
		writeError(w, http.StatusConflict, fmt.Errorf("retrain already in flight"))
		return
	}
	s.reg.Counter("admin_retrain_total").Inc()
	writeJSON(w, http.StatusAccepted, map[string]any{"status": "started"})
}

var errNoManager = fmt.Errorf("no lifecycle manager configured (start the server with -data-dir)")
