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
		resp["shards_written"] = info.ShardsWritten
		resp["shards_clean"] = info.ShardsClean
		resp["shared_written"] = info.SharedWritten
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAdminCompact folds checkpoint-covered WAL segments into the
// compacted base synchronously. ?force=1 runs the pass even below the
// configured segment threshold and rewrites the base alone when no
// segment is foldable (re-deduping under an advanced horizon). Useful
// when compaction is disabled (-compact=false) or to reclaim space
// without waiting for the next snapshot.
func (s *Server) handleAdminCompact(w http.ResponseWriter, r *http.Request) {
	if f := s.follower(); f != nil {
		s.redirectToLeader(w, r, f)
		return
	}
	mgr := s.manager()
	if mgr == nil {
		writeError(w, http.StatusServiceUnavailable, errNoManager)
		return
	}
	force := false
	switch v := r.URL.Query().Get("force"); v {
	case "", "0", "false":
	case "1", "true":
		force = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad force value %q (want 1/true or 0/false)", v))
		return
	}
	cs, err := mgr.Compact(force)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.reg.Counter("admin_compact_total").Inc()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":              "ok",
		"segments_folded":     cs.SegmentsFolded,
		"records_in":          cs.RecordsIn,
		"records_out":         cs.RecordsOut,
		"dropped_cells":       cs.DroppedCells,
		"dropped_commits":     cs.DroppedCommits,
		"dropped_checkpoints": cs.DroppedCheckpoints,
	})
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
