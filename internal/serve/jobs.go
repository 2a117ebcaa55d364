package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"graphrealize"
	"graphrealize/internal/jobs"
)

// jobs.go is the asynchronous half of the API: fire-and-poll realizations
// backed by internal/jobs. A submission is acknowledged with 202 + Location
// and runs under the job manager's context, so it survives the submitting
// connection closing; clients poll GET /v1/jobs/{id}, stream progress over
// SSE from GET /v1/jobs/{id}/events, and cancel with DELETE (the engine
// stops at its next round barrier).

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !s.decode(w, r, &req) {
		return
	}
	kind, ok := parseKind(req.Kind)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown kind %q", req.Kind)
		return
	}
	j, ok := s.job(w, r, kind, req.Sequence, req.Options)
	if !ok {
		return
	}
	j.Label = req.Label
	snap, err := s.cfg.Jobs.Submit(j)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, http.StatusAccepted, jobJSON(snap, false, true))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.cfg.Jobs.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	omitEdges := false
	switch r.URL.Query().Get("omit_edges") {
	case "1", "true":
		omitEdges = true
	}
	if wantsWire(r) {
		// The JMETA document is the usual job body minus the edge list; a
		// done job's graph travels as the graph section instead. Jobs that
		// are not done (or asked to omit edges) stream metadata alone.
		var g *graphrealize.Graph
		if !omitEdges && snap.Result != nil && snap.Result.Graph != nil {
			g = snap.Result.Graph
		}
		writeWire(w, jobJSON(snap, true, true), g)
		return
	}
	writeJSON(w, http.StatusOK, jobJSON(snap, true, omitEdges))
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var state jobs.State
	if raw := q.Get("state"); raw != "" {
		st, ok := jobs.ParseState(raw)
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown state %q", raw)
			return
		}
		state = st
	}
	limit := 100
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		limit = min(n, 1000)
	}
	snaps := s.cfg.Jobs.List(state, limit)
	resp := JobListResponse{Jobs: make([]JobJSON, 0, len(snaps)), Counts: map[string]int{}}
	for _, snap := range snaps {
		resp.Jobs = append(resp.Jobs, jobJSON(snap, false, true))
	}
	for st, n := range s.cfg.Jobs.StatsSnapshot().Jobs {
		resp.Counts[string(st)] = n
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, initiated, err := s.cfg.Jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// 202 while the engine unwinds to its next round barrier; 200 when the
	// job was already terminal (idempotent no-op).
	code := http.StatusOK
	if initiated {
		code = http.StatusAccepted
	}
	writeJSON(w, code, jobJSON(snap, false, true))
}

// canFlush reports whether the writer (or anything it wraps, following the
// http.ResponseController Unwrap convention) supports http.Flusher.
func canFlush(w http.ResponseWriter) bool {
	for {
		if _, ok := w.(http.Flusher); ok {
			return true
		}
		u, ok := w.(interface{ Unwrap() http.ResponseWriter })
		if !ok {
			return false
		}
		w = u.Unwrap()
	}
}

// handleJobEvents streams a job's lifecycle as Server-Sent Events: one
// "progress" event per observed round watermark (coalesced under load) and a
// final event named after the terminal state. The stream ends at the
// terminal event or when the client disconnects; the job itself is
// unaffected by disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	events, cancel, err := s.cfg.Jobs.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	defer cancel()
	// Probe flushability before committing any headers: the check walks
	// Unwrap chains (e.g. the logging recorder), so a genuinely
	// non-flushable writer is rejected instead of silently buffering the
	// stream. Actual flushes go through ResponseController, which performs
	// the same walk.
	if !canFlush(w) {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	_ = rc.Flush()

	// Heartbeat comments keep idle-timeout proxies from dropping a stream
	// whose job is still queued (the first round barrier can be far away).
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()

	ctx := r.Context()
	for {
		select {
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			if rc.Flush() != nil {
				return
			}
		case ev, open := <-events:
			if !open {
				return
			}
			name := "progress"
			if ev.Terminal {
				name = string(ev.State)
			}
			data, err := json.Marshal(jobEventJSON(ev))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
			if rc.Flush() != nil {
				return // connection gone
			}
			if ev.Terminal {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}
