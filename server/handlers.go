package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"distcover"
	"distcover/server/api"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/solve/batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/sessions/{id}/update", s.handleSessionUpdate)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /v1/ring", s.handleRing)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, api.Error{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		}
		return false
	}
	return true
}

// handleSolve solves one instance. Synchronous by default: the handler
// submits the job and waits. With "async":true it returns 202 + a job id
// immediately. A full queue yields 429 in both modes.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req api.SolveRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, err := decodeProblem(&req)
	if err == nil && s.ringst != nil && s.ringSolveRoute(w, r, &req, p.hash) {
		return
	}
	j, err := s.buildJob(&req, p, err)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if res := s.lookupCache(j); res != nil {
		if req.Async {
			// Complete the job up front so the poll endpoint works
			// uniformly whether or not the result was cached.
			j.complete(res, nil)
			s.jobs.add(j)
			writeJSON(w, http.StatusAccepted, api.JobAccepted{ID: j.id, Status: api.JobDone})
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}

	if req.Async {
		s.jobs.add(j)
		if err := s.queue.tryEnqueue(j); err != nil {
			s.jobs.remove(j.id)
			s.rejectFull(w)
			return
		}
		s.metrics.recordSubmit()
		writeJSON(w, http.StatusAccepted, api.JobAccepted{ID: j.id, Status: api.JobQueued})
		return
	}

	if err := s.queue.tryEnqueue(j); err != nil {
		s.rejectFull(w)
		return
	}
	s.metrics.recordSubmit()
	select {
	case <-j.done:
	case <-r.Context().Done():
		// Client went away; the worker will still complete the job (and
		// populate the cache), there is just nobody to tell.
		return
	}
	st := j.snapshot()
	if st.Error != "" {
		writeError(w, http.StatusUnprocessableEntity, "solve failed: %s", st.Error)
		return
	}
	writeJSON(w, http.StatusOK, st.Result)
}

// handleBatch solves many instances through the same queue and pool. Items
// stream through the bounded queue with blocking enqueue, so a batch larger
// than the queue still completes; only MaxBatch bounds the request itself.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d exceeds limit %d", len(req.Requests), s.cfg.MaxBatch)
		return
	}
	s.metrics.recordBatch()

	items := make([]api.BatchItem, len(req.Requests))
	jobs := make([]*job, len(req.Requests))
	for i := range req.Requests {
		sub := &req.Requests[i]
		p, err := decodeProblem(sub)
		j, err := s.buildJob(sub, p, err)
		if err != nil {
			items[i] = api.BatchItem{Error: err.Error()}
			continue
		}
		if res := s.lookupCache(j); res != nil {
			items[i] = api.BatchItem{Result: res}
			continue
		}
		if err := s.queue.enqueue(r.Context(), j); err != nil {
			items[i] = api.BatchItem{Error: "not scheduled: " + err.Error()}
			continue
		}
		s.metrics.recordSubmit()
		jobs[i] = j
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
		st := j.snapshot()
		if st.Error != "" {
			items[i] = api.BatchItem{Error: st.Error}
		} else {
			items[i] = api.BatchItem{Result: st.Result}
		}
	}
	writeJSON(w, http.StatusOK, api.BatchResponse{Results: items})
}

// handleSessionCreate opens an incremental session: the initial solve runs
// through the job queue and worker pool like any other solve (a full queue
// yields 429), then the session is registered for updates.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req api.SessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !api.Present(req.Instance) {
		writeError(w, http.StatusBadRequest, "request must set instance")
		return
	}
	inst, err := distcover.ReadInstance(bytes.NewReader(req.Instance))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := libOptions(req.Options, s.pool.cluster); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j := newSessionCreateJob(inst, req.Options)
	if err := s.queue.tryEnqueue(j); err != nil {
		s.rejectFull(w)
		return
	}
	s.metrics.recordSubmit()
	if !s.waitJob(j, r) {
		return
	}
	st := j.snapshot()
	if st.Error != "" {
		writeError(w, http.StatusUnprocessableEntity, "session solve failed: %s", st.Error)
		return
	}
	// With a ring, the id is rejection-sampled until this coordinator owns
	// it: session ownership becomes a pure function of the id, so every
	// member and ring-aware client can route to it with no directory.
	entry := &sessionEntry{id: s.ringSessionID(), sess: j.newSess, opts: req.Options, baseHash: inst.Hash()}
	if err := s.logCreateAndRegister(entry, req.Instance); err != nil {
		// Not durable ⇒ not created: acknowledging a session the WAL does
		// not know about would silently drop it on the next restart.
		j.newSess.Close()
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.metrics.recordSessionCreate()
	info := entry.info()
	info.Result.ElapsedMS = st.Result.ElapsedMS
	writeJSON(w, http.StatusCreated, info)
}

// waitJob waits for a queued job. Without a WAL a vanished client just
// abandons the wait (the worker still completes the job); with one, the
// handler must see the job finish so the applied mutation is logged before
// anything else touches the session.
func (s *Server) waitJob(j *job, r *http.Request) bool {
	if s.wal != nil {
		<-j.done
		return true
	}
	select {
	case <-j.done:
		return true
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	entries := s.sessions.list()
	infos := make([]*api.SessionInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, e.info())
	}
	writeJSON(w, http.StatusOK, api.SessionList{Sessions: infos})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := s.sessions.get(id)
	if !ok && s.ringst != nil {
		if s.ringSessionMiss(w, r, id, nil) {
			return
		}
		entry, ok = s.sessions.get(id) // takeover may have installed it
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, entry.info())
}

// handleSessionUpdate applies one delta batch through the worker pool. The
// residual re-solve touches only the uncovered new edges, so updates are
// cheap; concurrent updates to one session serialize inside the session.
func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Decode before the registry lookup: a misrouted update is proxied to
	// its owner, and the proxy needs the parsed body.
	var d api.SessionDelta
	if !s.decode(w, r, &d) {
		return
	}
	entry, ok := s.sessions.get(id)
	if !ok && s.ringst != nil {
		if s.ringSessionMiss(w, r, id, &d) {
			return
		}
		entry, ok = s.sessions.get(id) // takeover may have installed it
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	delta := distcover.Delta{Weights: d.Weights, Edges: d.Edges}
	if s.wal != nil {
		// Serialize apply+log per session and shut out snapshots between
		// the two (lock order walMu → commitMu(R); see durability.go).
		entry.walMu.Lock()
		defer entry.walMu.Unlock()
		s.commitMu.RLock()
		defer s.commitMu.RUnlock()
	}
	j := newSessionUpdateJob(entry, delta)
	if err := s.queue.tryEnqueue(j); err != nil {
		s.rejectFull(w)
		return
	}
	s.metrics.recordSubmit()
	if !s.waitJob(j, r) {
		return
	}
	st := j.snapshot()
	if st.Error != "" {
		writeError(w, http.StatusUnprocessableEntity, "session update failed: %s", st.Error)
		return
	}
	if s.wal != nil {
		if err := s.logUpdate(entry, delta); err != nil {
			// The delta is applied in memory but not durable; surface that
			// loudly rather than acknowledging a write the log lost.
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	s.metrics.recordSessionUpdate()
	// The delta grew the session's instance: re-weigh it against the byte
	// budget (this can evict colder sessions, or even this one).
	s.sessions.refresh(entry)
	writeJSON(w, http.StatusOK, &api.SessionUpdateResult{
		NewVertices:      j.upd.NewVertices,
		NewEdges:         j.upd.NewEdges,
		CoveredOnArrival: j.upd.CoveredOnArrival,
		ResidualEdges:    j.upd.ResidualEdges,
		ResidualVertices: j.upd.ResidualVertices,
		Joined:           j.upd.Joined,
		AddedWeight:      j.upd.AddedWeight,
		Iterations:       j.upd.Iterations,
		Rounds:           j.upd.Rounds,
		ElapsedMS:        st.Result.ElapsedMS,
		Session:          entry.info(),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	entry, ok := s.sessions.get(id)
	if !ok && s.ringst != nil {
		if s.ringSessionMiss(w, r, id, nil) {
			return
		}
		entry, ok = s.sessions.get(id)
	}
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if s.wal != nil {
		entry.walMu.Lock()
		defer entry.walMu.Unlock()
		s.commitMu.RLock()
		defer s.commitMu.RUnlock()
	}
	if !s.sessions.remove(id) {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if s.wal != nil {
		s.logDelete(id)
	}
	s.invalidatePeerCaches(entry)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		Workers:       s.cfg.Workers,
		QueueDepth:    s.queue.depth(),
		QueueCapacity: s.queue.capacity(),
		CacheEntries:  s.cache.len(),
		Sessions:      s.sessions.len(),
		SessionBytes:  s.sessions.totalBytes(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ringMembers := 0
	if s.ringst != nil {
		ringMembers = len(s.ringst.ring.Members())
	}
	s.metrics.writePrometheus(w, []gauge{
		{"coverd_ring_members", "Coordinator ring size (0 = standalone).", float64(ringMembers)},
		{"coverd_queue_depth", "Jobs waiting in the bounded queue.", float64(s.queue.depth())},
		{"coverd_queue_capacity", "Configured queue bound.", float64(s.queue.capacity())},
		{"coverd_workers", "Configured worker pool size.", float64(s.cfg.Workers)},
		{"coverd_cache_entries", "Entries in the instance-result cache.", float64(s.cache.len())},
		{"coverd_sessions", "Live incremental sessions.", float64(s.sessions.len())},
		{"coverd_session_bytes", "Estimated heap footprint of all live sessions.", float64(s.sessions.totalBytes())},
		{"coverd_session_bytes_budget", "Configured session memory budget (0 = unbounded).", float64(s.cfg.SessionMemoryBudget)},
	})
}

// rejectFull emits the 429 backpressure response.
func (s *Server) rejectFull(w http.ResponseWriter) {
	s.metrics.recordBackpressure()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, "job queue full (capacity %d); retry later", s.queue.capacity())
}
