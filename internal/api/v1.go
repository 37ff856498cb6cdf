package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/scenario"
)

// Mount registers the versioned run-lifecycle API on mux:
//
//	POST   /v1/runs              submit a scenario run (202 + RunStatus)
//	GET    /v1/runs              list stored runs
//	GET    /v1/runs/{id}         typed status incl. per-cell timings
//	GET    /v1/runs/{id}/events  SSE stream of cell/state events
//	GET    /v1/runs/{id}/result  result (?format=json|text|csv)
//	GET    /v1/runs/{id}/trace   JSONL event trace (?cell=N filter)
//	DELETE /v1/runs/{id}         cooperative cancellation
//	GET    /v1/version           build identity
func (s *RunService) Mount(mux Router) {
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/version", handleVersion)
	// A coordinator-backed service also serves the fleet lease
	// protocol (POST /v1/fleet/lease|complete|heartbeat, GET
	// /v1/fleet/workers) — mounted through the interface so the api
	// package never imports internal/fleet.
	if f, ok := s.cfg.Fleet.(interface{ Mount(Router) }); ok {
		f.Mount(mux)
	}
}

func (s *RunService) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	var req scenario.HTTPRequest
	if !DecodeBody(w, r, "scenario request", &req) {
		return
	}
	run, herr := s.SubmitAs(req, tn)
	if herr != nil {
		s.writeSubmitErr(w, herr)
		return
	}
	WriteJSON(w, http.StatusAccepted, s.Status(run, false))
}

// writeSubmitErr answers a rejected submission; 429s carry the
// per-tenant Retry-After when the tenant's own quota (not the global
// backlog) was the binding constraint.
func (s *RunService) writeSubmitErr(w http.ResponseWriter, herr *httpErr) {
	if herr.code == http.StatusTooManyRequests {
		retry := herr.retryAfter
		if retry <= 0 {
			retry = s.RetryAfter()
		}
		WriteBusy(w, retry, herr.msg)
		return
	}
	WriteError(w, herr.code, herr.msg)
}

func (s *RunService) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.List())
}

// lookup resolves the {id} path value, answering 404 itself.
func (s *RunService) lookup(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, ok := s.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown run %q", r.PathValue("id")))
	}
	return run, ok
}

func (s *RunService) handleStatus(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, s.Status(run, true))
}

func (s *RunService) handleCancel(w http.ResponseWriter, r *http.Request) {
	tn, ok := s.tenantFor(w, r)
	if !ok {
		return
	}
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if tn != nil {
		// Tenants may only cancel their own runs (runs recovered from a
		// pre-tenancy store have no owner and stay cancellable).
		if owner := s.Status(run, false); owner.Tenant != "" && owner.Tenant != tn.Name {
			WriteError(w, http.StatusForbidden,
				fmt.Sprintf("run %s belongs to tenant %q", owner.ID, owner.Tenant))
			return
		}
	}
	if !s.Cancel(run) {
		WriteJSON(w, http.StatusConflict, s.Status(run, false))
		return
	}
	WriteJSON(w, http.StatusOK, s.Status(run, false))
}

func (s *RunService) handleResult(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	st := s.Status(run, false)
	if st.State != RunDone {
		WriteError(w, http.StatusConflict, fmt.Sprintf("run %s is %s, not done", st.ID, st.State))
		return
	}
	res, ok := s.Result(run)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "done run has no result")
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json":
		out, err := res.JSON()
		if err != nil {
			WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, out)
	case "text", "csv":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := res.EmitFormat(w, format); err != nil {
			// Headers are gone; the body break is the best signal left.
			fmt.Fprintf(w, "\nERROR: %v\n", err)
		}
	default:
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (json|text|csv)", format))
	}
}

// handleEvents streams the run's progress as Server-Sent Events: the
// full event history first (late subscribers see every cell), then
// live events until the terminal state event closes the stream. A
// disconnected client is detected through the request context and
// costs nothing afterwards.
func (s *RunService) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	next := 0
	for {
		s.mu.Lock()
		events := append([]Event(nil), run.events[next:]...)
		terminal := run.state.Terminal()
		wake := run.wake
		s.mu.Unlock()
		for _, e := range events {
			data, err := json.Marshal(e)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data); err != nil {
				return
			}
		}
		if len(events) > 0 {
			flusher.Flush()
		}
		next += len(events)
		if terminal {
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// RetryAfter is the back-off hint a rejected client receives in the
// Retry-After header, computed from the submission backlog: an idle
// queue answers one second (quick runs clear in well under that), and
// every run already waiting beyond the executor pool adds another —
// capped at 30s — so a polling worker fleet backs off proportionally
// to how saturated the daemon actually is instead of hammering it
// once a second.
func (s *RunService) RetryAfter() time.Duration {
	s.mu.Lock()
	waiting := s.active - s.cfg.MaxActive
	s.mu.Unlock()
	if waiting < 0 {
		waiting = 0
	}
	d := time.Duration(1+waiting) * time.Second
	if max := 30 * time.Second; d > max {
		d = max
	}
	return d
}

// WriteRunMetrics appends the run-store series to the broker's
// Prometheus text exposition (GET /v1/metrics).
func WriteRunMetrics(w io.Writer, sum RunsSummary) {
	g := func(name, help, typ string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	g("gridd_runs_stored", "Scenario runs currently stored.", "gauge", float64(sum.Total))
	g("gridd_runs_active", "Scenario runs queued or running.", "gauge", float64(sum.Queued+sum.Running))
	g("gridd_runs_evicted_total", "Terminal runs evicted from the bounded history (monotonic across restarts with persistence).", "counter", float64(sum.Evicted))
	g("gridd_run_cache_hits_total", "Run submissions served from the memo cache without executing cells.", "counter", float64(sum.CacheHits))
}
