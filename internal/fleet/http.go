package fleet

import (
	"errors"
	"net/http"

	"repro/internal/api"
)

// Mount registers the fleet lease protocol on mux (the api RunService
// auto-mounts it when its Config.Fleet is a Coordinator):
//
//	POST /v1/fleet/lease      lease a cell batch (long-poll;
//	                          {"lease":null} = no work, 409 = build
//	                          mismatch)
//	POST /v1/fleet/complete   report typed cell results (idempotent)
//	POST /v1/fleet/heartbeat  extend lease TTLs
//	GET  /v1/fleet/workers    fleet view (gridctl workers)
func (c *Coordinator) Mount(mux api.Router) {
	mux.HandleFunc("POST /v1/fleet/lease", c.handleLease)
	mux.HandleFunc("POST /v1/fleet/complete", c.handleComplete)
	mux.HandleFunc("POST /v1/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("GET /v1/fleet/workers", c.handleWorkers)
}

func writeFleetError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrIncompatible):
		api.WriteError(w, http.StatusConflict, err.Error())
	case errors.Is(err, ErrClosed):
		api.WriteError(w, http.StatusServiceUnavailable, err.Error())
	case r.Context().Err() != nil:
		// The worker hung up mid long-poll; nothing useful to write.
	default:
		api.WriteError(w, http.StatusBadRequest, err.Error())
	}
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !api.DecodeBody(w, r, "fleet request", &req) {
		return
	}
	ls, err := c.LeaseCells(r.Context(), req)
	if err != nil {
		writeFleetError(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, LeaseResponse{Lease: ls})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !api.DecodeBody(w, r, "fleet request", &req) {
		return
	}
	resp, err := c.CompleteCells(r.Context(), req)
	if err != nil {
		writeFleetError(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !api.DecodeBody(w, r, "fleet request", &req) {
		return
	}
	resp, err := c.Heartbeat(r.Context(), req)
	if err != nil {
		writeFleetError(w, r, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, c.WorkersStatus())
}
