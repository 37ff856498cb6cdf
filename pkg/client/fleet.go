package client

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/api"
	"repro/internal/fleet"
)

// Fleet lease protocol: the same Client doubles as the worker-side
// fleet.Transport, so fleet.RunWorker drives a remote coordinator
// through exactly the interface the in-process tests use.
var _ fleet.Transport = (*Client)(nil)

// Version fetches the daemon's build identity (GET /v1/version). A
// worker compares it against its own api.CurrentBuild() before
// leasing: mismatched catalog hashes would silently break the
// coordinator's byte-identity guarantee.
func (c *Client) Version(ctx context.Context) (api.VersionInfo, error) {
	var v api.VersionInfo
	err := c.do(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// LeaseCells asks the coordinator for a batch of cells (POST
// /v1/fleet/lease). A nil lease with nil error means the long-poll
// window elapsed with nothing to do — poll again. An incompatible
// build answers 409, surfaced wrapped in fleet.ErrIncompatible so the
// worker loop stops instead of retrying forever.
func (c *Client) LeaseCells(ctx context.Context, req fleet.LeaseRequest) (*fleet.Lease, error) {
	var resp fleet.LeaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/fleet/lease", req, &resp)
	if err != nil {
		if e, ok := err.(*Error); ok && e.Status == http.StatusConflict {
			return nil, fmt.Errorf("%w: %s", fleet.ErrIncompatible, e.Message)
		}
		return nil, err
	}
	return resp.Lease, nil
}

// CompleteCells reports a lease's cell results (POST
// /v1/fleet/complete). The endpoint is idempotent on the server —
// duplicate deliveries are counted and ignored — so this call retries
// POSTs on transport failures and 5xx, unlike ordinary submissions.
func (c *Client) CompleteCells(ctx context.Context, req fleet.CompleteRequest) (fleet.CompleteResponse, error) {
	var resp fleet.CompleteResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/fleet/complete", req, &resp, true)
	return resp, err
}

// Heartbeat extends the worker's lease deadlines (POST
// /v1/fleet/heartbeat) and learns which leases already expired.
func (c *Client) Heartbeat(ctx context.Context, req fleet.HeartbeatRequest) (fleet.HeartbeatResponse, error) {
	var resp fleet.HeartbeatResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/fleet/heartbeat", req, &resp, true)
	return resp, err
}

// FleetWorkers fetches the coordinator's per-worker fleet view (GET
// /v1/fleet/workers).
func (c *Client) FleetWorkers(ctx context.Context) ([]fleet.WorkerStatus, error) {
	var out []fleet.WorkerStatus
	err := c.do(ctx, http.MethodGet, "/v1/fleet/workers", nil, &out)
	return out, err
}
