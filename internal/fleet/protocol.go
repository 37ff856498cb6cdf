// Package fleet is the distributed run executor of the gridd daemon
// family: a coordinator mode where the /v1 run store doubles as a cell
// work queue, and a stateless worker mode that leases cell batches
// over HTTP, executes them through the scenario kind runners, and
// ships typed rows back.
//
// The protocol is lease/ack with TTLs: a worker POSTs a lease request
// (its id, build info, batch size), receives a batch of cells of one
// run plus the run's spec and resolved seed, heartbeats while
// executing, and POSTs typed per-cell results. A lease whose TTL
// lapses requeues its unfinished cells, so killing a worker mid-run
// loses no work; completing the same cell twice is a no-op (first
// result wins). Cells are reassembled by (fanout, cell) index on the
// coordinator, so the rendered table is byte-identical to a
// single-process run regardless of worker count, arrival order, or
// retries.
package fleet

import (
	"encoding/json"
	"errors"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
)

// ErrIncompatible rejects a worker whose build info does not match the
// coordinator's (HTTP 409 on the wire). Merging cells from diverging
// builds could silently mix two different experiments into one table.
var ErrIncompatible = errors.New("fleet: incompatible worker build")

// ErrClosed rejects calls into a closed coordinator.
var ErrClosed = errors.New("fleet: coordinator closed")

// CellRef names one remoteable cell within a run: the fan-out ordinal
// (kind runners perform remoteable fan-outs sequentially, so ordinals
// are deterministic for a fixed spec) and the cell index within it.
type CellRef struct {
	Fanout int `json:"fanout"`
	Cell   int `json:"cell"`
}

func (r CellRef) String() string { return strconv.Itoa(r.Fanout) + "/" + strconv.Itoa(r.Cell) }

// LeaseRequest asks the coordinator for a batch of cells.
type LeaseRequest struct {
	WorkerID string        `json:"worker_id"`
	Build    api.BuildInfo `json:"build"`
	// MaxCells bounds the batch (capped by the coordinator's own
	// bound; 0 means 1).
	MaxCells int `json:"max_cells,omitempty"`
	// WaitSeconds long-polls: the coordinator holds the request up to
	// this long waiting for work before answering "none".
	WaitSeconds float64 `json:"wait_seconds,omitempty"`
}

// Lease is one granted batch: cells of a single run, plus everything a
// stateless worker needs to reproduce them — the full spec, the
// resolved seed, and the invocation-level job factor.
type Lease struct {
	ID    string          `json:"id"`
	RunID string          `json:"run_id"`
	Spec  json.RawMessage `json:"spec"`
	// Seed is the coordinator's fully resolved effective seed; the
	// worker applies it as explicit so spec-pinned seeds cannot
	// re-override it (they resolve to the same value anyway).
	Seed      uint64    `json:"seed"`
	JobFactor int       `json:"job_factor,omitempty"`
	Cells     []CellRef `json:"cells"`
	// TTLSeconds is the lease's time budget: heartbeat before it
	// lapses or the cells requeue to other workers.
	TTLSeconds float64 `json:"ttl_seconds"`
}

// LeaseResponse envelopes the poll answer; a nil Lease means no work
// arrived before the wait deadline (poll again).
type LeaseResponse struct {
	Lease *Lease `json:"lease,omitempty"`
}

// CellResult is one finished cell: its typed rows (or an error) plus
// the worker's wall-clock measurement.
type CellResult struct {
	CellRef
	Rows            [][]scenario.Value `json:"rows,omitempty"`
	DurationSeconds float64            `json:"duration_seconds,omitempty"`
	Error           string             `json:"error,omitempty"`
}

// CompleteRequest reports a lease's results. Completion is idempotent:
// the first result for a cell wins, a second ack is counted as a
// duplicate and changes nothing — so retries and zombie workers whose
// leases expired are harmless.
type CompleteRequest struct {
	WorkerID string       `json:"worker_id"`
	LeaseID  string       `json:"lease_id"`
	RunID    string       `json:"run_id"`
	Results  []CellResult `json:"results"`
}

// CompleteResponse summarizes what the coordinator did with the
// report.
type CompleteResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// HeartbeatRequest extends the TTL of the listed leases (and marks the
// worker alive).
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	LeaseIDs []string `json:"lease_ids,omitempty"`
}

// HeartbeatResponse lists leases the coordinator no longer honours
// (expired and requeued, or unknown): the worker's results for those
// may be discarded as duplicates.
type HeartbeatResponse struct {
	Expired    []string `json:"expired,omitempty"`
	TTLSeconds float64  `json:"ttl_seconds"`
}

// WorkerStatus is one row of the fleet view (GET /v1/fleet/workers,
// gridctl workers).
type WorkerStatus struct {
	ID      string `json:"id"`
	Version string `json:"version"`
	// Leases counts currently granted (unexpired, unfinished) leases.
	Leases    int `json:"leases"`
	CellsDone int `json:"cells_done"`
	// CellsPerSec is CellsDone over the worker's lifetime so far.
	CellsPerSec float64 `json:"cells_per_sec"`
	// Failures counts cells the worker reported as errored.
	Failures int `json:"failures,omitempty"`
	// Expirations counts leases the janitor took back from this worker.
	Expirations int       `json:"expirations,omitempty"`
	FirstSeen   time.Time `json:"first_seen"`
	LastSeen    time.Time `json:"last_seen"`
	// Alive reports contact within the last three TTLs.
	Alive bool `json:"alive"`
}
