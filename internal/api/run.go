package api

import (
	"context"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// RunState is the lifecycle state of one scenario run.
type RunState string

const (
	RunQueued    RunState = "queued"
	RunRunning   RunState = "running"
	RunDone      RunState = "done"
	RunFailed    RunState = "failed"
	RunCancelled RunState = "cancelled"
)

// Terminal reports whether the state is final.
func (s RunState) Terminal() bool {
	return s == RunDone || s == RunFailed || s == RunCancelled
}

// CellEvent is the payload of one per-cell completion event.
type CellEvent struct {
	// Index is the finished cell's index within its fan-out.
	Index int `json:"index"`
	// Done and Total are the run-wide progress counters at the time of
	// the event (Total counts cells discovered so far — nested
	// fan-outs grow it while the run executes).
	Done  int `json:"done"`
	Total int `json:"total"`
	// DurationSeconds is the cell's wall-clock compute time.
	DurationSeconds float64 `json:"duration_seconds"`
}

// Event is one entry of a run's progress stream (the SSE payload).
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" or "cell"
	// State is set on "state" events (running + the terminal state).
	State RunState `json:"state,omitempty"`
	// Error carries the failure/cancellation message on terminal
	// "state" events.
	Error string `json:"error,omitempty"`
	// Cell is set on "cell" events.
	Cell *CellEvent `json:"cell,omitempty"`
}

// CellTiming is one per-cell wall-clock timing in a RunStatus, listed
// in completion order: the run's cell events, read back.
type CellTiming struct {
	Index           int     `json:"index"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// RunStatus is the typed status of one run (GET /v1/runs/{id}).
type RunStatus struct {
	ID     string   `json:"id"`
	SpecID string   `json:"spec_id"`
	Kind   string   `json:"kind"`
	Seed   uint64   `json:"seed"`
	State  RunState `json:"state"`
	Error  string   `json:"error,omitempty"`
	// CellsDone / CellsTotal report worker-pool progress. Total is the
	// number of cells discovered so far: kinds with nested fan-outs
	// grow it while running, so it is final only once the run is.
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	// Rows counts the typed result rows (set once done).
	Rows int `json:"rows,omitempty"`
	// TraceEvents counts recorded trace events across all cells (set
	// once done, only for traced runs).
	TraceEvents     int        `json:"trace_events,omitempty"`
	Created         time.Time  `json:"created"`
	Started         *time.Time `json:"started,omitempty"`
	Finished        *time.Time `json:"finished,omitempty"`
	DurationSeconds float64    `json:"duration_seconds,omitempty"`
	// Cells lists per-cell wall timings in completion order (only on
	// the single-run endpoint, not in listings).
	Cells []CellTiming `json:"cells,omitempty"`
	// Workers lists the fleet workers that contributed cells to this
	// run (sorted; only in distributed mode).
	Workers []string `json:"workers,omitempty"`
	// Tenant names the submitting tenant (multi-tenant deployments).
	Tenant string `json:"tenant,omitempty"`
	// Cached marks a run whose result was served from the memo cache at
	// submission time, without executing any cells.
	Cached bool `json:"cached,omitempty"`
}

// Run is one scenario run tracked by the store. Every mutable field
// below ctx/cancel is guarded by the owning RunService's mutex —
// run state and store state share one lock, so they never need to be
// held separately.
type Run struct {
	id string
	// seqNo is the monotonic submission sequence the id is derived
	// from; it persists in the durable store so recovered listings
	// never collide with new runs.
	seqNo int
	spec  *scenario.Spec
	opt   scenario.RunOptions
	// specJSON is the canonical spec encoding: the memoization identity
	// and the durable submit record share these exact bytes.
	specJSON []byte

	ctx    context.Context
	cancel context.CancelFunc

	state RunState
	// closing is set while the run's terminal record is written but not
	// yet durable: the state above is still the old one, and nothing else
	// may start, cancel or end the run.
	closing bool
	err     string
	tenant  string
	cached  bool
	// source is the run a cached run was served from.
	source     string
	memoKey    string
	tenantRef  *store.Tenant // admission slot to release at terminal
	created    time.Time
	started    time.Time
	finished   time.Time
	cellsDone  int
	cellsTotal int
	result     *scenario.Result
	// fleet is the run's handle on the fleet (distributed runs only).
	fleet FleetRun

	events []Event
	// wake is closed and replaced on every event append; stream
	// readers wait on it (a broadcast without per-subscriber state, so
	// an abandoned SSE connection costs nothing after its context
	// fires).
	wake chan struct{}
}

// publish appends one event and wakes streamers. The owning service's
// mutex must be held.
func (r *Run) publish(e Event) {
	e.Seq = len(r.events)
	r.events = append(r.events, e)
	close(r.wake)
	r.wake = make(chan struct{})
}

// status snapshots the run. The owning service's mutex must be held.
func (r *Run) status(includeCells bool) RunStatus {
	st := RunStatus{
		ID: r.id, SpecID: r.spec.ID, Kind: r.spec.Kind, Seed: r.opt.Seed,
		State: r.state, Error: r.err,
		CellsDone: r.cellsDone, CellsTotal: r.cellsTotal,
		Created: r.created,
		Tenant:  r.tenant, Cached: r.cached,
	}
	if r.result != nil {
		st.Rows = len(r.result.Cells)
		for i := range r.result.Traces {
			st.TraceEvents += len(r.result.Traces[i].Events)
		}
	}
	if !r.started.IsZero() {
		t := r.started
		st.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.Finished = &t
		if !r.started.IsZero() {
			st.DurationSeconds = r.finished.Sub(r.started).Seconds()
		}
	}
	if includeCells {
		for _, e := range r.events {
			if e.Cell != nil {
				st.Cells = append(st.Cells, CellTiming{Index: e.Cell.Index, DurationSeconds: e.Cell.DurationSeconds})
			}
		}
	}
	return st
}
