package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
)

// Config parameterizes a Coordinator.
type Config struct {
	// TTL is the lease time budget: a lease not heartbeated within it
	// requeues its unfinished cells. Default 15s.
	TTL time.Duration
	// Build is the coordinator's identity for the compatibility check.
	// Zero means api.CurrentBuild().
	Build api.BuildInfo
}

// maxBatch caps cells per lease regardless of what a worker asks for.
const maxBatch = 16

func (c Config) fill() Config {
	if c.TTL <= 0 {
		c.TTL = 15 * time.Second
	}
	if c.Build == (api.BuildInfo{}) {
		c.Build = api.CurrentBuild()
	}
	return c
}

type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
)

// task is one enqueued cell: the unit a dispatcher blocks on and a
// worker executes.
type task struct {
	run   *runState
	ref   CellRef
	seq   int // global enqueue order (FIFO + requeue-to-front ordering)
	state taskState
	// result has capacity 1: the first completion delivers, the
	// dispatcher consumes; duplicates never block or overwrite.
	result chan outcome
}

type outcome struct {
	rows [][]any
	d    time.Duration
	err  error
}

// runState is the coordinator's record of one distributed run, held
// in Coordinator.runs for as long as the run's context lives.
type runState struct {
	id           string
	spec         []byte
	seed         uint64
	jobFactor    int
	tasks        map[CellRef]*task
	contributors map[string]struct{}
	ended        error // the run's context error once the record is dropped
}

// lease is one granted batch.
type lease struct {
	id       string
	worker   string
	run      *runState
	tasks    []*task
	deadline time.Time
}

type workerInfo struct {
	id          string
	build       api.BuildInfo
	firstSeen   time.Time
	lastSeen    time.Time
	leases      int
	cellsDone   int
	failures    int
	expirations int
}

// Coordinator owns the cell work queue of a distributed daemon. It
// implements the api.Fleet seam (Dispatcher), the Transport interface
// (so in-process workers can drive it directly in tests), and mounts
// the /v1/fleet HTTP surface.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	closed   bool
	wake     chan struct{} // closed+replaced when work arrives
	runs     map[string]*runState
	pending  []*task // task seq order
	leases   map[string]*lease
	workers  map[string]*workerInfo
	leaseSeq int
	taskSeq  int

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator starts a coordinator (and its lease janitor).
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:     cfg.fill(),
		wake:    make(chan struct{}),
		runs:    map[string]*runState{},
		leases:  map[string]*lease{},
		workers: map[string]*workerInfo{},
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.janitor()
	return c
}

// Build returns the coordinator's build identity.
func (c *Coordinator) Build() api.BuildInfo { return c.cfg.Build }

// Close stops the janitor, fails every outstanding cell with ErrClosed
// (unblocking dispatchers) and rejects further calls.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.stop)
	c.pending = nil // every pending cell fails below
	for _, rs := range c.runs {
		c.failLocked(rs, ErrClosed)
	}
	c.wakeLocked()
	c.mu.Unlock()
	c.wg.Wait()
}

// wakeLocked signals every lease long-poll (close-and-replace
// broadcast; c.mu must be held).
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// janitor expires overdue leases, requeueing their unfinished cells.
func (c *Coordinator) janitor() {
	defer c.wg.Done()
	period := c.cfg.TTL / 4
	if period < 25*time.Millisecond {
		period = 25 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.mu.Lock()
			c.expireLocked(now)
			c.mu.Unlock()
		}
	}
}

// expireLocked requeues the unfinished cells of every overdue lease.
// Requeued tasks keep their original seq, so after the re-sort they
// sit ahead of younger work — a killed worker's cells are retried
// first, not starved.
func (c *Coordinator) expireLocked(now time.Time) {
	requeued := false
	for id, ls := range c.leases {
		if now.Before(ls.deadline) {
			continue
		}
		for _, t := range ls.tasks {
			if t.state == taskLeased {
				t.state = taskPending
				c.pending = append(c.pending, t)
				requeued = true
			}
		}
		if w := c.workers[ls.worker]; w != nil {
			w.leases--
			w.expirations++
		}
		delete(c.leases, id)
	}
	if requeued {
		sort.Slice(c.pending, func(i, j int) bool { return c.pending[i].seq < c.pending[j].seq })
		c.wakeLocked()
	}
}

// Dispatcher registers a run for as long as ctx lives and returns its
// handle: the coordinator side of the fleet seam (api.Config.Fleet).
// The spec is serialized once here; every lease of the run carries it.
// When ctx ends the record is dropped and any cell still outstanding
// fails with ctx's error; a late completion then counts as a duplicate.
// A ctx that has already ended registers nothing, and every cell of
// the handle fails. The handle keeps answering Workers.
func (c *Coordinator) Dispatcher(ctx context.Context, runID string, spec *scenario.Spec, seed uint64, jobFactor int) (api.FleetRun, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode spec %q: %w", spec.ID, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if _, dup := c.runs[runID]; dup {
		return nil, fmt.Errorf("fleet: run %s already registered", runID)
	}
	rs := &runState{
		id: runID, spec: b, seed: seed, jobFactor: jobFactor,
		tasks: map[CellRef]*task{}, contributors: map[string]struct{}{},
	}
	if rs.ended = ctx.Err(); rs.ended == nil {
		c.runs[runID] = rs
		context.AfterFunc(ctx, func() { c.drop(rs, ctx.Err()) })
	}
	return &dispatcher{c: c, run: rs}, nil
}

// drop removes a run's record once its context has ended, failing
// anything still outstanding: nobody will consume late results.
func (c *Coordinator) drop(rs *runState, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked(rs, err)
	rs.ended = err
	delete(c.runs, rs.id)
}

// failLocked ends every outstanding cell of rs with err.
func (c *Coordinator) failLocked(rs *runState, err error) {
	for _, t := range rs.tasks {
		if t.state == taskPending {
			c.removePendingLocked(t)
		}
		if t.state != taskDone {
			t.state = taskDone
			t.result <- outcome{err: err}
		}
	}
}

// dispatcher is the per-run handle: the scenario.CellRunner handed to
// the engine, and the run's contributor list.
type dispatcher struct {
	c   *Coordinator
	run *runState
}

// Workers returns the sorted ids of the workers that contributed cells
// to the run (the RunStatus workers field).
func (d *dispatcher) Workers() []string {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	if len(d.run.contributors) == 0 {
		return nil
	}
	out := make([]string, 0, len(d.run.contributors))
	for id := range d.run.contributors {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunCell enqueues one cell and blocks until a worker completes it (or
// ctx fires — the cell is then abandoned so a zombie completion is a
// no-op).
func (d *dispatcher) RunCell(ctx context.Context, fanout, cell int) ([][]any, time.Duration, error) {
	t, err := d.c.enqueue(d.run, CellRef{Fanout: fanout, Cell: cell})
	if err != nil {
		return nil, 0, err
	}
	select {
	case out := <-t.result:
		return out.rows, out.d, out.err
	case <-ctx.Done():
		d.c.abandon(t)
		// A completion may have raced the cancel in; prefer it.
		select {
		case out := <-t.result:
			return out.rows, out.d, out.err
		default:
			return nil, 0, ctx.Err()
		}
	}
}

func (c *Coordinator) enqueue(rs *runState, ref CellRef) (*task, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if rs.ended != nil {
		return nil, rs.ended
	}
	if _, dup := rs.tasks[ref]; dup {
		return nil, fmt.Errorf("fleet: run %s cell %s dispatched twice", rs.id, ref)
	}
	c.taskSeq++
	t := &task{run: rs, ref: ref, seq: c.taskSeq, result: make(chan outcome, 1)}
	rs.tasks[ref] = t
	c.pending = append(c.pending, t)
	c.wakeLocked()
	return t, nil
}

func (c *Coordinator) abandon(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.state == taskDone {
		return
	}
	if t.state == taskPending {
		c.removePendingLocked(t)
	}
	t.state = taskDone
}

func (c *Coordinator) removePendingLocked(t *task) {
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// LeaseCells grants a batch of pending cells, long-polling up to the
// request's wait. A nil lease (and nil error) means no work arrived in
// time. Incompatible builds are refused with ErrIncompatible.
func (c *Coordinator) LeaseCells(ctx context.Context, req LeaseRequest) (*Lease, error) {
	if req.WorkerID == "" {
		return nil, fmt.Errorf("fleet: lease request without worker_id")
	}
	if !req.Build.Compatible(c.cfg.Build) {
		return nil, fmt.Errorf("%w: worker %s is %s/%s/catalog %s, coordinator is %s/%s/catalog %s",
			ErrIncompatible, req.WorkerID,
			req.Build.Version, req.Build.GoVersion, req.Build.CatalogHash,
			c.cfg.Build.Version, c.cfg.Build.GoVersion, c.cfg.Build.CatalogHash)
	}
	max := req.MaxCells
	if max <= 0 {
		max = 1
	}
	if max > maxBatch {
		max = maxBatch
	}
	deadline := time.Now().Add(time.Duration(req.WaitSeconds * float64(time.Second)))
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		w := c.touchLocked(req.WorkerID, req.Build)
		if batch := c.pickLocked(max); len(batch) > 0 {
			out := c.grantLocked(w, batch)
			c.mu.Unlock()
			return out, nil
		}
		wake := c.wake
		c.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(wait)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

func (c *Coordinator) touchLocked(id string, build api.BuildInfo) *workerInfo {
	w := c.workers[id]
	if w == nil {
		w = &workerInfo{id: id, build: build, firstSeen: time.Now()}
		c.workers[id] = w
	}
	w.lastSeen = time.Now()
	return w
}

// aliveWindow is how long after its last contact a worker still counts
// as alive in the fleet view.
func (c *Coordinator) aliveWindow() time.Duration { return 3 * c.cfg.TTL }

// pickLocked selects a batch: the oldest pending cell, filled with its
// run's next pending cells in seq order. A worker keeps nothing between
// leases (each cell decodes its spec and runs from scratch), so which
// worker takes a cell does not matter.
func (c *Coordinator) pickLocked(max int) []*task {
	if len(c.pending) == 0 {
		return nil
	}
	first := c.pending[0]
	batch := []*task{first}
	for _, t := range c.pending[1:] {
		if len(batch) >= max {
			break
		}
		if t.run == first.run {
			batch = append(batch, t)
		}
	}
	return batch
}

func (c *Coordinator) grantLocked(w *workerInfo, batch []*task) *Lease {
	c.leaseSeq++
	ls := &lease{
		id: "l" + strconv.Itoa(c.leaseSeq), worker: w.id, run: batch[0].run,
		tasks: batch, deadline: time.Now().Add(c.cfg.TTL),
	}
	refs := make([]CellRef, len(batch))
	for i, t := range batch {
		t.state = taskLeased
		c.removePendingLocked(t)
		refs[i] = t.ref
	}
	c.leases[ls.id] = ls
	w.leases++
	return &Lease{
		ID: ls.id, RunID: ls.run.id, Spec: ls.run.spec,
		Seed: ls.run.seed, JobFactor: ls.run.jobFactor,
		Cells: refs, TTLSeconds: c.cfg.TTL.Seconds(),
	}
}

// CompleteCells applies a worker's results. First result per cell
// wins; anything else — unknown run, finished task, abandoned cell —
// counts as a duplicate and changes nothing, so retries and expired
// leases are harmless.
func (c *Coordinator) CompleteCells(_ context.Context, req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return CompleteResponse{}, ErrClosed
	}
	var resp CompleteResponse
	w := c.workers[req.WorkerID]
	if w != nil {
		w.lastSeen = time.Now()
	}
	rs := c.runs[req.RunID]
	for _, cr := range req.Results {
		var t *task
		if rs != nil {
			t = rs.tasks[cr.CellRef]
		}
		if t == nil || t.state == taskDone {
			resp.Duplicates++
			continue
		}
		var out outcome
		switch {
		case cr.Error != "":
			out.err = fmt.Errorf("fleet: worker %s: cell %s: %s", req.WorkerID, cr.CellRef, cr.Error)
		default:
			rows, err := scenario.DecodeRows(cr.Rows)
			if err != nil {
				out.err = fmt.Errorf("fleet: worker %s: cell %s: %w", req.WorkerID, cr.CellRef, err)
			} else {
				out.rows = rows
				out.d = time.Duration(cr.DurationSeconds * float64(time.Second))
			}
		}
		if t.state == taskPending {
			// Its lease expired and it was requeued; this result still
			// arrived first, so take it off the queue and use it.
			c.removePendingLocked(t)
		}
		t.state = taskDone
		t.result <- out
		rs.contributors[req.WorkerID] = struct{}{}
		if w != nil {
			w.cellsDone++
			if out.err != nil {
				w.failures++
			}
		}
		resp.Accepted++
	}
	// Drop the lease once everything it covers is finished.
	if ls := c.leases[req.LeaseID]; ls != nil && ls.worker == req.WorkerID {
		done := true
		for _, t := range ls.tasks {
			if t.state != taskDone {
				done = false
				break
			}
		}
		if done {
			delete(c.leases, req.LeaseID)
			if w != nil {
				w.leases--
			}
		}
	}
	return resp, nil
}

// Heartbeat extends the worker's leases and reports the ones the
// coordinator no longer honours.
func (c *Coordinator) Heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return HeartbeatResponse{}, ErrClosed
	}
	now := time.Now()
	if w := c.workers[req.WorkerID]; w != nil {
		w.lastSeen = now
	}
	resp := HeartbeatResponse{TTLSeconds: c.cfg.TTL.Seconds()}
	for _, id := range req.LeaseIDs {
		ls := c.leases[id]
		if ls == nil || ls.worker != req.WorkerID {
			resp.Expired = append(resp.Expired, id)
			continue
		}
		ls.deadline = now.Add(c.cfg.TTL)
	}
	return resp, nil
}

// WorkersStatus snapshots the fleet view, sorted by worker id; never
// nil, so an empty fleet lists as [].
func (c *Coordinator) WorkersStatus() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		st := WorkerStatus{
			ID: w.id, Version: w.build.Version, Leases: w.leases,
			CellsDone: w.cellsDone, Failures: w.failures, Expirations: w.expirations,
			FirstSeen: w.firstSeen, LastSeen: w.lastSeen,
			Alive: now.Sub(w.lastSeen) <= c.aliveWindow(),
		}
		if life := now.Sub(w.firstSeen).Seconds(); life > 0 {
			st.CellsPerSec = float64(w.cellsDone) / life
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
