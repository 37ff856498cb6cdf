// Package service turns the deterministic batch simulator into a
// long-running online scheduler: an Engine owns one cluster.Sim plus its
// DES event queue inside a single goroutine, accepts concurrent job
// submissions through a channel-based mailbox, and advances the virtual
// clock against wall-clock time with a configurable dilation factor (one
// wall second = Dilation simulated seconds). The grid broker
// (internal/gridservice) runs one Engine per cluster and serves them as
// the gridd daemon; a flag-configured gridd is a one-cluster broker.
//
// Because every mutation funnels through the mailbox into the same
// single-threaded simulator the batch tools use, a trace replayed
// through the service completes jobs in exactly the same order as an
// offline cluster.Sim run with the same seed — the determinism the
// paper's evaluation relies on, kept under live traffic.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/workload"
)

// ErrStopped rejects calls into an engine whose loop has exited.
var ErrStopped = errors.New("service: engine stopped")

// Config parameterizes an Engine.
type Config struct {
	// M is the cluster width (processors). Default 64.
	M int
	// Speed is the cluster speed factor. Default 1.
	Speed float64
	// Policy is the registry name of an online-capable policy ("easy",
	// "fcfs", "greedyfit", "conservative"). Default "easy".
	Policy string
	// Kill selects the best-effort eviction policy.
	Kill cluster.KillPolicy
	// Dilation is the number of simulated seconds per wall-clock second.
	// Zero (or negative) selects free-running mode: pending events are
	// executed immediately after every mailbox interaction, so the
	// virtual clock runs as fast as the hardware allows.
	Dilation float64
	// Anchor, when non-zero, is the shared wall-clock instant that maps
	// to virtual time 0. A grid broker starts every engine of a fleet
	// with the same anchor so their paced virtual clocks advance in
	// lockstep; zero anchors the clock at Start time.
	Anchor time.Time
	// OnBEKilled and OnBEDone observe best-effort task kills and
	// completions. Both run on the engine loop goroutine while it holds
	// the simulator — handlers must not call back into this Engine and
	// should hand the task off quickly (the grid broker appends to its
	// own requeue list under a private lock).
	OnBEKilled func(t cluster.BETask)
	OnBEDone   func(t cluster.BETask)
}

// mailbox is the command-channel capacity: room for a burst of
// submissions and queries while the loop is busy advancing the clock.
const mailbox = 256

func (c Config) fill() Config {
	if c.M == 0 {
		c.M = 64
	}
	if c.Speed == 0 {
		c.Speed = 1
	}
	if c.Policy == "" {
		c.Policy = "easy"
	}
	return c
}

// JobSpec is the submission payload (HTTP body of POST /v1/jobs). Rigid
// jobs set min_procs only; moldable jobs set max_procs > min_procs and
// are priced with an Amdahl speedup (alpha defaulting to 0.05).
type JobSpec struct {
	Name  string `json:"name,omitempty"`
	Class string `json:"class,omitempty"`
	// Cluster pins the job to a named cluster of the broker's fleet: the
	// CiGri contract that local users submit to their own machine. Empty
	// lets the grid policy place the job; an unknown name is rejected.
	Cluster  string  `json:"cluster,omitempty"`
	SeqTime  float64 `json:"seq_time"`
	MinProcs int     `json:"min_procs,omitempty"` // 0 → 1
	MaxProcs int     `json:"max_procs,omitempty"` // 0 → min_procs
	Weight   float64 `json:"weight,omitempty"`    // 0 → 1
	DueDate  float64 `json:"due_date,omitempty"`  // <= 0 → no due date
	Release  float64 `json:"release,omitempty"`   // absolute virtual time; past → now
	Alpha    float64 `json:"alpha,omitempty"`     // Amdahl sequential fraction
}

// Job materializes the spec as a workload.Job with the given ID.
func (sp JobSpec) Job(id int) (*workload.Job, error) {
	min := sp.MinProcs
	if min <= 0 {
		min = 1
	}
	max := sp.MaxProcs
	if max <= 0 {
		max = min
	}
	kind := workload.Rigid
	if max > min {
		kind = workload.Moldable
	}
	alpha := sp.Alpha
	if alpha <= 0 {
		alpha = 0.05
	}
	weight := sp.Weight
	if weight == 0 {
		weight = 1
	}
	due := sp.DueDate
	if due <= 0 {
		due = -1
	}
	release := sp.Release
	if release < 0 {
		release = 0
	}
	var model workload.SpeedupModel = workload.Linear{}
	if kind == workload.Moldable {
		model = workload.Amdahl{Alpha: alpha}
	}
	j := &workload.Job{
		ID: id, Name: sp.Name, Class: sp.Class, Kind: kind,
		Release: release, Weight: weight, DueDate: due,
		SeqTime: sp.SeqTime, MinProcs: min, MaxProcs: max, Model: model,
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateWaiting JobState = "waiting"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
)

// JobStatus is the externally visible record of one job. Times are
// virtual (simulation seconds).
type JobStatus struct {
	ID      int      `json:"id"`
	Name    string   `json:"name,omitempty"`
	Class   string   `json:"class,omitempty"`
	State   JobState `json:"state"`
	Release float64  `json:"release"`
	Procs   int      `json:"procs,omitempty"` // allocated processors once running
	Start   float64  `json:"start,omitempty"`
	End     float64  `json:"end,omitempty"`
}

// QueueSnapshot is one cluster's part of the GET /v1/queue payload.
type QueueSnapshot struct {
	VirtualNow float64     `json:"virtual_now"`
	Waiting    []JobStatus `json:"waiting"`
	Running    []JobStatus `json:"running"`
}

// Stats is one cluster's part of the GET /v1/stats payload.
type Stats struct {
	Policy        string          `json:"policy"`
	M             int             `json:"m"`
	Speed         float64         `json:"speed"`
	Dilation      float64         `json:"dilation"` // 0 = free-running
	VirtualNow    float64         `json:"virtual_now"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Submitted     int             `json:"submitted"`
	Waiting       int             `json:"waiting"`
	Running       int             `json:"running"`
	Completed     int             `json:"completed"`
	Drained       bool            `json:"drained"`
	BestEffort    cluster.BEStats `json:"best_effort"`
	Report        metrics.Report  `json:"report"`
}

// Engine runs one online cluster scheduler. All simulator state is owned
// by the loop goroutine; public methods marshal through the mailbox and
// are safe for concurrent use.
type Engine struct {
	cfg   Config
	sim   *cluster.Sim
	pacer *des.Pacer // nil in free-running mode

	cmds     chan func()
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Everything below is owned by the loop goroutine.
	jobs    map[int]*JobStatus
	started time.Time
	counts  struct{ waiting, running, completed int }
}

// New builds an engine from the config; Start launches it.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.fill()
	entry, err := registry.Get(cfg.Policy)
	if err != nil {
		return nil, err
	}
	if !entry.Caps.Online {
		return nil, fmt.Errorf("service: policy %q is offline-only", cfg.Policy)
	}
	sim, err := cluster.New(des.New(), cfg.M, cfg.Speed, entry.NewPolicy(), cfg.Kill)
	if err != nil {
		return nil, err
	}
	// Engines are polled from outside (brokers read Load lock-free), so
	// the per-event snapshot publication is always on here.
	sim.EnablePolling()
	e := &Engine{
		cfg:  cfg,
		sim:  sim,
		cmds: make(chan func(), mailbox),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		jobs: make(map[int]*JobStatus),
	}
	sim.OnLocalStart = func(j *workload.Job, procs int, now float64) {
		if st := e.jobs[j.ID]; st != nil {
			st.State, st.Procs, st.Start = StateRunning, procs, now
			e.counts.waiting--
			e.counts.running++
		}
	}
	sim.OnLocalDone = func(c metrics.Completion) {
		if st := e.jobs[c.Job.ID]; st != nil {
			st.State, st.End = StateDone, c.End
			e.counts.running--
			e.counts.completed++
		}
	}
	sim.OnBEKilled = cfg.OnBEKilled
	sim.OnBEDone = cfg.OnBEDone
	return e, nil
}

// M returns the cluster width.
func (e *Engine) M() int { return e.cfg.M }

// Start launches the engine loop. The wall-clock anchor is taken now
// unless Config.Anchor pins it (shared fleet clock): with dilation D,
// virtual time t maps to anchor + t/D wall seconds.
func (e *Engine) Start() {
	e.started = time.Now()
	anchor := e.started
	if !e.cfg.Anchor.IsZero() {
		anchor = e.cfg.Anchor
	}
	if e.cfg.Dilation > 0 {
		e.pacer, _ = des.NewPacer(e.cfg.Dilation, anchor, 0)
	}
	go e.loop()
}

// Stop terminates the loop without draining (pending virtual work is
// abandoned). Safe to call more than once.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.quit) })
	<-e.done
}

func (e *Engine) loop() {
	defer close(e.done)
	for {
		e.advance()
		var timer *time.Timer
		var timeCh <-chan time.Time
		if e.pacer != nil {
			if next, ok := e.sim.DES.PeekTime(); ok {
				timer = time.NewTimer(e.pacer.WallUntil(next, time.Now()))
				timeCh = timer.C
			}
		}
		select {
		case cmd := <-e.cmds:
			cmd()
			e.drainCmds()
		case <-timeCh:
		case <-e.quit:
			if timer != nil {
				timer.Stop()
			}
			return
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// drainCmds executes every queued command without blocking, so a burst
// of submissions is applied atomically before the clock advances again.
func (e *Engine) drainCmds() {
	for {
		select {
		case cmd := <-e.cmds:
			cmd()
		default:
			return
		}
	}
}

// advance catches the virtual clock up: to the pacer's wall-mapped time
// in dilated mode, or through every pending event in free-running mode.
func (e *Engine) advance() {
	if e.pacer != nil {
		_ = e.sim.DES.RunUntil(e.pacer.VirtualNow(time.Now()))
		return
	}
	_ = e.sim.DES.Run()
}

// do runs fn on the loop goroutine and waits for it.
func (e *Engine) do(fn func()) error {
	ack := make(chan struct{})
	select {
	case e.cmds <- func() { fn(); close(ack) }:
	case <-e.done:
		return ErrStopped
	}
	select {
	case <-ack:
		return nil
	case <-e.done:
		return ErrStopped
	}
}

// SubmitJobs atomically submits pre-built jobs (trace replay): either
// every job is scheduled before any simulation event runs, or none is.
// Job IDs must be unique within the batch and not collide with earlier
// submissions. The whole batch is validated before the first submission
// so a rejected job never leaves a partial batch behind.
func (e *Engine) SubmitJobs(jobs []*workload.Job) error {
	var err error
	doErr := e.do(func() {
		if e.sim.Drained() {
			err = cluster.ErrDrained
			return
		}
		inBatch := make(map[int]bool, len(jobs))
		for _, j := range jobs {
			if _, dup := e.jobs[j.ID]; dup || inBatch[j.ID] {
				err = fmt.Errorf("service: duplicate job ID %d", j.ID)
				return
			}
			inBatch[j.ID] = true
			if verr := j.Validate(); verr != nil {
				err = fmt.Errorf("service: %w", verr)
				return
			}
			if j.MinProcs > e.cfg.M {
				err = fmt.Errorf("service: job %d needs %d > %d procs", j.ID, j.MinProcs, e.cfg.M)
				return
			}
			if math.IsNaN(j.Release) || math.IsInf(j.Release, 0) {
				err = fmt.Errorf("service: job %d has non-finite release %v", j.ID, j.Release)
				return
			}
		}
		if err = e.sim.SubmitAll(jobs); err != nil {
			return // unreachable after the validation above
		}
		for _, j := range jobs {
			e.track(j)
		}
	})
	if doErr != nil {
		return doErr
	}
	return err
}

// track registers a freshly submitted job (loop goroutine only).
func (e *Engine) track(j *workload.Job) {
	e.jobs[j.ID] = &JobStatus{
		ID: j.ID, Name: j.Name, Class: j.Class,
		State: StateWaiting, Release: j.Release,
	}
	e.counts.waiting++
}

// Job returns the status of one job.
func (e *Engine) Job(id int) (JobStatus, bool, error) {
	var st JobStatus
	var ok bool
	err := e.do(func() {
		if rec := e.jobs[id]; rec != nil {
			st, ok = *rec, true
		}
	})
	return st, ok, err
}

// Queue returns the waiting and running jobs (empty lists, never nil,
// so the JSON arrays are never null).
func (e *Engine) Queue() (QueueSnapshot, error) {
	snap := QueueSnapshot{Waiting: []JobStatus{}, Running: []JobStatus{}}
	err := e.do(func() {
		snap.VirtualNow = e.virtualNow()
		// Waiting = queued in the cluster (scheduling order) followed by
		// submitted-but-not-yet-arrived jobs (future release under
		// dilation, ID order); both carry StateWaiting, and together they
		// match the /stats waiting count.
		inQueue := make(map[int]bool)
		for _, j := range e.sim.Queued() {
			if rec := e.jobs[j.ID]; rec != nil {
				snap.Waiting = append(snap.Waiting, *rec)
				inQueue[j.ID] = true
			}
		}
		var pending []int
		for id, rec := range e.jobs {
			if rec.State == StateWaiting && !inQueue[id] {
				pending = append(pending, id)
			}
		}
		sort.Ints(pending)
		for _, id := range pending {
			snap.Waiting = append(snap.Waiting, *e.jobs[id])
		}
		for _, r := range e.sim.Running() {
			if rec := e.jobs[r.ID]; rec != nil {
				snap.Running = append(snap.Running, *rec)
			}
		}
	})
	return snap, err
}

// virtualNow returns the engine's virtual clock (loop goroutine only).
func (e *Engine) virtualNow() float64 {
	if e.pacer != nil {
		if v := e.pacer.VirtualNow(time.Now()); v > e.sim.DES.Now() {
			return v
		}
	}
	return e.sim.DES.Now()
}

// Stats returns the aggregate service statistics, including the full §3
// criteria report over the completions so far.
func (e *Engine) Stats() (Stats, error) {
	var st Stats
	err := e.do(func() { st = e.stats() })
	return st, err
}

// stats builds the Stats payload (loop goroutine only). The criteria
// report comes from the simulator's streaming accumulator, so a scrape
// is O(1) no matter how old the daemon is or how history is retained.
func (e *Engine) stats() Stats {
	return Stats{
		Policy:        e.cfg.Policy,
		M:             e.cfg.M,
		Speed:         e.cfg.Speed,
		Dilation:      e.cfg.Dilation,
		VirtualNow:    e.virtualNow(),
		UptimeSeconds: time.Since(e.started).Seconds(),
		Submitted:     len(e.jobs),
		Waiting:       e.counts.waiting,
		Running:       e.counts.running,
		Completed:     e.counts.completed,
		Drained:       e.sim.Drained(),
		BestEffort:    e.sim.BestEffort(),
		Report:        e.sim.Report(),
	}
}

// Completions returns the local-job completion records so far.
func (e *Engine) Completions() ([]metrics.Completion, error) {
	var out []metrics.Completion
	err := e.do(func() { out = e.sim.Completions() })
	return out, err
}

// Load returns the cluster's latest load snapshot without going through
// the mailbox: the snapshot is published atomically by the simulator at
// event granularity, so brokers can poll a whole fleet lock-free.
func (e *Engine) Load() cluster.LoadInfo { return e.sim.LoadSnapshot() }

// VirtualNow returns the engine's virtual clock (the broker's partition
// windows are expressed in virtual seconds).
func (e *Engine) VirtualNow() (float64, error) {
	var v float64
	err := e.do(func() { v = e.virtualNow() })
	return v, err
}

// SubmitBestEffort hands grid campaign tasks to this cluster; they run
// in scheduling holes and are killed (and reported through
// Config.OnBEKilled) whenever a local job claims their processors.
// Unlike local submissions, best-effort work is accepted even after
// Drain: the broker keeps redistributing killed tasks until the stock
// runs dry.
func (e *Engine) SubmitBestEffort(tasks ...cluster.BETask) error {
	return e.do(func() {
		for _, t := range tasks {
			e.sim.SubmitBestEffort(t)
		}
	})
}

// Sync runs every pending virtual event immediately and returns once the
// simulator is quiescent. Only meaningful in free-running engines (or
// drained ones): under a pacer it would fast-forward the virtual clock
// past its wall mapping.
func (e *Engine) Sync() error {
	return e.do(func() { _ = e.sim.DES.Run() })
}

// StealQueued removes and returns up to n jobs from the tail of this
// cluster's waiting queue (the decentralized exchange protocol). Stolen
// jobs vanish from this engine's tracking; the broker re-injects them
// into another engine.
func (e *Engine) StealQueued(n int) ([]*workload.Job, error) {
	var out []*workload.Job
	err := e.do(func() {
		out = e.sim.StealQueued(n)
		for _, j := range out {
			if st := e.jobs[j.ID]; st != nil && st.State == StateWaiting {
				e.counts.waiting--
			}
			delete(e.jobs, j.ID)
		}
	})
	return out, err
}

// Drain stops accepting submissions and fast-forwards the remaining
// virtual work to completion regardless of dilation (graceful shutdown:
// every accepted job still completes, immediately rather than in wall
// time). It returns the final statistics. The context bounds only the
// wait for the mailbox; the fast-forward itself is a single command.
func (e *Engine) Drain(ctx context.Context) (Stats, error) {
	var st Stats
	done := make(chan error, 1)
	go func() {
		done <- e.do(func() {
			e.sim.Drain()
			_ = e.sim.DES.Run()
			// Post-drain the engine free-runs: the broker keeps
			// redistributing leftover best-effort campaign work across a
			// drained fleet, and those tasks must not wait for wall time.
			e.pacer = nil
			st = e.stats()
		})
	}()
	select {
	case err := <-done:
		return st, err
	case <-ctx.Done():
		return Stats{}, ctx.Err()
	}
}
