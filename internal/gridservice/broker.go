// Package gridservice is the federated grid broker behind the gridd
// daemon: the online, multi-cluster counterpart of the offline grid
// simulations in internal/grid. As in the paper, a single cluster is a
// one-cluster grid — gridd without -topology serves a one-cluster
// fleet through this same code. A Broker runs every cluster.Sim of the
// fleet on one DES, paced against wall time, and routes work across the
// fleet with a pluggable grid policy (grid.Router via the registry
// catalog) through the same grid.Fleet steps the offline grid.Routed
// runs:
//
//   - local jobs are placed on a cluster at submission time
//     (round-robin home clusters, least-loaded, capacity-weighted
//     random, or pinned via JobSpec.Cluster);
//   - campaigns (CiGri multi-parametric bags) enter a central stock and
//     fan out across the fleet as best-effort tasks that fill scheduling
//     holes, are killed whenever local work needs their processors, and
//     drift back through the stock to whichever cluster has room next;
//   - the decentralized policy additionally migrates queued jobs from
//     overloaded to underloaded clusters each broker tick.
//
// Concurrency layout: one loop goroutine owns the DES, every Sim and all
// broker bookkeeping (stock, campaigns, job records). Every public
// method hands a closure to the loop's mailbox and waits for it, so a
// replayed trace completes jobs in exactly the order of an offline run,
// and the Sims' callbacks update the broker's records directly.
package gridservice

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// ErrNoCluster rejects a job no cluster of the fleet can run.
var ErrNoCluster = errors.New("gridservice: no cluster fits the job")

// ErrPartitioned rejects a pinned submission to a cluster that is cut
// off by an open partition window.
var ErrPartitioned = errors.New("gridservice: cluster is partitioned from the broker")

// ErrStopped rejects calls into a broker whose loop has exited.
var ErrStopped = errors.New("gridservice: broker stopped")

// maxCampaignTasks caps one campaign: its tasks all enter the central
// stock at once, 24 bytes each.
const maxCampaignTasks = 1 << 20

// mailbox is the command-channel capacity: room for a burst of
// submissions and queries while the loop is busy advancing the clock.
const mailbox = 256

// CampaignSpec is the POST /v1/campaigns payload: a bag of Tasks identical
// independent runs of RunTime reference-speed seconds each.
type CampaignSpec struct {
	Name    string  `json:"name,omitempty"`
	Tasks   int     `json:"tasks"`
	RunTime float64 `json:"run_time"`
}

// Campaign is the externally visible state of one campaign.
type Campaign struct {
	ID        int     `json:"id"`
	Name      string  `json:"name,omitempty"`
	Tasks     int     `json:"tasks"`
	RunTime   float64 `json:"run_time"`
	Completed int     `json:"completed"`
	// Killed counts kill events (one task may die several times; every
	// kill sends it back to the central stock).
	Killed int `json:"killed"`
	// PerCluster is the completed-task count per cluster, fleet order.
	PerCluster []int `json:"per_cluster"`
	Done       bool  `json:"done"`
}

// FleetTotals aggregates the whole grid.
type FleetTotals struct {
	Clusters      int             `json:"clusters"`
	Procs         int             `json:"procs"`
	Submitted     int             `json:"submitted"`
	Waiting       int             `json:"waiting"`
	Running       int             `json:"running"`
	Completed     int             `json:"completed"`
	Migrations    int             `json:"migrations"`
	Campaigns     int             `json:"campaigns"`
	CampaignsDone int             `json:"campaigns_done"`
	Stock         int             `json:"stock"`
	BestEffort    cluster.BEStats `json:"best_effort"`
	// Faults sums the fleet's fault-injection counters (crashes,
	// repairs, requeued local jobs, lost work, down proc-seconds).
	Faults        metrics.FaultStats `json:"faults"`
	VirtualNow    float64            `json:"virtual_now"`
	UptimeSeconds float64            `json:"uptime_seconds"`
}

// ClusterStats is one cluster's stats under its fleet name.
type ClusterStats struct {
	Name  string `json:"name"`
	Stats Stats  `json:"stats"`
}

// ClusterQueue is one cluster's queue under its fleet name; GET
// /v1/queue answers one per cluster, in fleet order.
type ClusterQueue struct {
	Name string `json:"name"`
	QueueSnapshot
}

// FleetStats is the GET /v1/stats payload.
type FleetStats struct {
	GridPolicy string         `json:"grid_policy"`
	Dilation   float64        `json:"dilation"`
	Fleet      FleetTotals    `json:"fleet"`
	Clusters   []ClusterStats `json:"per_cluster"`
	// Runs summarizes the scenario run store (filled by the HTTP
	// layer from the same store the /v1/runs endpoints serve).
	Runs *api.RunsSummary `json:"runs,omitempty"`
}

// jobRecord is the broker's record of one accepted job: its status
// (Cluster left empty) and the fleet index of the cluster holding it.
type jobRecord struct {
	status JobStatus
	home   int
}

// Broker runs a fleet of clusters on one DES behind one submission API.
type Broker struct {
	topo  Topology
	des   *des.Simulator
	fleet grid.Fleet

	cmds     chan func()
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	// Everything below is owned by the loop goroutine (Start sets pacer
	// and started before launching it).
	pacer      *des.Pacer // nil while free-running, and after Drain
	started    time.Time
	jobs       map[int]*jobRecord
	stock      []cluster.BETask
	campaigns  []*Campaign // indexed by ID
	nextJobID  int
	submitted  int
	migrations int
}

// NewBroker wires the fleet from a filled topology (see LoadTopology).
func NewBroker(topo Topology) (*Broker, error) {
	topo = topo.fill()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	gentry, err := registry.GetGrid(topo.GridPolicy)
	if err != nil {
		return nil, err
	}
	b := &Broker{
		topo: topo,
		des:  des.New(),
		fleet: grid.Fleet{
			Router: gentry.New(grid.RouterOptions{
				Seed: topo.Seed, Threshold: topo.Threshold, MaxMove: topo.MaxMove,
			}),
			Partitions: topo.Partitions,
		},
		cmds: make(chan func(), mailbox),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		jobs: make(map[int]*jobRecord),
	}
	for i, spec := range topo.Clusters {
		kp, err := cluster.ParseKillPolicy(spec.Kill)
		if err != nil {
			return nil, err
		}
		entry, err := registry.Get(spec.Policy)
		if err != nil {
			return nil, fmt.Errorf("gridservice: cluster %s: %w", spec.Name, err)
		}
		cs, err := cluster.New(b.des, spec.M, spec.Speed, entry.NewPolicy(), kp)
		if err != nil {
			return nil, fmt.Errorf("gridservice: cluster %s: %w", spec.Name, err)
		}
		// Routing reads every cluster's queued work on every submission.
		cs.TallyQueuedWork()
		// No product code reads the completion history, and a daemon
		// that kept it would hold every record and its job for good.
		if err := cs.SetRetention(metrics.NewDiscard()); err != nil {
			return nil, err
		}
		b.watch(i, cs)
		b.fleet.Sims = append(b.fleet.Sims, cs)
	}
	return b, nil
}

// watch hooks cluster i's lifecycle callbacks into the broker's records.
// They run on the loop, inside the DES events that cause them.
func (b *Broker) watch(i int, cs *cluster.Sim) {
	cs.OnLocalStart = func(j *workload.Job, procs int, now float64) {
		if rec := b.jobs[j.ID]; rec != nil {
			rec.status.State, rec.status.Procs, rec.status.Start = StateRunning, procs, now
		}
	}
	cs.OnLocalDone = func(cpl metrics.Completion) {
		if rec := b.jobs[cpl.Job.ID]; rec != nil {
			rec.status.State, rec.status.End = StateDone, cpl.End
		}
	}
	// A killed campaign task goes back to the central stock; the next
	// tick grants it again.
	cs.OnBEKilled = func(t cluster.BETask) {
		b.campaigns[t.BagID].Killed++
		b.stock = append(b.stock, t)
	}
	cs.OnBEDone = func(t cluster.BETask) {
		camp := b.campaigns[t.BagID]
		camp.Completed++
		camp.PerCluster[i]++
		camp.Done = camp.Completed >= camp.Tasks
	}
}

// Start launches the loop. With a dilation D, virtual time t maps to
// the start instant plus t/D wall seconds.
func (b *Broker) Start() {
	b.started = time.Now()
	if b.topo.Dilation > 0 {
		b.pacer, _ = des.NewPacer(b.topo.Dilation, b.started, 0)
	}
	go b.loop()
}

// Stop terminates the loop without draining (pending virtual work is
// abandoned). Safe to call more than once.
func (b *Broker) Stop() {
	b.stopOnce.Do(func() { close(b.quit) })
	<-b.done
}

// Topology returns the filled fleet configuration.
func (b *Broker) Topology() Topology { return b.topo }

// loop is the broker: it catches the virtual clock up, then waits for a
// command, the next paced event or the redistribution tick.
func (b *Broker) loop() {
	defer close(b.done)
	ticker := time.NewTicker(time.Duration(b.topo.TickMS) * time.Millisecond)
	defer ticker.Stop()
	for {
		b.advance()
		var timer *time.Timer
		var next <-chan time.Time
		if b.pacer != nil {
			if at, ok := b.des.PeekTime(); ok {
				timer = time.NewTimer(b.pacer.WallUntil(at, time.Now()))
				next = timer.C
			}
		}
		select {
		case cmd := <-b.cmds:
			cmd()
			b.drainCmds()
		case <-next:
		case <-ticker.C:
			b.tick()
		case <-b.quit:
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
func (b *Broker) drainCmds() {
	for {
		select {
		case cmd := <-b.cmds:
			cmd()
		default:
			return
		}
	}
}

// advance catches the virtual clock up: to the pacer's wall-mapped time
// in dilated mode, or through every pending event while free-running.
func (b *Broker) advance() {
	if b.pacer != nil {
		_ = b.des.RunUntil(b.pacer.VirtualNow(time.Now()))
		return
	}
	_ = b.des.Run()
}

// do runs fn on the loop goroutine and waits for it.
func (b *Broker) do(fn func()) error {
	ack := make(chan struct{})
	select {
	case b.cmds <- func() { fn(); close(ack) }:
	case <-b.done:
		return ErrStopped
	}
	select {
	case <-ack:
		return nil
	case <-b.done:
		return ErrStopped
	}
}

// virtualNow returns the fleet's virtual clock.
func (b *Broker) virtualNow() float64 {
	now := b.des.Now()
	if b.pacer != nil {
		if v := b.pacer.VirtualNow(time.Now()); v > now {
			return v
		}
	}
	return now
}

// tick is one redistribution round: grant stock tasks to clusters with
// room, then apply the router's exchange migrations.
func (b *Broker) tick() {
	now := b.virtualNow()
	b.stock = b.fleet.Grant(now, b.stock)
	b.migrations += b.fleet.Migrate(now, b.moved)
}

// moved re-homes a migrated job's record.
func (b *Broker) moved(j *workload.Job, _, dst int, _ float64) {
	if rec := b.jobs[j.ID]; rec != nil {
		rec.home = dst
	}
}

// track records a freshly accepted job on cluster home.
func (b *Broker) track(j *workload.Job, home int) *jobRecord {
	rec := &jobRecord{
		status: JobStatus{ID: j.ID, Name: j.Name, Class: j.Class, State: StateWaiting, Release: j.Release},
		home:   home,
	}
	b.jobs[j.ID] = rec
	b.submitted++
	return rec
}

// status returns a job record's status tagged with its cluster.
func (b *Broker) status(rec *jobRecord) JobStatus {
	st := rec.status
	st.Cluster = b.topo.Clusters[rec.home].Name
	return st
}

// Submit routes one job described by spec across the fleet and submits
// it. The assigned global job ID is unique across all clusters.
func (b *Broker) Submit(spec JobSpec) (JobStatus, error) {
	var st JobStatus
	var err error
	if derr := b.do(func() { st, err = b.submit(spec) }); derr != nil {
		return JobStatus{}, derr
	}
	return st, err
}

func (b *Broker) submit(spec JobSpec) (JobStatus, error) {
	j, err := spec.Job(b.nextJobID)
	if err != nil {
		return JobStatus{}, err
	}
	now := b.virtualNow()
	idx := -1
	if spec.Cluster != "" {
		for i, c := range b.topo.Clusters {
			if c.Name == spec.Cluster {
				idx = i
				break
			}
		}
		if idx < 0 {
			return JobStatus{}, fmt.Errorf("gridservice: unknown cluster %q", spec.Cluster)
		}
		if scenario.Partitioned(b.topo.Partitions, idx, now) {
			return JobStatus{}, fmt.Errorf("gridservice: cluster %q: %w", spec.Cluster, ErrPartitioned)
		}
		if m := b.topo.Clusters[idx].M; j.MinProcs > m {
			return JobStatus{}, fmt.Errorf("gridservice: job needs %d > %d procs on cluster %s",
				j.MinProcs, m, spec.Cluster)
		}
	} else if idx = b.fleet.Router.Route(j.MinProcs, b.fleet.Loads(now)); idx < 0 {
		return JobStatus{}, ErrNoCluster
	}
	if err := b.fleet.Sims[idx].Submit(j); err != nil {
		return JobStatus{}, err
	}
	b.nextJobID++
	return b.status(b.track(j, idx)), nil
}

// SubmitBatch routes and submits pre-built jobs (trace replay) in one
// command: either every job is scheduled before any simulation event
// runs, or none is. Routing runs against a fleet-start load model
// evolved only by the batch itself, never against live wall-clock state
// — this is what makes a broker replay deterministic and comparable to
// the offline grid runs (the same stream routes identically on every
// run). Job IDs must be unique across the fleet's history.
func (b *Broker) SubmitBatch(jobs []*workload.Job) error {
	var err error
	derr := b.do(func() {
		seen := make(map[int]bool, len(jobs))
		for _, j := range jobs {
			if _, dup := b.jobs[j.ID]; dup || seen[j.ID] {
				err = fmt.Errorf("gridservice: duplicate job ID %d", j.ID)
				return
			}
			seen[j.ID] = true
			if err = j.Validate(); err != nil {
				err = fmt.Errorf("gridservice: %w", err)
				return
			}
		}
		model := make([]cluster.LoadInfo, len(b.fleet.Sims))
		for i, spec := range b.topo.Clusters {
			model[i] = cluster.LoadInfo{M: spec.M, Speed: spec.Speed, Free: spec.M}
		}
		home := make([]int, len(jobs))
		perCluster := make([][]*workload.Job, len(b.fleet.Sims))
		for k, j := range jobs {
			idx := b.fleet.Router.Route(j.MinProcs, model)
			if idx < 0 {
				err = fmt.Errorf("gridservice: job %d: %w", j.ID, ErrNoCluster)
				return
			}
			home[k] = idx
			perCluster[idx] = append(perCluster[idx], j)
			w, _ := j.MinWork(model[idx].M)
			model[idx].Queued++
			model[idx].QueuedWork += w
		}
		// Every job fits its cluster (the router checked), so only a
		// drained fleet refuses a share — and it refuses the first, before
		// any other is submitted.
		for i, batch := range perCluster {
			for _, j := range batch {
				if err = b.fleet.Sims[i].Submit(j); err != nil {
					err = fmt.Errorf("gridservice: cluster %s: %w", b.topo.Clusters[i].Name, err)
					return
				}
			}
		}
		for k, j := range jobs {
			b.track(j, home[k])
			if j.ID >= b.nextJobID {
				b.nextJobID = j.ID + 1
			}
		}
	})
	if derr != nil {
		return derr
	}
	return err
}

// SubmitCampaign accepts a bag-of-tasks campaign into the central stock
// and starts the fan-out at once.
func (b *Broker) SubmitCampaign(spec CampaignSpec) (Campaign, error) {
	if spec.Tasks <= 0 {
		return Campaign{}, fmt.Errorf("gridservice: campaign needs tasks > 0")
	}
	if spec.Tasks > maxCampaignTasks {
		return Campaign{}, fmt.Errorf("gridservice: campaign of %d tasks exceeds the cap of %d", spec.Tasks, maxCampaignTasks)
	}
	if spec.RunTime <= 0 {
		return Campaign{}, fmt.Errorf("gridservice: campaign needs run_time > 0")
	}
	var snap Campaign
	err := b.do(func() {
		c := &Campaign{
			ID: len(b.campaigns), Name: spec.Name, Tasks: spec.Tasks, RunTime: spec.RunTime,
			PerCluster: make([]int, len(b.fleet.Sims)),
		}
		b.campaigns = append(b.campaigns, c)
		for i := 0; i < spec.Tasks; i++ {
			b.stock = append(b.stock, cluster.BETask{BagID: c.ID, Duration: spec.RunTime})
		}
		snap = c.snapshot()
		b.tick()
	})
	return snap, err
}

// snapshot copies the campaign for a caller off the loop.
func (c *Campaign) snapshot() Campaign {
	snap := *c
	snap.PerCluster = append([]int(nil), c.PerCluster...)
	return snap
}

// CampaignStatus returns one campaign; a stopped broker knows none.
func (b *Broker) CampaignStatus(id int) (Campaign, bool) {
	var snap Campaign
	ok := false
	_ = b.do(func() { // ErrStopped leaves ok false
		if ok = id >= 0 && id < len(b.campaigns); ok {
			snap = b.campaigns[id].snapshot()
		}
	})
	return snap, ok
}

// Campaigns lists every campaign in ID order; a stopped broker lists
// none.
func (b *Broker) Campaigns() []Campaign {
	out := []Campaign{}
	_ = b.do(func() { // ErrStopped leaves the list empty
		out = make([]Campaign, len(b.campaigns))
		for i, c := range b.campaigns {
			out[i] = c.snapshot()
		}
	})
	return out
}

// Job resolves a global job ID to its status and cluster.
func (b *Broker) Job(id int) (JobStatus, bool, error) {
	var st JobStatus
	ok := false
	err := b.do(func() {
		if rec := b.jobs[id]; rec != nil {
			st, ok = b.status(rec), true
		}
	})
	return st, ok, err
}

// Queue snapshots every cluster's waiting and running jobs (empty
// lists, never nil, so the JSON arrays are never null). Waiting is the
// cluster's queue in scheduling order followed by its submitted jobs
// that have not arrived yet (future release under dilation) in ID
// order; both carry StateWaiting, and together they match the cluster's
// stats waiting count.
func (b *Broker) Queue() ([]ClusterQueue, error) {
	var out []ClusterQueue
	err := b.do(func() {
		now := b.virtualNow()
		out = make([]ClusterQueue, len(b.fleet.Sims))
		queued := make(map[int]bool)
		for i, cs := range b.fleet.Sims {
			q := QueueSnapshot{VirtualNow: now, Waiting: []JobStatus{}, Running: []JobStatus{}}
			for _, j := range cs.Queued() {
				if rec := b.jobs[j.ID]; rec != nil {
					q.Waiting = append(q.Waiting, rec.status)
					queued[j.ID] = true
				}
			}
			for _, j := range cs.Running() {
				if rec := b.jobs[j.ID]; rec != nil {
					q.Running = append(q.Running, rec.status)
				}
			}
			out[i] = ClusterQueue{Name: b.topo.Clusters[i].Name, QueueSnapshot: q}
		}
		var pending []int
		for id, rec := range b.jobs {
			if rec.status.State == StateWaiting && !queued[id] {
				pending = append(pending, id)
			}
		}
		sort.Ints(pending)
		for _, id := range pending {
			rec := b.jobs[id]
			out[rec.home].Waiting = append(out[rec.home].Waiting, rec.status)
		}
	})
	return out, err
}

// Stats aggregates per-cluster and fleet-wide statistics. The criteria
// reports come from each Sim's streaming accumulator, so a scrape is
// O(clusters) no matter how old the daemon is.
func (b *Broker) Stats() (FleetStats, error) {
	var st FleetStats
	err := b.do(func() { st = b.stats() })
	return st, err
}

func (b *Broker) stats() FleetStats {
	now := b.virtualNow()
	uptime := time.Since(b.started).Seconds()
	fleet := FleetTotals{
		Clusters:      len(b.fleet.Sims),
		Submitted:     b.submitted,
		Migrations:    b.migrations,
		Stock:         len(b.stock),
		Campaigns:     len(b.campaigns),
		VirtualNow:    now,
		UptimeSeconds: uptime,
	}
	for _, c := range b.campaigns {
		if c.Done {
			fleet.CampaignsDone++
		}
	}
	per := make([]ClusterStats, len(b.fleet.Sims))
	for i, cs := range b.fleet.Sims {
		spec := b.topo.Clusters[i]
		submitted, running, completed := cs.Submitted(), cs.RunningCount(), cs.CompletedCount()
		st := Stats{
			Policy: spec.Policy, M: spec.M, Speed: spec.Speed, Dilation: b.topo.Dilation,
			VirtualNow: now, UptimeSeconds: uptime,
			Submitted: submitted, Waiting: submitted - running - completed,
			Running: running, Completed: completed,
			Drained: cs.Drained(), BestEffort: cs.BestEffort(), Report: cs.Report(),
		}
		per[i] = ClusterStats{Name: spec.Name, Stats: st}
		fleet.Procs += st.M
		fleet.Waiting += st.Waiting
		fleet.Running += st.Running
		fleet.Completed += st.Completed
		fleet.BestEffort.Completed += st.BestEffort.Completed
		fleet.BestEffort.Killed += st.BestEffort.Killed
		fleet.BestEffort.Redistributed += st.BestEffort.Redistributed
		fleet.BestEffort.DoneWork += st.BestEffort.DoneWork
		fleet.BestEffort.WastedWork += st.BestEffort.WastedWork
		fleet.Faults.Crashes += st.Report.Faults.Crashes
		fleet.Faults.Repairs += st.Report.Faults.Repairs
		fleet.Faults.Requeues += st.Report.Faults.Requeues
		fleet.Faults.LostWork += st.Report.Faults.LostWork
		fleet.Faults.DownProcSeconds += st.Report.Faults.DownProcSeconds
	}
	return FleetStats{
		GridPolicy: b.topo.GridPolicy,
		Dilation:   b.topo.Dilation,
		Fleet:      fleet,
		Clusters:   per,
	}
}

// Drain gracefully shuts the fleet down: refuse new local work and
// fast-forward every cluster regardless of dilation (every accepted job
// still completes, immediately rather than in wall time), then keep
// redistributing the central stock (killed campaign tasks included)
// until every campaign task has completed or the context expires. The
// loop keeps answering queries between rounds, and free-runs from here
// on.
func (b *Broker) Drain(ctx context.Context) (FleetStats, error) {
	err := b.do(func() {
		for _, cs := range b.fleet.Sims {
			cs.Drain()
		}
		b.pacer = nil
	})
	for settled := false; err == nil && !settled; {
		if err = ctx.Err(); err == nil {
			err = b.do(func() { settled = b.settle() })
		}
	}
	if err != nil {
		return FleetStats{}, err
	}
	return b.Stats()
}

// settle runs one drain round: fast-forward, then report whether the
// stock and every cluster's best-effort work are empty, or grant the
// stock again.
func (b *Broker) settle() bool {
	_ = b.des.Run()
	busy := len(b.stock) > 0
	for _, cs := range b.fleet.Sims {
		ld := cs.Load()
		busy = busy || ld.BEQueued+ld.BEActive > 0
	}
	if busy {
		b.tick()
	}
	return !busy
}
