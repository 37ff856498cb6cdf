// Package gridservice is the federated grid broker behind the gridd
// daemon: the online, multi-cluster counterpart of the offline grid
// simulations in internal/grid. As in the paper, a single cluster is a
// one-cluster grid — gridd without -topology serves a one-cluster
// fleet through this same code. A Broker owns one service.Engine per
// cluster — each with its own DES loop goroutine — on a shared paced
// virtual clock, and routes work across the fleet with a pluggable grid
// policy (grid.Router via the registry catalog):
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
// Concurrency layout: every engine mutation goes through that engine's
// mailbox; broker bookkeeping (stock, campaigns, job→cluster map) lives
// under Broker.mu; engine→broker callbacks (best-effort kills and
// completions, which fire on engine loop goroutines) only append to a
// pending list under the narrower feedMu, so an engine loop never blocks
// on broker work and the broker can hold mu while talking to engines
// without deadlock. Load polling is lock-free via cluster.LoadSnapshot.
package gridservice

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/workload"
)

// ErrNoCluster rejects a job no cluster of the fleet can run.
var ErrNoCluster = errors.New("gridservice: no cluster fits the job")

// ErrPartitioned rejects a pinned submission to a cluster that is cut
// off by an open partition window.
var ErrPartitioned = errors.New("gridservice: cluster is partitioned from the broker")

// JobStatus is a service.JobStatus plus the cluster that runs the job.
type JobStatus struct {
	service.JobStatus
	Cluster string `json:"cluster"`
}

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
	Name  string        `json:"name"`
	Stats service.Stats `json:"stats"`
}

// ClusterQueue is one cluster's queue under its fleet name; GET
// /v1/queue answers one per cluster, in fleet order.
type ClusterQueue struct {
	Name string `json:"name"`
	service.QueueSnapshot
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

type doneEvent struct {
	task    cluster.BETask
	cluster int
}

// Broker federates N engines behind one submission API.
type Broker struct {
	topo    Topology
	engines []*service.Engine
	names   []string
	router  grid.Router

	// mu guards the broker bookkeeping below. It may be held across
	// engine mailbox calls (engine loops never take it).
	mu         sync.Mutex
	stock      []cluster.BETask
	campaigns  map[int]*Campaign
	nextCamp   int
	nextJobID  int
	jobHome    map[int]int
	submitted  int
	migrations int

	// feedMu guards the engine→broker event lists. Engine loop callbacks
	// take only this lock, and the broker never holds it while calling
	// into an engine.
	feedMu        sync.Mutex
	pendingKilled []cluster.BETask
	pendingDone   []doneEvent

	started  time.Time
	kick     chan struct{}
	quit     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
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
		router: gentry.New(grid.RouterOptions{
			Seed: topo.Seed, Threshold: topo.Threshold, MaxMove: topo.MaxMove,
		}),
		campaigns: make(map[int]*Campaign),
		jobHome:   make(map[int]int),
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	anchor := time.Now()
	for i, spec := range topo.Clusters {
		kp, err := cluster.ParseKillPolicy(spec.Kill)
		if err != nil {
			return nil, err
		}
		ci := i
		eng, err := service.New(service.Config{
			M: spec.M, Speed: spec.Speed, Policy: spec.Policy, Kill: kp,
			Dilation: topo.Dilation, Anchor: anchor,
			OnBEKilled: func(t cluster.BETask) { b.onKilled(t) },
			OnBEDone:   func(t cluster.BETask) { b.onDone(ci, t) },
		})
		if err != nil {
			return nil, fmt.Errorf("gridservice: cluster %s: %w", spec.Name, err)
		}
		b.engines = append(b.engines, eng)
		b.names = append(b.names, spec.Name)
	}
	return b, nil
}

// Start launches every engine and the broker tick loop.
func (b *Broker) Start() {
	b.started = time.Now()
	for _, e := range b.engines {
		e.Start()
	}
	go b.loop()
}

// Stop terminates the tick loop and every engine without draining.
func (b *Broker) Stop() {
	b.stopOnce.Do(func() { close(b.quit) })
	<-b.done
	for _, e := range b.engines {
		e.Stop()
	}
}

// Topology returns the filled fleet configuration.
func (b *Broker) Topology() Topology { return b.topo }

// onKilled receives a killed best-effort task (engine loop goroutine):
// back to the central stock at the next tick.
func (b *Broker) onKilled(t cluster.BETask) {
	b.feedMu.Lock()
	b.pendingKilled = append(b.pendingKilled, t)
	b.feedMu.Unlock()
}

// onDone receives a completed best-effort task (engine loop goroutine).
func (b *Broker) onDone(ci int, t cluster.BETask) {
	b.feedMu.Lock()
	b.pendingDone = append(b.pendingDone, doneEvent{task: t, cluster: ci})
	b.feedMu.Unlock()
}

// loop ticks the redistribution machinery on wall time until Stop.
func (b *Broker) loop() {
	defer close(b.done)
	ticker := time.NewTicker(time.Duration(b.topo.TickMS) * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-b.quit:
			return
		case <-b.kick:
		case <-ticker.C:
		}
		b.tick()
	}
}

// kickNow wakes the tick loop without waiting for the ticker.
func (b *Broker) kickNow() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// loads polls every cluster's lock-free load snapshot. Clusters behind
// an open partition window (checked against the fleet's virtual clock)
// are masked to a zero LoadInfo so the router skips them.
func (b *Broker) loads(now float64) []cluster.LoadInfo {
	out := make([]cluster.LoadInfo, len(b.engines))
	for i, e := range b.engines {
		if scenario.Partitioned(b.topo.Partitions, i, now) {
			continue
		}
		out[i] = e.Load()
	}
	return out
}

// virtualNow returns the fleet's virtual clock: the maximum engine
// clock (they advance in lockstep under a shared pacer; free-running
// fleets take the frontier). 0 when no partitions are configured — the
// windows are the only consumer, so the healthy fleet never pays the
// mailbox round-trips.
func (b *Broker) virtualNow() float64 {
	if len(b.topo.Partitions) == 0 {
		return 0
	}
	var now float64
	for _, e := range b.engines {
		if v, err := e.VirtualNow(); err == nil && v > now {
			now = v
		}
	}
	return now
}

// drainFeeds folds the pending engine events into broker state (caller
// holds mu).
func (b *Broker) drainFeeds() {
	b.feedMu.Lock()
	killed := b.pendingKilled
	done := b.pendingDone
	b.pendingKilled, b.pendingDone = nil, nil
	b.feedMu.Unlock()
	for _, t := range killed {
		if c := b.campaigns[t.BagID]; c != nil {
			c.Killed++
		}
		b.stock = append(b.stock, t)
	}
	for _, ev := range done {
		if c := b.campaigns[ev.task.BagID]; c != nil {
			c.Completed++
			c.PerCluster[ev.cluster]++
			if c.Completed >= c.Tasks {
				c.Done = true
			}
		}
	}
}

// tick is one redistribution round: fold kill/done events, grant stock
// tasks to clusters with room, and apply exchange migrations.
func (b *Broker) tick() {
	now := b.virtualNow()
	b.mu.Lock()
	b.drainFeeds()
	loads := b.loads(now)
	var batches [][]cluster.BETask
	if len(b.stock) > 0 {
		grants := b.router.Grants(loads, len(b.stock))
		batches = make([][]cluster.BETask, len(b.engines))
		for i, n := range grants {
			// Partitioned clusters get nothing even when the router's
			// remainder arithmetic grants them tasks over their masked
			// loads; the tasks stay central until a later tick.
			if n <= 0 || scenario.Partitioned(b.topo.Partitions, i, now) {
				continue
			}
			if n > len(b.stock) {
				n = len(b.stock)
			}
			batches[i] = append([]cluster.BETask(nil), b.stock[:n]...)
			b.stock = b.stock[n:]
		}
	}
	moves := b.router.Moves(loads)
	b.mu.Unlock()

	for i, batch := range batches {
		if len(batch) > 0 {
			_ = b.engines[i].SubmitBestEffort(batch...)
		}
	}
	cut := b.topo.Partitions
	for _, mv := range moves {
		if scenario.Partitioned(cut, mv.Src, now) || scenario.Partitioned(cut, mv.Dst, now) {
			continue
		}
		b.applyMove(mv)
	}
}

// applyMove executes one queued-job migration plan entry: steal up to N
// jobs from the source engine and re-inject the ones that fit the
// destination (misfits go straight back to the source). The whole
// steal→re-place sequence runs under mu so a concurrent Job lookup never
// observes the in-between state where a live job is tracked by no engine
// (engine loops never take mu, so holding it across mailbox calls is
// deadlock-free).
func (b *Broker) applyMove(mv grid.Move) {
	if mv.Src == mv.Dst || mv.Src < 0 || mv.Dst < 0 ||
		mv.Src >= len(b.engines) || mv.Dst >= len(b.engines) {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	stolen, err := b.engines[mv.Src].StealQueued(mv.N)
	if err != nil || len(stolen) == 0 {
		return
	}
	dstM := b.engines[mv.Dst].M()
	var fit, misfit []*workload.Job
	for _, j := range stolen {
		if j.MinProcs <= dstM {
			fit = append(fit, j)
		} else {
			misfit = append(misfit, j)
		}
	}
	if len(misfit) > 0 {
		_ = b.engines[mv.Src].SubmitJobs(misfit)
	}
	if len(fit) == 0 {
		return
	}
	if err := b.engines[mv.Dst].SubmitJobs(fit); err != nil {
		// Destination refused (e.g. a racing drain): put them back.
		_ = b.engines[mv.Src].SubmitJobs(fit)
		return
	}
	for _, j := range fit {
		b.jobHome[j.ID] = mv.Dst
	}
	b.migrations += len(fit)
}

// Submit routes one job described by spec across the fleet and submits
// it. The assigned global job ID is unique across all clusters.
func (b *Broker) Submit(spec service.JobSpec) (JobStatus, error) {
	b.mu.Lock()
	id := b.nextJobID
	j, err := spec.Job(id)
	if err != nil {
		b.mu.Unlock()
		return JobStatus{}, err
	}
	idx := -1
	now := b.virtualNow()
	if spec.Cluster != "" {
		for i, n := range b.names {
			if n == spec.Cluster {
				idx = i
				break
			}
		}
		if idx < 0 {
			b.mu.Unlock()
			return JobStatus{}, fmt.Errorf("gridservice: unknown cluster %q", spec.Cluster)
		}
		if scenario.Partitioned(b.topo.Partitions, idx, now) {
			b.mu.Unlock()
			return JobStatus{}, fmt.Errorf("gridservice: cluster %q: %w", spec.Cluster, ErrPartitioned)
		}
		if j.MinProcs > b.engines[idx].M() {
			b.mu.Unlock()
			return JobStatus{}, fmt.Errorf("gridservice: job needs %d > %d procs on cluster %s",
				j.MinProcs, b.engines[idx].M(), spec.Cluster)
		}
	} else {
		idx = b.router.Route(j.MinProcs, b.loads(now))
		if idx < 0 {
			b.mu.Unlock()
			return JobStatus{}, ErrNoCluster
		}
	}
	b.nextJobID++
	b.jobHome[id] = idx
	b.submitted++
	eng := b.engines[idx]
	b.mu.Unlock()

	if err := eng.SubmitJobs([]*workload.Job{j}); err != nil {
		b.mu.Lock()
		delete(b.jobHome, id)
		b.submitted--
		b.mu.Unlock()
		return JobStatus{}, err
	}
	return JobStatus{
		JobStatus: service.JobStatus{
			ID: id, Name: j.Name, Class: j.Class,
			State: service.StateWaiting, Release: j.Release,
		},
		Cluster: b.names[idx],
	}, nil
}

// SubmitBatch routes and submits pre-built jobs (trace replay) with one
// atomic batch per engine. Routing runs against a fleet-start load model
// evolved only by the batch itself, never against live wall-clock state —
// this is what makes a broker replay deterministic and comparable to the
// offline grid runs (the same stream routes identically on every run).
// Job IDs must be unique across the fleet's history.
func (b *Broker) SubmitBatch(jobs []*workload.Job) error {
	b.mu.Lock()
	model := make([]cluster.LoadInfo, len(b.engines))
	for i, spec := range b.topo.Clusters {
		model[i] = cluster.LoadInfo{M: spec.M, Speed: spec.Speed, Free: spec.M}
	}
	perEngine := make([][]*workload.Job, len(b.engines))
	routed := make(map[int]int, len(jobs))
	for _, j := range jobs {
		if _, dup := b.jobHome[j.ID]; dup {
			b.mu.Unlock()
			return fmt.Errorf("gridservice: duplicate job ID %d", j.ID)
		}
		if _, dup := routed[j.ID]; dup {
			b.mu.Unlock()
			return fmt.Errorf("gridservice: duplicate job ID %d in batch", j.ID)
		}
		idx := b.router.Route(j.MinProcs, model)
		if idx < 0 {
			b.mu.Unlock()
			return fmt.Errorf("gridservice: job %d: %w", j.ID, ErrNoCluster)
		}
		perEngine[idx] = append(perEngine[idx], j)
		routed[j.ID] = idx
		w, _ := j.MinWork(model[idx].M)
		model[idx].Queued++
		model[idx].QueuedWork += w
	}
	for id, idx := range routed {
		b.jobHome[id] = idx
		if id >= b.nextJobID {
			b.nextJobID = id + 1
		}
	}
	b.submitted += len(jobs)
	b.mu.Unlock()

	var firstErr error
	for i, batch := range perEngine {
		if len(batch) == 0 {
			continue
		}
		if err := b.engines[i].SubmitJobs(batch); err != nil {
			// SubmitJobs is atomic per engine: a refusal (e.g. drained)
			// means none of this engine's share was accepted, so undo its
			// bookkeeping — a retry must not see phantom submissions or
			// spurious duplicate-ID errors.
			b.mu.Lock()
			for _, j := range batch {
				delete(b.jobHome, j.ID)
			}
			b.submitted -= len(batch)
			b.mu.Unlock()
			if firstErr == nil {
				firstErr = fmt.Errorf("gridservice: cluster %s: %w", b.names[i], err)
			}
		}
	}
	return firstErr
}

// SubmitCampaign accepts a bag-of-tasks campaign into the central stock
// and wakes the tick loop so the fan-out starts immediately.
func (b *Broker) SubmitCampaign(spec CampaignSpec) (Campaign, error) {
	if spec.Tasks <= 0 {
		return Campaign{}, fmt.Errorf("gridservice: campaign needs tasks > 0")
	}
	if spec.RunTime <= 0 {
		return Campaign{}, fmt.Errorf("gridservice: campaign needs run_time > 0")
	}
	b.mu.Lock()
	id := b.nextCamp
	b.nextCamp++
	c := &Campaign{
		ID: id, Name: spec.Name, Tasks: spec.Tasks, RunTime: spec.RunTime,
		PerCluster: make([]int, len(b.engines)),
	}
	b.campaigns[id] = c
	for i := 0; i < spec.Tasks; i++ {
		b.stock = append(b.stock, cluster.BETask{BagID: id, Duration: spec.RunTime})
	}
	snap := *c
	snap.PerCluster = append([]int(nil), c.PerCluster...)
	b.mu.Unlock()
	b.kickNow()
	return snap, nil
}

// CampaignStatus returns one campaign (fresh as of the last tick).
func (b *Broker) CampaignStatus(id int) (Campaign, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainFeeds()
	c, ok := b.campaigns[id]
	if !ok {
		return Campaign{}, false
	}
	snap := *c
	snap.PerCluster = append([]int(nil), c.PerCluster...)
	return snap, true
}

// Campaigns lists every campaign in ID order.
func (b *Broker) Campaigns() []Campaign {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.drainFeeds()
	out := make([]Campaign, 0, len(b.campaigns))
	for id := 0; id < b.nextCamp; id++ {
		if c, ok := b.campaigns[id]; ok {
			snap := *c
			snap.PerCluster = append([]int(nil), c.PerCluster...)
			out = append(out, snap)
		}
	}
	return out
}

// Job resolves a global job ID to its status and cluster. A miss on the
// recorded home cluster is retried under mu: that serializes with any
// in-flight migration (applyMove holds mu from steal to re-place), so an
// accepted job is never reported unknown just because it was mid-move.
func (b *Broker) Job(id int) (JobStatus, bool, error) {
	b.mu.Lock()
	idx, ok := b.jobHome[id]
	b.mu.Unlock()
	if !ok {
		return JobStatus{}, false, nil
	}
	st, found, err := b.engines[idx].Job(id)
	if err != nil {
		return JobStatus{}, false, err
	}
	if !found {
		b.mu.Lock()
		idx, ok = b.jobHome[id]
		if ok {
			st, found, err = b.engines[idx].Job(id)
		}
		b.mu.Unlock()
		if err != nil || !found {
			return JobStatus{}, found, err
		}
	}
	return JobStatus{JobStatus: st, Cluster: b.names[idx]}, true, nil
}

// Queue snapshots every cluster's waiting and running jobs.
func (b *Broker) Queue() ([]ClusterQueue, error) {
	out := make([]ClusterQueue, len(b.engines))
	for i, e := range b.engines {
		snap, err := e.Queue()
		if err != nil {
			return nil, err
		}
		out[i] = ClusterQueue{Name: b.names[i], QueueSnapshot: snap}
	}
	return out, nil
}

// Stats aggregates per-cluster and fleet-wide statistics.
func (b *Broker) Stats() (FleetStats, error) {
	per := make([]ClusterStats, len(b.engines))
	for i, e := range b.engines {
		st, err := e.Stats()
		if err != nil {
			return FleetStats{}, err
		}
		per[i] = ClusterStats{Name: b.names[i], Stats: st}
	}
	b.mu.Lock()
	b.drainFeeds()
	fleet := FleetTotals{
		Clusters:      len(b.engines),
		Submitted:     b.submitted,
		Migrations:    b.migrations,
		Stock:         len(b.stock),
		Campaigns:     len(b.campaigns),
		UptimeSeconds: time.Since(b.started).Seconds(),
	}
	for _, c := range b.campaigns {
		if c.Done {
			fleet.CampaignsDone++
		}
	}
	b.mu.Unlock()
	for _, p := range per {
		fleet.Procs += p.Stats.M
		fleet.Waiting += p.Stats.Waiting
		fleet.Running += p.Stats.Running
		fleet.Completed += p.Stats.Completed
		fleet.BestEffort.Completed += p.Stats.BestEffort.Completed
		fleet.BestEffort.Killed += p.Stats.BestEffort.Killed
		fleet.BestEffort.Redistributed += p.Stats.BestEffort.Redistributed
		fleet.BestEffort.DoneWork += p.Stats.BestEffort.DoneWork
		fleet.BestEffort.WastedWork += p.Stats.BestEffort.WastedWork
		fleet.Faults.Crashes += p.Stats.Report.Faults.Crashes
		fleet.Faults.Repairs += p.Stats.Report.Faults.Repairs
		fleet.Faults.Requeues += p.Stats.Report.Faults.Requeues
		fleet.Faults.LostWork += p.Stats.Report.Faults.LostWork
		fleet.Faults.DownProcSeconds += p.Stats.Report.Faults.DownProcSeconds
		if p.Stats.VirtualNow > fleet.VirtualNow {
			fleet.VirtualNow = p.Stats.VirtualNow
		}
	}
	return FleetStats{
		GridPolicy: b.topo.GridPolicy,
		Dilation:   b.topo.Dilation,
		Fleet:      fleet,
		Clusters:   per,
	}, nil
}

// Drain gracefully shuts the fleet down: stop the tick loop, refuse new
// local work and fast-forward every engine, then keep redistributing the
// central stock (killed campaign tasks included) until every campaign
// task has completed or the context expires.
func (b *Broker) Drain(ctx context.Context) (FleetStats, error) {
	b.stopOnce.Do(func() { close(b.quit) })
	<-b.done
	for _, e := range b.engines {
		if _, err := e.Drain(ctx); err != nil {
			return FleetStats{}, err
		}
	}
	// Post-drain the engines free-run, so the leftover campaign work is
	// a deterministic redistribution loop, not a wall-clock wait.
	for {
		if err := ctx.Err(); err != nil {
			return FleetStats{}, err
		}
		b.mu.Lock()
		b.drainFeeds()
		stock := len(b.stock)
		b.mu.Unlock()
		busy := 0
		for _, e := range b.engines {
			ld := e.Load()
			busy += ld.BEQueued + ld.BEActive
		}
		if stock == 0 && busy == 0 {
			// One final fold: completions may have landed between the
			// stock check and the engine poll.
			b.mu.Lock()
			b.drainFeeds()
			stuck := len(b.stock)
			b.mu.Unlock()
			if stuck == 0 {
				break
			}
			continue
		}
		if stock > 0 {
			b.tick()
		}
		for _, e := range b.engines {
			if err := e.Sync(); err != nil {
				return FleetStats{}, err
			}
		}
	}
	return b.Stats()
}
