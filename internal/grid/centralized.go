// Package grid implements the two multi-cluster designs of §5.2 of the
// paper on top of the cluster simulator:
//
//   - Centralized (the CiGri system as deployed in Grenoble): each
//     cluster keeps its own submission system for local jobs; a central
//     server holds the multi-parametric grid campaigns and feeds their
//     elementary tasks into scheduling holes as best-effort jobs. A
//     best-effort task whose processor is claimed by a local job is
//     killed and resubmitted by the server. Local users are never
//     delayed by grid work.
//
//   - Decentralized: all jobs are local, but neighbouring schedulers
//     periodically exchange queued work to balance load.
package grid

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Member is one cluster of the grid together with its local workload.
type Member struct {
	Cluster *platform.Cluster
	Policy  cluster.Policy
	Local   []*workload.Job
}

// CentralizedStats aggregates a centralized run.
type CentralizedStats struct {
	// TasksCompleted counts elementary grid tasks that finished.
	TasksCompleted int
	// TasksKilled counts kill events (a task may die several times).
	TasksKilled int
	// DoneWork and WastedWork are reference-speed grid work completed /
	// lost to kills.
	DoneWork, WastedWork float64
	// GridMakespan is when the last grid task finished (0 if none ran).
	GridMakespan float64
	// PerCluster reports each cluster's best-effort stats.
	PerCluster []cluster.BEStats
}

// Centralized simulates the CiGri design. Its placement decisions come
// from the shared CentralizedFill policy, the same code the live broker
// of internal/gridservice runs through Fleet.Grant.
type Centralized struct {
	DES   *des.Simulator
	sims  []*cluster.Sim
	fill  CentralizedFill
	stock []cluster.BETask // central queue of not-yet-placed tasks
	stats CentralizedStats
	// redistributePending coalesces the zero-delay redistribution wakeups
	// that kills and completions trigger in bursts.
	redistributePending bool
}

// NewCentralized wires the grid: one simulator per member plus the
// central server holding the campaigns.
func NewCentralized(members []Member, bags []*workload.Bag, kill cluster.KillPolicy) (*Centralized, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("grid: no members")
	}
	nLocal := 0
	for _, mb := range members {
		nLocal += len(mb.Local)
	}
	sim := des.NewWithCapacity(nLocal + 64)
	c := &Centralized{DES: sim}
	for i, mb := range members {
		if err := mb.Cluster.Validate(); err != nil {
			return nil, err
		}
		cs, err := cluster.New(sim, mb.Cluster.Procs(), mb.Cluster.Speed, mb.Policy, kill)
		if err != nil {
			return nil, err
		}
		idx := i
		cs.OnIdle = func(free int) { c.feed(idx, free) }
		cs.OnBEKilled = func(t cluster.BETask) { c.requeue(t) }
		cs.OnBEDone = func(t cluster.BETask) { c.taskDone(t) }
		for _, j := range mb.Local {
			if err := cs.Submit(j); err != nil {
				return nil, err
			}
		}
		c.sims = append(c.sims, cs)
	}
	// Flatten the campaigns into the central stock, round-robin across
	// bags so every campaign progresses.
	maxRuns := 0
	for _, b := range bags {
		if b.Runs > maxRuns {
			maxRuns = b.Runs
		}
	}
	for r := 0; r < maxRuns; r++ {
		for _, b := range bags {
			if r < b.Runs {
				c.stock = append(c.stock, cluster.BETask{BagID: b.ID, Duration: b.RunTime})
			}
		}
	}
	// Prime the pumps: initial feed once the simulation starts.
	_ = sim.At(0, func() {
		for i, cs := range c.sims {
			c.feed(i, cs.M)
		}
	})
	return c, nil
}

// feed hands stock tasks to cluster i after an idle notification: the
// OnIdle hook reports free processors with the on-site queue already
// refilled, so the top-up sees no queued best-effort backlog.
func (c *Centralized) feed(i, free int) {
	c.grant(i, c.fill.TopUp(free, 0, len(c.stock)))
}

// grant moves n tasks from the central stock to cluster i.
func (c *Centralized) grant(i, n int) {
	for ; n > 0 && len(c.stock) > 0; n-- {
		t := c.stock[0]
		c.stock = c.stock[1:]
		c.sims[i].SubmitBestEffort(t)
	}
}

// requeue returns a killed task to the central stock ("the central
// server then has to submit it once again", §5.2).
func (c *Centralized) requeue(t cluster.BETask) {
	c.stats.TasksKilled++
	c.stock = append(c.stock, t)
	// Another cluster may have room right now.
	c.scheduleRedistribute()
}

// scheduleRedistribute queues one zero-delay redistribution pass, however
// many kills/completions request it before the pass runs.
func (c *Centralized) scheduleRedistribute() {
	if c.redistributePending {
		return
	}
	c.redistributePending = true
	_ = c.DES.After(0, func() {
		c.redistributePending = false
		c.redistribute()
	})
}

func (c *Centralized) taskDone(t cluster.BETask) {
	c.stats.TasksCompleted++
	c.stats.DoneWork += t.Duration
	if now := c.DES.Now(); now > c.stats.GridMakespan {
		c.stats.GridMakespan = now
	}
	c.scheduleRedistribute()
}

// redistribute offers stock to clusters with free processors via the
// shared CentralizedFill policy: each cluster's on-site best-effort
// queue is topped up to at most its free capacity. Keeping the stock
// central (rather than dumping it into one cluster's queue) is what lets
// killed work drift to whichever cluster has holes — the essence of the
// CiGri server.
func (c *Centralized) redistribute() {
	loads := make([]cluster.LoadInfo, len(c.sims))
	for i, cs := range c.sims {
		loads[i] = cluster.LoadInfo{Free: cs.Free(), BEQueued: cs.BestEffortQueueLength()}
	}
	for i, n := range c.fill.Grants(loads, len(c.stock)) {
		c.grant(i, n)
	}
}

// Run drives the whole grid to completion: all local jobs and all grid
// tasks done.
func (c *Centralized) Run() error {
	// The DES drains when nothing is left to do; killed tasks re-enter
	// the stock and are re-fed via zero-delay events, so progress holds
	// as long as at least one cluster eventually frees a processor.
	for {
		if err := c.DES.Run(); err != nil {
			return err
		}
		if len(c.stock) == 0 {
			break
		}
		// Stock left but no events pending: every cluster's best-effort
		// queue was full at the time of the last feed. Push again.
		before := len(c.stock)
		c.redistribute()
		if c.DES.Pending() == 0 && len(c.stock) == before {
			return fmt.Errorf("grid: %d tasks stuck in central stock", len(c.stock))
		}
	}
	for i, cs := range c.sims {
		st := cs.BestEffort()
		c.stats.PerCluster = append(c.stats.PerCluster, st)
		c.stats.WastedWork += st.WastedWork
		_ = i
	}
	return nil
}

// Stats returns the aggregated grid statistics (valid after Run).
func (c *Centralized) Stats() CentralizedStats { return c.stats }

// LocalCompletions returns the local-job records of cluster i.
func (c *Centralized) LocalCompletions(i int) []metrics.Completion {
	return c.sims[i].Completions()
}

// Members returns the member count.
func (c *Centralized) Members() int { return len(c.sims) }
