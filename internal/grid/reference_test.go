package grid

// The CiGri simulation as it stood before it ran on Routed, kept
// verbatim (less the Member type, which moved to fleet.go) as the
// reference TestRoutedMatchesCentralizedReference holds Routed with
// FeedOnIdle to.

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

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

// cigriInstance draws one seeded CiGri input: 1–4 members of mixed
// widths and speeds under the four online policies, rigid local jobs
// released after t = 0, 0–3 campaigns and a kill policy.
func cigriInstance(seed uint64) ([]Member, []*workload.Bag, cluster.KillPolicy) {
	rng := stats.NewRNG(seed)
	policies := []cluster.Policy{cluster.FCFSPolicy{}, cluster.EASYPolicy{}, cluster.GreedyFitPolicy{}, cluster.ConservativePolicy{}}
	speeds := []float64{0.5, 1, 1.5, 2}
	members := make([]Member, rng.IntRange(1, 4))
	id := 0
	for i := range members {
		m := rng.IntRange(1, 16)
		var local []*workload.Job
		clock := 0.0
		for n := rng.IntRange(0, 40); n > 0; n-- {
			clock += 0.01 + rng.Exp(0.2)
			local = append(local, rjob(id, rng.Range(1, 40), rng.IntRange(1, m), clock))
			id++
		}
		members[i] = Member{
			Cluster: &platform.Cluster{Name: string(rune('a' + i)), Nodes: m, ProcsPerNode: 1, Speed: speeds[rng.Intn(len(speeds))]},
			Policy:  policies[rng.Intn(len(policies))],
			Local:   local,
		}
	}
	bags := make([]*workload.Bag, rng.IntRange(0, 3))
	for b := range bags {
		bags[b] = &workload.Bag{ID: b, Runs: rng.IntRange(1, 150), RunTime: rng.Range(0.5, 20)}
	}
	return members, bags, cluster.KillPolicy(rng.Intn(2))
}

// TestRoutedMatchesCentralizedReference runs seeded CiGri instances on
// the reference Centralized and on Routed fed on idle: the campaign
// stats, every cluster's best-effort stats and every local completion
// must be equal bit for bit. `-quickchecks N` scales the budget (N/2
// instances; 50 by default).
func TestRoutedMatchesCentralizedReference(t *testing.T) {
	cov := map[string]int{}
	err := quick.Check(func(seed uint64) bool {
		members, bags, kill := cigriInstance(seed)
		ref, err := NewCentralized(members, bags, kill)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := ref.Run(); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		members, bags, kill = cigriInstance(seed)
		got, err := newCiGri(members, bags, kill)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := got.Run(); err != nil {
			t.Fatalf("seed %d: routed: %v", seed, err)
		}
		if msg := cigriDiff(ref, got); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
			return false
		}
		st := ref.Stats()
		cov[fmt.Sprintf("%d campaigns", len(bags))]++
		cov[fmt.Sprintf("%d members", ref.Members())]++
		if st.TasksKilled > 0 {
			cov["kills"]++
		}
		if len(ref.sims) > 1 && st.TasksKilled > 0 {
			cov["kills on a multi-cluster grid"]++
		}
		return true
	}, &quick.Config{MaxCountScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", cov)
	for _, path := range []string{"0 campaigns", "3 campaigns", "1 members", "4 members", "kills", "kills on a multi-cluster grid"} {
		if cov[path] == 0 {
			t.Errorf("no instance with %s (%v)", path, cov)
		}
	}
}

// cigriDiff names the first difference between a reference run and a
// Routed run of the same instance, or returns "".
func cigriDiff(ref *Centralized, got *Routed) string {
	rs, gs := ref.Stats(), got.Stats()
	if gs.Rejected != 0 || gs.Migrations != 0 {
		return fmt.Sprintf("routed rejected %d and migrated %d jobs", gs.Rejected, gs.Migrations)
	}
	if rs.TasksCompleted != gs.TasksCompleted || rs.TasksKilled != gs.TasksKilled ||
		rs.DoneWork != gs.DoneWork || rs.WastedWork != gs.WastedWork || rs.GridMakespan != gs.GridMakespan {
		return fmt.Sprintf("stats %+v, reference %+v", gs, rs)
	}
	if !slices.Equal(rs.PerCluster, gs.PerCluster) {
		return fmt.Sprintf("best-effort stats %+v, reference %+v", gs.PerCluster, rs.PerCluster)
	}
	for i := 0; i < ref.Members(); i++ {
		rc, gc := ref.LocalCompletions(i), got.Sim(i).Completions()
		if len(rc) != len(gc) {
			return fmt.Sprintf("cluster %d: %d completions, reference %d", i, len(gc), len(rc))
		}
		for k := range rc {
			r, g := rc[k], gc[k]
			if r.Job.ID != g.Job.ID || r.Start != g.Start || r.End != g.End || r.Procs != g.Procs {
				return fmt.Sprintf("cluster %d completion %d: job %d (%v, %v, %d), reference job %d (%v, %v, %d)",
					i, k, g.Job.ID, g.Start, g.End, g.Procs, r.Job.ID, r.Start, r.End, r.Procs)
			}
		}
	}
	return ""
}

// TestCiGriFirstGrantReadsLiveLoads pins the one input on which Routed
// and the reference part: a local job released at exactly t = 0. The
// reference primed each cluster with M tasks after the t = 0 arrival
// was fed; Routed's first grant tops the cluster up to its free
// processors less its queued best-effort tasks.
func TestCiGriFirstGrantReadsLiveLoads(t *testing.T) {
	queuedAfterZero := func(sim *des.Simulator, beQueue func() int) *int {
		var n int
		_ = sim.At(0.5, func() { n = beQueue() })
		return &n
	}
	instance := func() ([]Member, []*workload.Bag) {
		return smallMembers([][]*workload.Job{{rjob(1, 10, 2, 0)}}), []*workload.Bag{{ID: 0, Runs: 10, RunTime: 1}}
	}

	members, bags := instance()
	ref, err := NewCentralized(members, bags, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	refQueued := queuedAfterZero(ref.DES, ref.sims[0].BestEffortQueueLength)
	members, bags = instance()
	got, err := newCiGri(members, bags, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	gotQueued := queuedAfterZero(got.DES, got.Sim(0).BestEffortQueueLength)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if err := got.Run(); err != nil {
		t.Fatal(err)
	}
	// The local job takes 2 of the 4 processors at t = 0; both runs fill
	// the other 2 with tasks. The reference then queues M = 4 more on
	// site; Routed keeps them in its stock.
	if *refQueued != 4 || *gotQueued != 0 {
		t.Fatalf("best-effort tasks queued on site at t = 0.5: reference %d, routed %d; want 4 and 0", *refQueued, *gotQueued)
	}
	if ref.Stats().TasksCompleted != 10 || got.Stats().TasksCompleted != 10 {
		t.Fatalf("completed %d and %d of 10 tasks", ref.Stats().TasksCompleted, got.Stats().TasksCompleted)
	}
}
