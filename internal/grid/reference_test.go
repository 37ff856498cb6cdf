package grid

// The two §5.2 simulations as they stood before they ran on Routed,
// kept verbatim as the references Routed is held to: the CiGri
// simulation (less the Member type, which moved to fleet.go) for
// TestRoutedMatchesCentralizedReference, and the decentralized load
// exchange, with the push and pull picks it called, for
// TestRoutedMatchesDecentralizedReference. Both read a cluster's free
// processors through Load, the one accessor the Sim keeps for them.

import (
	"fmt"
	"math"
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
		loads[i] = cluster.LoadInfo{Free: cs.Load().Free, BEQueued: cs.BestEffortQueueLength()}
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
// widths and speeds under the four online policies, rigid local jobs,
// the first of them released at exactly t = 0 on about half the members
// and every other after it, 0–3 campaigns and a kill policy.
func cigriInstance(seed uint64) ([]Member, []*workload.Bag, cluster.KillPolicy) {
	rng := stats.NewRNG(seed)
	policies := []cluster.Policy{cluster.FCFSPolicy{}, cluster.EASYPolicy{}, cluster.GreedyFitPolicy{}, cluster.ConservativePolicy{}}
	speeds := []float64{0.5, 1, 1.5, 2}
	members := make([]Member, rng.IntRange(1, 4))
	id := 0
	for i := range members {
		m := rng.IntRange(1, 16)
		var local []*workload.Job
		clock, atZero := 0.0, rng.Bool(0.5)
		for n := rng.IntRange(0, 40); n > 0; n-- {
			if !atZero {
				clock += 0.01 + rng.Exp(0.2)
			}
			atZero = false
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
		for _, mb := range members {
			if len(mb.Local) > 0 && mb.Local[0].Release == 0 {
				cov["a release at t = 0"]++
				break
			}
		}
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
	for _, path := range []string{"0 campaigns", "3 campaigns", "1 members", "4 members", "kills", "kills on a multi-cluster grid",
		"a release at t = 0"} {
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

// TestCiGriFirstGrantReadsLiveLoads pins the first grant on a cluster
// with a local job released at exactly t = 0. The cluster decides once
// every event at t = 0 has fired, so the job is still queued when either
// run's first grant reads the cluster: the reference primes it with
// M = 4 tasks, and Routed tops its 4 free processors up, less the none
// queued on site, to the same 4.
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
	// The decision at t = 0 starts the local job on 2 of the 4 processors
	// and 2 of the 4 tasks on the other 2; in both runs the other 2 tasks
	// wait on site.
	if *refQueued != 2 || *gotQueued != 2 {
		t.Fatalf("best-effort tasks queued on site at t = 0.5: reference %d, routed %d; want 2 and 2", *refQueued, *gotQueued)
	}
	if ref.Stats().TasksCompleted != 10 || got.Stats().TasksCompleted != 10 {
		t.Fatalf("completed %d and %d of 10 tasks", ref.Stats().TasksCompleted, got.Stats().TasksCompleted)
	}
}

// Protocol selects who initiates a work transfer.
type Protocol int

// Pull is receiver-initiated (work stealing, in the spirit of the
// paper's [3]): clusters with an empty queue and free processors steal
// from the most loaded cluster regardless of the ratio. The zero
// Protocol is sender-initiated push: the most loaded cluster offloads to
// the least loaded when the imbalance exceeds the threshold.
const Pull Protocol = 1

// DecentralizedOptions tunes the load-exchange protocol.
type DecentralizedOptions struct {
	// Period is the exchange interval (virtual seconds).
	Period float64
	// Threshold is the queued-work imbalance ratio that triggers a
	// migration (source load > Threshold × target load). Push only.
	Threshold float64
	// MaxMove caps jobs moved per exchange round per pair.
	MaxMove int
	// Protocol selects sender-initiated (push, the zero value) or
	// receiver-initiated (Pull) transfers.
	Protocol Protocol
}

func (o DecentralizedOptions) fill() DecentralizedOptions {
	if o.Period <= 0 {
		o.Period = 60
	}
	if o.Threshold <= 1 {
		o.Threshold = 1.5
	}
	if o.MaxMove <= 0 {
		o.MaxMove = 4
	}
	return o
}

// DecentralizedStats reports an exchange run.
type DecentralizedStats struct {
	Migrations int
}

// Decentralized simulates the §5.2 decentralized vision: every job is
// submitted locally; schedulers periodically compare queued work and move
// waiting jobs from overloaded to underloaded clusters (a simple
// threshold protocol standing in for the paper's open design space —
// graph coupling, economic models, consensus, ...).
type Decentralized struct {
	clusters
	DES   *des.Simulator
	opt   DecentralizedOptions
	stats DecentralizedStats
}

// NewDecentralized wires the members; exchange starts at t=Period.
func NewDecentralized(members []Member, opt DecentralizedOptions, kill cluster.KillPolicy) (*Decentralized, error) {
	sim := des.New()
	cs, err := newClusters(sim, members, kill)
	if err != nil {
		return nil, err
	}
	opt = opt.fill()
	d := &Decentralized{clusters: cs, DES: sim, opt: opt}
	_ = sim.At(opt.Period, d.exchange)
	return d, nil
}

// exchange runs one balancing round and re-arms itself while work waits.
func (d *Decentralized) exchange() {
	// Normalized load: queued work / (procs × speed) — time to drain.
	load := make([]float64, len(d.clusters))
	for i, cs := range d.clusters {
		load[i] = cs.QueuedWork() / (float64(cs.M) * cs.Speed)
	}
	switch d.opt.Protocol {
	case Pull:
		// Every idle cluster (empty queue, free processors) steals up to
		// MaxMove jobs from the currently most loaded cluster.
		for i, cs := range d.clusters {
			if cs.QueueLength() > 0 || cs.Load().Free == 0 {
				continue
			}
			for moved := 0; moved < d.opt.MaxMove; moved++ {
				src, ok := PullPick(load, i)
				if !ok {
					break
				}
				if !d.moveOne(src, i, load) {
					break
				}
			}
		}
	default: // Push: repeatedly move from the most to the least loaded.
		for moved := 0; moved < d.opt.MaxMove; moved++ {
			src, dst, ok := PushPick(load, d.opt.Threshold)
			if !ok {
				break
			}
			if !d.moveOne(src, dst, load) {
				break
			}
		}
	}
	// Re-arm while the grid is still alive: our own event has already
	// been popped, so a non-empty DES queue means arrivals or
	// completions are still outstanding somewhere.
	if d.DES.Pending() > 0 {
		_ = d.DES.At(d.DES.Now()+d.opt.Period, d.exchange)
	}
}

// moveOne steals one queued job from src that fits dst and injects it.
func (d *Decentralized) moveOne(src, dst int, load []float64) bool {
	stolen := d.clusters[src].StealQueued(1)
	if len(stolen) == 0 {
		return false
	}
	j := stolen[0]
	if j.MinProcs > d.clusters[dst].M {
		// Does not fit the target; put it back.
		if err := d.clusters[src].Submit(j); err != nil {
			return false
		}
		return false
	}
	if err := d.clusters[dst].Submit(j); err != nil {
		_ = d.clusters[src].Submit(j)
		return false
	}
	d.stats.Migrations++
	w, _ := j.MinWork(d.clusters[src].M)
	load[src] -= w / (float64(d.clusters[src].M) * d.clusters[src].Speed)
	load[dst] += w / (float64(d.clusters[dst].M) * d.clusters[dst].Speed)
	return true
}

// Run drives the grid to completion.
func (d *Decentralized) Run() error {
	return d.DES.Run()
}

// Stats returns exchange statistics (valid after Run).
func (d *Decentralized) Stats() DecentralizedStats { return d.stats }

// PushPick selects the (src, dst) pair for one sender-initiated transfer
// over normalized loads, or ok=false when the imbalance is below the
// threshold (the §5.2 decentralized push protocol step).
func PushPick(loads []float64, threshold float64) (src, dst int, ok bool) {
	src, dst = argmax(loads), argmin(loads)
	if src == dst || loads[src] <= threshold*math.Max(loads[dst], 1e-12) {
		return 0, 0, false
	}
	return src, dst, true
}

// PullPick selects the source an idle cluster i steals from (the
// receiver-initiated work-stealing step), or ok=false when nothing is
// worth stealing.
func PullPick(loads []float64, i int) (src int, ok bool) {
	src = argmax(loads)
	if src == i || loads[src] <= 0 {
		return 0, false
	}
	return src, true
}

// exchangeInstance draws one seeded load-exchange input: 2–5 members of
// mixed widths and speeds under the four online policies; rigid local
// jobs released after t = 0, a fifth of them on member 0 and the rest
// on a random member, each up to as wide as its home cluster (so a job
// a narrower cluster cannot take is common); and push or pull options
// with a 1–20 s period, a 1.05–3 threshold and 1–8 moves per round.
func exchangeInstance(seed uint64) ([]Member, DecentralizedOptions, cluster.KillPolicy) {
	rng := stats.NewRNG(seed)
	policies := []cluster.Policy{cluster.FCFSPolicy{}, cluster.EASYPolicy{}, cluster.GreedyFitPolicy{}, cluster.ConservativePolicy{}}
	speeds := []float64{0.5, 1, 1.5, 2}
	members := make([]Member, rng.IntRange(2, 5))
	for i := range members {
		m := []int{2, 4, 8, 16}[rng.Intn(4)]
		members[i] = Member{
			Cluster: &platform.Cluster{Name: string(rune('a' + i)), Nodes: m, ProcsPerNode: 1, Speed: speeds[rng.Intn(len(speeds))]},
			Policy:  policies[rng.Intn(len(policies))],
		}
	}
	clock := 0.0
	for id, n := 0, rng.IntRange(0, 60); id < n; id++ {
		clock += 0.01 + rng.Exp(0.3)
		home := 0
		if rng.Float64() < 0.8 {
			home = rng.Intn(len(members))
		}
		mb := &members[home]
		mb.Local = append(mb.Local, rjob(id, rng.Range(1, 60), rng.IntRange(1, mb.Cluster.Procs()), clock))
	}
	opt := DecentralizedOptions{
		Period:    rng.Range(1, 20),
		Threshold: rng.Range(1.05, 3),
		MaxMove:   rng.IntRange(1, 8),
		Protocol:  Protocol(rng.Intn(2)),
	}
	return members, opt, cluster.KillPolicy(rng.Intn(2))
}

// watchedExchange counts, for the coverage check of the differential,
// the exchange paths a round of the wrapped exchanger takes.
type watchedExchange struct {
	*jobExchange
	cov     map[string]int
	sources map[int]bool // clusters stolen from this round
}

func (w *watchedExchange) Begin(loads []cluster.LoadInfo) {
	w.sources = map[int]bool{}
	w.jobExchange.Begin(loads)
}

func (w *watchedExchange) Next() (Move, bool) {
	mv, ok := w.jobExchange.Next()
	if ok && w.pull && w.sources[mv.Dst] {
		w.cov["pull: a source emptied earlier in the round steals"]++
	}
	return mv, ok
}

func (w *watchedExchange) Moved(mv Move, stolen int, moved []*workload.Job) {
	proto := w.Name()
	if stolen > len(moved) {
		w.cov[proto+": a stolen job does not fit"]++
		if w.moved > 0 {
			w.cov[proto+": a stolen job does not fit after a move"]++
		}
	}
	if len(moved) > 0 && w.moved > 0 {
		w.cov[proto+": a round moves several jobs"]++
	}
	if stolen > 0 {
		w.sources[mv.Src] = true
	}
	w.jobExchange.Moved(mv, stolen, moved)
}

// TestRoutedMatchesDecentralizedReference runs seeded exchange
// instances on the reference Decentralized and on Routed under the
// push or pull exchanger with the same options: the migration count and
// every cluster's completions (job, start, end, procs) must be equal
// bit for bit. `-quickchecks N` scales the budget (N/2 instances; 50 by
// default).
func TestRoutedMatchesDecentralizedReference(t *testing.T) {
	cov := map[string]int{}
	err := quick.Check(func(seed uint64) bool {
		members, opt, kill := exchangeInstance(seed)
		ref, err := NewDecentralized(members, opt, kill)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := ref.Run(); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		members, opt, kill = exchangeInstance(seed)
		exchange := NewPushExchange
		if opt.Protocol == Pull {
			exchange = NewPullExchange
		}
		x := exchange(RouterOptions{Threshold: opt.Threshold, MaxMove: opt.MaxMove}).(*jobExchange)
		got, err := NewRouted(members, nil, nil, &watchedExchange{jobExchange: x, cov: cov},
			RoutedOptions{ExchangePeriod: opt.Period}, kill)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := got.Run(); err != nil {
			t.Fatalf("seed %d: routed: %v", seed, err)
		}
		if msg := exchangeDiff(ref, got); msg != "" {
			t.Errorf("seed %d (%s, %+v): %s", seed, x.Name(), opt, msg)
			return false
		}
		cov[fmt.Sprintf("%d members", len(members))]++
		if ref.Stats().Migrations > 0 {
			cov[x.Name()+": migrations"]++
		}
		return true
	}, &quick.Config{MaxCountScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", cov)
	for _, path := range []string{
		"2 members", "5 members", "push: migrations", "pull: migrations",
		"push: a round moves several jobs", "pull: a round moves several jobs",
		"push: a stolen job does not fit", "push: a stolen job does not fit after a move",
		"pull: a stolen job does not fit", "pull: a source emptied earlier in the round steals",
	} {
		if cov[path] == 0 {
			t.Errorf("no instance with %s (%v)", path, cov)
		}
	}
}

// exchangeDiff names the first difference between a reference exchange
// run and a Routed run of the same instance, or returns "".
func exchangeDiff(ref *Decentralized, got *Routed) string {
	if rm, gm := ref.Stats().Migrations, got.Stats().Migrations; rm != gm {
		return fmt.Sprintf("%d migrations, reference %d", gm, rm)
	}
	for i := range ref.clusters {
		rc, gc := ref.Sim(i).Completions(), got.Sim(i).Completions()
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
