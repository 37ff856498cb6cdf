// Package grid implements the two multi-cluster designs of §5.2 of the
// paper on top of the cluster simulator, both run by one driver, Routed,
// through the Fleet steps the live broker shares:
//
//   - Centralized (the CiGri system as deployed in Grenoble): each
//     cluster keeps its own submission system for local jobs; a central
//     server holds the multi-parametric grid campaigns and feeds their
//     elementary tasks into scheduling holes as best-effort jobs. A
//     best-effort task whose processor is claimed by a local job is
//     killed and resubmitted by the server. Local users are never
//     delayed by grid work. Routed runs it with the members' local jobs,
//     the campaigns, NewCentralizedRouter and FeedOnIdle.
//
//   - Decentralized: all jobs are local, but neighbouring schedulers
//     periodically exchange queued work to balance load. Every exchange
//     protocol is an Exchanger whose rounds Routed arms and Fleet.Migrate
//     runs one Move at a time: the decentralized router's push (the one
//     gridd serves), and experiment T7's per-job push and pull
//     (NewPushExchange, NewPullExchange), which gridd does not serve.
package grid

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// RoutedOptions tunes the offline routed-grid simulation.
type RoutedOptions struct {
	// ExchangePeriod is the interval of the Moves rounds (virtual
	// seconds; default 60, ignored for a router that is not an
	// Exchanger).
	ExchangePeriod float64
}

func (o RoutedOptions) fill() RoutedOptions {
	if o.ExchangePeriod <= 0 {
		o.ExchangePeriod = 60
	}
	return o
}

// RoutedStats aggregates a routed run.
type RoutedStats struct {
	// Rejected counts local jobs no cluster could take.
	Rejected int
	// Migrations counts queued jobs moved by exchange rounds.
	Migrations int
	// Campaign accounting: tasks completed and kill events (a task may
	// die several times), reference-speed work done and lost to kills,
	// when the last task finished (0 if none ran), and each cluster's
	// best-effort stats.
	TasksCompleted, TasksKilled int
	DoneWork, WastedWork        float64
	GridMakespan                float64
	PerCluster                  []cluster.BEStats
}

// Routed is the offline twin of the live broker: one DES, k member
// clusters, and a grid Router deciding — through the same Fleet steps
// the broker runs — where each arriving job goes, how the campaign
// stock fans out, and which queued jobs migrate. It exists so the
// online grid policies can be swept deterministically in the paper
// tables; with the centralized router and FeedOnIdle it is the CiGri
// simulation.
type Routed struct {
	clusters
	DES   *des.Simulator
	fleet Fleet
	opt   RoutedOptions
	stock []cluster.BETask
	stats RoutedStats

	// OnMigrate, when set, observes every exchange-round migration: job
	// j moved from cluster src to cluster dst at virtual time now. Nil
	// by default — the batch tables pay nothing for it.
	OnMigrate func(j *workload.Job, src, dst int, now float64)

	redistributePending bool
}

// NewRouted wires the routed grid: members supply the platforms, local
// queue policies and the local jobs each submits to its own cluster,
// jobs is the arrival stream the router places, bags the campaign load.
func NewRouted(members []Member, jobs []*workload.Job, bags []*workload.Bag, router Router, opt RoutedOptions, kill cluster.KillPolicy) (*Routed, error) {
	n := len(jobs)
	for _, mb := range members {
		n += len(mb.Local)
	}
	sim := des.NewWithCapacity(n + 64)
	cs, err := newClusters(sim, members, kill)
	if err != nil {
		return nil, err
	}
	if router == nil {
		return nil, fmt.Errorf("grid: nil router")
	}
	opt = opt.fill()
	r := &Routed{clusters: cs, DES: sim, fleet: Fleet{Sims: cs, Router: router}, opt: opt}
	for _, s := range cs {
		s.OnBEKilled = r.requeue
		s.OnBEDone = r.taskDone
	}
	// Each job arrives at its release date and is routed against the
	// fleet's live load at that instant — the broker's Submit path.
	for _, j := range jobs {
		job := j
		if err := sim.At(job.Release, func() { r.place(job) }); err != nil {
			return nil, err
		}
	}
	// The stock deals the campaigns round-robin, so every one progresses.
	for k, dealt := 0, true; dealt; k++ {
		dealt = false
		for _, b := range bags {
			if k < b.Runs {
				r.stock = append(r.stock, cluster.BETask{BagID: b.ID, Duration: b.RunTime})
				dealt = true
			}
		}
	}
	_ = sim.At(0, r.redistribute)
	if _, ok := router.(Exchanger); ok {
		_ = sim.At(opt.ExchangePeriod, r.exchange)
	}
	return r, nil
}

// FeedOnIdle hands the stock to holes as they open, the CiGri server's
// rule: after every reschedule, cluster i receives min(free, stock)
// tasks from the head of the stock — unless it is behind an open
// partition window, which Fleet.Grant skips too. Call it before Run.
//
// The stock's first grant runs at t = 0 and reads live loads like every
// later one, before any cluster has decided (each decides once the
// instant's events have fired): every cluster is topped up to all of its
// processors, whatever local jobs it has queued at t = 0.
func (r *Routed) FeedOnIdle() {
	for i, s := range r.clusters {
		s.OnIdle = func(free int) {
			if !scenario.Partitioned(r.fleet.Partitions, i, r.DES.Now()) {
				r.stock = r.fleet.give(i, free, r.stock)
			}
		}
	}
}

// SetPartitions installs the broker-link partition windows. Must be
// called before Run; each window's close is armed as a redistribution
// wakeup so stock stranded during a blackout is re-delivered the
// instant a cluster becomes reachable again.
func (r *Routed) SetPartitions(windows []scenario.PartitionWindow) {
	r.fleet.Partitions = windows
	for _, w := range windows {
		_ = r.DES.At(w.End, r.scheduleRedistribute)
	}
}

// place routes one arriving job.
func (r *Routed) place(j *workload.Job) {
	idx := r.fleet.Router.Route(j.MinProcs, r.fleet.Loads(r.DES.Now()))
	if idx < 0 {
		r.stats.Rejected++
		return
	}
	if err := r.fleet.Sims[idx].Submit(j); err != nil {
		r.stats.Rejected++
		return
	}
}

// requeue returns a killed campaign task to the stock.
func (r *Routed) requeue(t cluster.BETask) {
	r.stats.TasksKilled++
	r.stock = append(r.stock, t)
	r.scheduleRedistribute()
}

func (r *Routed) taskDone(t cluster.BETask) {
	r.stats.TasksCompleted++
	r.stats.DoneWork += t.Duration
	if now := r.DES.Now(); now > r.stats.GridMakespan {
		r.stats.GridMakespan = now
	}
	r.scheduleRedistribute()
}

// scheduleRedistribute coalesces redistribution wakeups (kills and
// completions arrive in bursts).
func (r *Routed) scheduleRedistribute() {
	if r.redistributePending || len(r.stock) == 0 {
		return
	}
	r.redistributePending = true
	_ = r.DES.After(0, func() {
		r.redistributePending = false
		r.redistribute()
	})
}

// redistribute grants stock tasks per the router's fill rule.
func (r *Routed) redistribute() {
	r.stock = r.fleet.Grant(r.DES.Now(), r.stock)
}

// exchange runs one Moves round and re-arms while the grid is alive;
// only an Exchanger's rounds are armed.
func (r *Routed) exchange() {
	r.stats.Migrations += r.fleet.Migrate(r.DES.Now(), r.OnMigrate)
	if r.DES.Pending() > 0 {
		_ = r.DES.At(r.DES.Now()+r.opt.ExchangePeriod, r.exchange)
	}
}

// Run drives the routed grid to completion: all routed jobs and all
// campaign tasks done.
func (r *Routed) Run() error {
	for {
		if err := r.DES.Run(); err != nil {
			return err
		}
		if len(r.stock) == 0 {
			break
		}
		before := len(r.stock)
		r.redistribute()
		if r.DES.Pending() == 0 && len(r.stock) == before {
			return fmt.Errorf("grid: %d tasks stuck in routed stock", len(r.stock))
		}
	}
	for _, cs := range r.fleet.Sims {
		st := cs.BestEffort()
		r.stats.PerCluster = append(r.stats.PerCluster, st)
		r.stats.WastedWork += st.WastedWork
	}
	return nil
}

// Stats returns the aggregated statistics (valid after Run).
func (r *Routed) Stats() RoutedStats { return r.stats }

// RunIsolated runs the members with nothing to route or exchange (the
// baseline: communities keep their machines to themselves) and returns
// the merged completion records in member order.
func RunIsolated(members []Member, kill cluster.KillPolicy) ([]metrics.Completion, error) {
	r, err := NewRouted(members, nil, nil, NewCentralizedRouter(RouterOptions{}), RoutedOptions{}, kill)
	if err != nil {
		return nil, err
	}
	if err := r.Run(); err != nil {
		return nil, err
	}
	return r.AllCompletions(), nil
}
