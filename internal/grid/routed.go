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
	// seconds; default 60, ignored for routers that never move jobs).
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
	// Campaign accounting, mirroring CentralizedStats.
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
// tables.
type Routed struct {
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

// NewRouted wires the routed grid: members supply the platforms and
// local queue policies (their Local job lists are ignored — routing is
// the router's job), jobs is the single arrival stream, bags the
// campaign load.
func NewRouted(members []Member, jobs []*workload.Job, bags []*workload.Bag, router Router, opt RoutedOptions, kill cluster.KillPolicy) (*Routed, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("grid: no members")
	}
	if router == nil {
		return nil, fmt.Errorf("grid: nil router")
	}
	opt = opt.fill()
	sim := des.NewWithCapacity(len(jobs) + 64)
	r := &Routed{DES: sim, fleet: Fleet{Router: router}, opt: opt}
	for _, mb := range members {
		if err := mb.Cluster.Validate(); err != nil {
			return nil, err
		}
		cs, err := cluster.New(sim, mb.Cluster.Procs(), mb.Cluster.Speed, mb.Policy, kill)
		if err != nil {
			return nil, err
		}
		cs.OnBEKilled = func(t cluster.BETask) { r.requeue(t) }
		cs.OnBEDone = func(t cluster.BETask) { r.taskDone(t) }
		r.fleet.Sims = append(r.fleet.Sims, cs)
	}
	// Each job arrives at its release date and is routed against the
	// fleet's live load at that instant — the broker's Submit path.
	for _, j := range jobs {
		job := j
		if err := sim.At(job.Release, func() { r.place(job) }); err != nil {
			return nil, err
		}
	}
	for _, b := range bags {
		for i := 0; i < b.Runs; i++ {
			r.stock = append(r.stock, cluster.BETask{BagID: b.ID, Duration: b.RunTime})
		}
	}
	_ = sim.At(0, r.redistribute)
	// Exchange rounds are armed for every router; routers without a
	// protocol return no moves and the round re-arms only while events
	// remain, so the no-op rounds cost nothing once the grid drains.
	_ = sim.At(opt.ExchangePeriod, r.exchange)
	return r, nil
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
	if err := r.fleet.Sims[idx].InjectNow(j); err != nil {
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

// exchange runs one Moves round and re-arms while the grid is alive.
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

// Sim exposes member cluster i's simulation (fault engines attach to
// it before Run; determinism tests compare it to the live broker).
func (r *Routed) Sim(i int) *cluster.Sim { return r.fleet.Sims[i] }

// AllCompletions merges every cluster's local completion records.
func (r *Routed) AllCompletions() []metrics.Completion {
	var all []metrics.Completion
	for _, cs := range r.fleet.Sims {
		all = append(all, cs.Completions()...)
	}
	return all
}
