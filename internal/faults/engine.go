// Package faults is the deterministic fault-injection subsystem: a
// seeded engine that turns a declarative scenario.Faults plan into
// ordinary DES events against a cluster simulation — node crashes and
// repairs (exponential churn), scheduled whole- or partial-cluster
// outages, and time-varying availability traces. Rigid local jobs
// caught on crashed capacity are killed and requeued by the cluster
// (wait-time penalty accounted in the §3 criteria); best-effort tasks
// drift back through the existing OnBEKilled/central-stock path — the
// CiGri semantics of §5.2 under actual disturbance. The analytical
// twin in twin.go predicts the availability-discounted makespan bound
// the robustness tables compare simulations against.
//
// Everything is seeded: the same plan and seed produce bit-identical
// fault schedules, sequentially and under the parallel cell runner.
package faults

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Plan is the declarative fault schedule (the scenario Spec axis; the
// aliases keep the one definition and its strict JSON codec).
type Plan = scenario.Faults

// minChurnGap floors the exponential draws so a pathological RNG streak
// cannot schedule unbounded events into one instant.
const minChurnGap = 1e-9

// Engine drives one plan against one cluster simulation. It shares the
// sim's DES and owner goroutine: all its events run inline with the
// simulation, so determinism is inherited from the event queue.
type Engine struct {
	sim     *cluster.Sim
	rng     *stats.RNG
	mtbf    float64
	mttr    float64
	procs   int
	maxN    int
	crashes int
}

// Attach validates the plan, schedules its deterministic events
// (outages, trace steps) and arms the churn process on the simulation's
// own DES. It must be called before the simulation runs (virtual time
// 0). The partition windows are not interpreted here — they concern the
// broker layer, see grid.Routed.SetPartitions.
func Attach(sim *cluster.Sim, p Plan) (*Engine, error) {
	if sim == nil {
		return nil, fmt.Errorf("faults: nil sim")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		sim:   sim,
		mtbf:  p.MTBF,
		mttr:  p.MTTR,
		procs: p.CrashProcs,
		maxN:  p.MaxCrashes,
	}
	if e.mtbf > 0 && e.mttr == 0 {
		e.mttr = e.mtbf / 10
	}
	if e.procs <= 0 {
		e.procs = 1
	}
	if e.procs > sim.M {
		e.procs = sim.M
	}
	for _, o := range p.Outages {
		o := o
		procs := o.Procs
		if procs <= 0 || procs > sim.M {
			procs = sim.M
		}
		if err := sim.DES.At(o.Start, func() { _ = sim.Crash(procs, o.End) }); err != nil {
			return nil, err
		}
	}
	for _, st := range p.Trace {
		st := st
		if err := sim.DES.At(st.Time, func() { sim.SetAvailability(st.Avail) }); err != nil {
			return nil, err
		}
	}
	if e.mtbf > 0 {
		e.rng = stats.NewRNG(p.Seed ^ 0x6fa1e5a9c2b3d407)
		if err := e.armChurn(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// armChurn schedules the next churn crash.
func (e *Engine) armChurn() error {
	gap := e.rng.Exp(1 / e.mtbf)
	if gap < minChurnGap {
		gap = minChurnGap
	}
	return e.sim.DES.After(gap, e.churnEvent)
}

// churnEvent fires one churn crash and re-arms, unless the simulation
// has no further work (the stop condition that lets DES.Run drain: a
// self-rescheduling process would otherwise keep the heap alive
// forever) or MaxCrashes is reached.
func (e *Engine) churnEvent() {
	if e.done() {
		return
	}
	dur := e.rng.Exp(1 / e.mttr)
	if dur < minChurnGap {
		dur = minChurnGap
	}
	e.crashes++
	_ = e.sim.Crash(e.procs, e.sim.DES.Now()+dur)
	if e.maxN > 0 && e.crashes >= e.maxN {
		return
	}
	_ = e.armChurn()
}

// done reports whether every known unit of work has completed: all
// admitted local jobs done, nothing queued or running, no best-effort
// work waiting, and no lazy-admission source still attached.
func (e *Engine) done() bool {
	s := e.sim
	return !s.Streaming() &&
		s.CompletedCount() >= s.Submitted() &&
		s.QueueLength() == 0 && s.RunningCount() == 0 &&
		s.BestEffortActive() == 0 && s.BestEffortQueueLength() == 0
}
