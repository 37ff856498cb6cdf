package grid

import (
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/workload"
)

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
			if cs.QueueLength() > 0 || cs.Free() == 0 {
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
		if err := d.clusters[src].InjectNow(j); err != nil {
			return false
		}
		return false
	}
	if err := d.clusters[dst].InjectNow(j); err != nil {
		_ = d.clusters[src].InjectNow(j)
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

// RunIsolated runs the same members with no exchange at all (the
// baseline: communities keep their machines to themselves) and returns
// the merged completion records.
func RunIsolated(members []Member, kill cluster.KillPolicy) ([]metrics.Completion, error) {
	var all []metrics.Completion
	for _, mb := range members {
		cs, err := newClusters(des.New(), []Member{mb}, kill)
		if err != nil {
			return nil, err
		}
		if err := cs[0].Run(); err != nil {
			return nil, err
		}
		all = append(all, cs[0].Completions()...)
	}
	return all, nil
}

// SplitJobsSkewed sends the given fraction of the stream to member 0 and
// deals the rest round-robin over the others — the §5.2 imbalance
// scenario (one community floods its own cluster).
func SplitJobsSkewed(jobs []*workload.Job, k int, frac float64) [][]*workload.Job {
	out := make([][]*workload.Job, k)
	if k == 1 {
		out[0] = jobs
		return out
	}
	cut := int(frac * float64(len(jobs)))
	for i, j := range jobs {
		if i < cut {
			out[0] = append(out[0], j)
		} else {
			out[1+(i-cut)%(k-1)] = append(out[1+(i-cut)%(k-1)], j)
		}
	}
	return out
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
