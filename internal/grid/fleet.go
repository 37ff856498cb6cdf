package grid

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Member is one cluster of the grid together with its local workload.
type Member struct {
	Cluster *platform.Cluster
	Policy  cluster.Policy
	Local   []*workload.Job
}

// clusters is a grid's member simulations in member order.
type clusters []*cluster.Sim

// newClusters builds one simulation per member on sim and submits each
// member's local jobs to its own cluster, in member then job order.
func newClusters(sim *des.Simulator, members []Member, kill cluster.KillPolicy) (clusters, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("grid: no members")
	}
	cs := make(clusters, 0, len(members))
	for _, mb := range members {
		if err := mb.Cluster.Validate(); err != nil {
			return nil, err
		}
		s, err := cluster.New(sim, mb.Cluster.Procs(), mb.Cluster.Speed, mb.Policy, kill)
		if err != nil {
			return nil, err
		}
		for _, j := range mb.Local {
			if err := s.Submit(j); err != nil {
				return nil, err
			}
		}
		cs = append(cs, s)
	}
	return cs, nil
}

// Sim exposes member cluster i's simulation: fault engines attach to
// it before Run, callers read its records after.
func (cs clusters) Sim(i int) *cluster.Sim { return cs[i] }

// AllCompletions merges every member cluster's local completion
// records, in member order.
func (cs clusters) AllCompletions() []metrics.Completion {
	var all []metrics.Completion
	for _, s := range cs {
		all = append(all, s.Completions()...)
	}
	return all
}

// Fleet is what the offline Routed grid and the live gridd broker share:
// k clusters on one DES, the Router that decides for all of them, and
// the partition windows that cut clusters off it. Its three steps —
// Loads, Grant and Migrate — are the only code either side runs to
// place work across clusters.
type Fleet struct {
	Sims   []*cluster.Sim
	Router Router
	// Partitions cut clusters off the router during [start, end)
	// windows of virtual time: no placements, grants or migrations reach
	// them. Work already on the cluster keeps running — a partition cuts
	// scheduling traffic, not execution.
	Partitions []scenario.PartitionWindow

	loads []cluster.LoadInfo // Loads' buffer
}

// Loads returns the fleet's load vector at virtual time now, in a
// buffer the next call reuses. Clusters behind an open partition window
// are masked to a zero LoadInfo so every router skips them.
func (f *Fleet) Loads(now float64) []cluster.LoadInfo {
	f.loads = f.loads[:0]
	for i, cs := range f.Sims {
		var ld cluster.LoadInfo
		if !scenario.Partitioned(f.Partitions, i, now) {
			ld = cs.Load()
		}
		f.loads = append(f.loads, ld)
	}
	return f.loads
}

// Grant hands stock tasks, from its head, to the clusters per the
// router's fill rule and returns what stays in the stock. Partitioned
// clusters are skipped even when the router's remainder arithmetic
// grants them tasks (their loads are masked, but e.g. the decentralized
// largest-remainder loop spreads over every index); the skipped tasks
// stay in the stock.
func (f *Fleet) Grant(now float64, stock []cluster.BETask) []cluster.BETask {
	if len(stock) == 0 {
		return stock
	}
	for i, n := range f.Router.Grants(f.Loads(now), len(stock)) {
		if !scenario.Partitioned(f.Partitions, i, now) {
			stock = f.give(i, n, stock)
		}
	}
	return stock
}

// give hands up to n tasks from the head of stock to cluster i and
// returns what stays in the stock.
func (f *Fleet) give(i, n int, stock []cluster.BETask) []cluster.BETask {
	for ; n > 0 && len(stock) > 0; n-- {
		f.Sims[i].SubmitBestEffort(stock[0])
		stock = stock[1:]
	}
	return stock
}

// Migrate runs one exchange round of the router's and returns the
// number of jobs moved (0 for a router that is not an Exchanger). For
// each Move the exchanger proposes, it steals up to N jobs from the
// tail of Src's queue and injects each into Dst, or back home when it
// does not fit there or Dst refuses it; onMigrate, when set, observes
// every job that moved, and the exchanger hears what became of the Move
// before it proposes the next. A Move touching a partitioned cluster
// is dropped: the masked loads keep senders quiet, but an idle
// partitioned cluster can still surface as the argmin destination.
func (f *Fleet) Migrate(now float64, onMigrate func(j *workload.Job, src, dst int, now float64)) int {
	ex, ok := f.Router.(Exchanger)
	if !ok {
		return 0
	}
	total := 0
	ex.Begin(f.Loads(now))
	for mv, ok := ex.Next(); ok; mv, ok = ex.Next() {
		var stolen []*workload.Job
		if mv.Src != mv.Dst && mv.Src >= 0 && mv.Dst >= 0 &&
			mv.Src < len(f.Sims) && mv.Dst < len(f.Sims) &&
			!scenario.Partitioned(f.Partitions, mv.Src, now) &&
			!scenario.Partitioned(f.Partitions, mv.Dst, now) {
			stolen = f.Sims[mv.Src].StealQueued(mv.N)
		}
		moved := stolen[:0]
		for _, j := range stolen {
			dst := mv.Dst
			if j.MinProcs > f.Sims[dst].M {
				dst = mv.Src // does not fit; back home
			}
			if err := f.Sims[dst].Submit(j); err != nil {
				_ = f.Sims[mv.Src].Submit(j)
				continue
			}
			if dst == mv.Dst {
				moved = append(moved, j)
				if onMigrate != nil {
					onMigrate(j, mv.Src, dst, now)
				}
			}
		}
		total += len(moved)
		ex.Moved(mv, len(stolen), moved)
	}
	return total
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
