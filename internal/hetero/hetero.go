// Package hetero schedules Parallel Tasks across a light grid of
// speed-heterogeneous clusters — the uniform-processors view that §2.2
// says the PT model accommodates ("the heterogeneity of computational
// units or communication links can also be considered by uniform or
// unrelated processors") and that §5.2's multi-cluster setting requires.
//
// The algorithm is two-level, matching the paper's architecture: a
// grid-level partitioner assigns each job to one cluster (jobs never
// span clusters — inter-cluster links are slow, the whole premise of the
// light grid), then the §4.1 MRT algorithm schedules each cluster
// independently. The grid makespan is the maximum over clusters.
package hetero

import (
	"fmt"
	"slices"

	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Assignment is the outcome of a grid-level schedule.
type Assignment struct {
	// PerCluster holds one schedule per grid cluster (same order as the
	// grid's cluster list), in job-profile time: divide by the cluster's
	// Speed for real time.
	PerCluster []*sched.Schedule
	// JobCluster maps job ID to its cluster index.
	JobCluster map[int]int
	// Makespan is the grid makespan (max over clusters, in real time).
	Makespan float64
}

// Partition selects the grid-level job-to-cluster rule.
type Partition int

const (
	// SpeedAwareLPT deals jobs in decreasing minimal-work order to the
	// cluster with the lowest accumulated normalized load
	// (work / (procs × speed)) that can hold the job — the natural
	// uniform-machines LPT.
	SpeedAwareLPT Partition = iota
	// LargestOnly sends everything to the cluster with the most
	// processors (the "keep using your biggest machine" baseline).
	LargestOnly
	// RoundRobin deals jobs cyclically over clusters that fit them
	// (the speed-blind baseline).
	RoundRobin
)

// Schedule partitions the jobs over the grid and runs MRT per cluster.
// Moldable profiles are interpreted on the reference speed; each
// cluster's execution scales them by 1/Speed.
func Schedule(jobs []*workload.Job, g *platform.Grid, part Partition, eps float64) (*Assignment, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(g.Clusters) == 0 {
		return nil, fmt.Errorf("hetero: empty grid")
	}
	asg := &Assignment{JobCluster: map[int]int{}}

	// Feasibility: every job must fit in at least one cluster.
	fits := func(j *workload.Job, c *platform.Cluster) bool {
		return j.MinProcs <= c.Procs()
	}
	for _, j := range jobs {
		ok := false
		for _, c := range g.Clusters {
			if fits(j, c) {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("hetero: job %d fits no cluster", j.ID)
		}
	}

	// The partition deals the jobs one at a time: dealt[k] is the cost
	// summary of the k-th job dealt on the width of its cluster to[k].
	dealt := make([]workload.Cost, 0, len(jobs))
	to := make([]int, 0, len(jobs))
	deal := func(j *workload.Job, i int, c workload.Cost) {
		dealt = append(dealt, c)
		to = append(to, i)
		asg.JobCluster[j.ID] = i
	}
	switch part {
	case LargestOnly:
		big := 0
		for i, c := range g.Clusters {
			if c.Procs() > g.Clusters[big].Procs() {
				big = i
			}
		}
		for _, j := range jobs {
			if !fits(j, g.Clusters[big]) {
				return nil, fmt.Errorf("hetero: job %d does not fit the largest cluster", j.ID)
			}
			deal(j, big, j.Cost(g.Clusters[big].Procs()))
		}
	case RoundRobin:
		k := 0
		for _, j := range jobs {
			for tries := 0; tries < len(g.Clusters); tries++ {
				i := (k + tries) % len(g.Clusters)
				if fits(j, g.Clusters[i]) {
					deal(j, i, j.Cost(g.Clusters[i].Procs()))
					k = i + 1
					break
				}
			}
		}
	default: // SpeedAwareLPT
		// Order by minimal work on the widest cluster, largest first.
		widestProcs := maxProcs(g)
		widest := workload.Costs(jobs, widestProcs)
		ordered := make([]workload.Keyed, len(jobs))
		for i, j := range jobs {
			w, _ := widest[i].MinWork()
			ordered[i] = workload.Keyed{Key: w, ID: j.ID, Pos: i}
		}
		workload.SortKeyed(ordered, true)
		load := make([]float64, len(g.Clusters)) // normalized drain time
		// jc[i] is the job's cost summary on cluster i. A job is priced
		// once per distinct width: cluster i reads first[i]'s summary, the
		// first cluster as wide, or for the widest width the summary the
		// order used.
		jc := make([]workload.Cost, len(g.Clusters))
		first := make([]int, len(g.Clusters))
		for i, c := range g.Clusters {
			first[i] = slices.IndexFunc(g.Clusters, func(d *platform.Cluster) bool { return d.Procs() == c.Procs() })
		}
		for _, o := range ordered {
			j := jobs[o.Pos]
			best := -1
			var bestCost, bestWork float64
			for i, c := range g.Clusters {
				if !fits(j, c) {
					continue
				}
				switch {
				case first[i] < i:
					jc[i] = jc[first[i]]
				case c.Procs() == widestProcs:
					jc[i] = widest[o.Pos]
				default:
					jc[i] = j.Cost(c.Procs())
				}
				// Estimated completion on cluster i: the area term (queue
				// drain plus this job's work) or the job's own critical
				// time on that cluster's speed, whichever binds. Pure
				// area balancing would park long jobs on slow clusters
				// and lose to the critical path.
				w, _ := jc[i].MinWork()
				tm, _ := jc[i].MinTime()
				cost := load[i] + w/(float64(c.Procs())*c.Speed)
				if crit := tm / c.Speed; crit > cost {
					cost = crit
				}
				if best < 0 || cost < bestCost {
					best, bestCost, bestWork = i, cost, w
				}
			}
			c := g.Clusters[best]
			load[best] += bestWork / (float64(c.Procs()) * c.Speed)
			deal(j, best, jc[best])
		}
	}

	// Each cluster's MRT input is its jobs' summaries in the order they
	// were dealt: one slice per cluster over one array.
	start := make([]int, len(g.Clusters)+1)
	for _, i := range to {
		start[i+1]++
	}
	for i := range g.Clusters {
		start[i+1] += start[i]
	}
	next := slices.Clone(start[:len(g.Clusters)])
	all := make([]workload.Cost, len(dealt))
	for k, i := range to {
		all[next[i]] = dealt[k]
		next[i]++
	}

	// Per-cluster MRT, then scale to real time by the cluster speed.
	asg.PerCluster = make([]*sched.Schedule, len(g.Clusters))
	for i, c := range g.Clusters {
		bucket := all[start[i]:start[i+1]]
		if len(bucket) == 0 {
			asg.PerCluster[i] = sched.New(c.Procs())
			continue
		}
		res, err := moldable.MRTOf(bucket, c.Procs(), lowerbound.CmaxDualOf(bucket, c.Procs()), eps)
		if err != nil {
			return nil, fmt.Errorf("hetero: cluster %s: %w", c.Name, err)
		}
		asg.PerCluster[i] = res.Schedule
		if mk := res.Schedule.Makespan() / c.Speed; mk > asg.Makespan {
			asg.Makespan = mk
		}
	}
	return asg, nil
}

func maxProcs(g *platform.Grid) int {
	mx := 0
	for _, c := range g.Clusters {
		if c.Procs() > mx {
			mx = c.Procs()
		}
	}
	return mx
}

// LowerBound returns a grid makespan lower bound: total minimal work over
// aggregate speed-weighted capacity, and the fastest-cluster critical job.
func LowerBound(jobs []*workload.Job, g *platform.Grid) float64 {
	var capacity float64 // processor-speed units
	fastest := 0.0
	biggest := 0
	for _, c := range g.Clusters {
		capacity += float64(c.Procs()) * c.Speed
		if c.Speed > fastest {
			fastest = c.Speed
		}
		if c.Procs() > biggest {
			biggest = c.Procs()
		}
	}
	var work float64
	critical := 0.0
	for _, j := range jobs {
		c := j.Cost(biggest)
		w, _ := c.MinWork()
		work += w
		t, _ := c.MinTime()
		if t/fastest > critical {
			critical = t / fastest
		}
	}
	area := work / capacity
	if critical > area {
		return critical
	}
	return area
}

// Validate checks the assignment: every cluster schedule valid, every
// job placed exactly once, widths respected.
func (a *Assignment) Validate(jobs []*workload.Job, g *platform.Grid) error {
	seen := map[int]bool{}
	for i, s := range a.PerCluster {
		if s.M != g.Clusters[i].Procs() {
			return fmt.Errorf("hetero: cluster %d schedule width %d != %d", i, s.M, g.Clusters[i].Procs())
		}
		if err := s.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
			return fmt.Errorf("hetero: cluster %d: %w", i, err)
		}
		for _, al := range s.Allocs {
			if seen[al.Job.ID] {
				return fmt.Errorf("hetero: job %d scheduled twice", al.Job.ID)
			}
			seen[al.Job.ID] = true
			if a.JobCluster[al.Job.ID] != i {
				return fmt.Errorf("hetero: job %d mapped to cluster %d but scheduled on %d",
					al.Job.ID, a.JobCluster[al.Job.ID], i)
			}
		}
	}
	for _, j := range jobs {
		if !seen[j.ID] {
			return fmt.Errorf("hetero: job %d missing", j.ID)
		}
	}
	return nil
}
