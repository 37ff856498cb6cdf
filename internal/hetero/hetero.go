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

	buckets := make([][]*workload.Job, len(g.Clusters))
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
			buckets[big] = append(buckets[big], j)
			asg.JobCluster[j.ID] = big
		}
	case RoundRobin:
		k := 0
		for _, j := range jobs {
			for tries := 0; tries < len(g.Clusters); tries++ {
				i := (k + tries) % len(g.Clusters)
				if fits(j, g.Clusters[i]) {
					buckets[i] = append(buckets[i], j)
					asg.JobCluster[j.ID] = i
					k = i + 1
					break
				}
			}
		}
	default: // SpeedAwareLPT
		// Order by minimal work on the widest cluster, largest first.
		ordered := make([]workload.Keyed, len(jobs))
		widest := maxProcs(g)
		for i, j := range jobs {
			w, _ := j.MinWork(widest)
			ordered[i] = workload.Keyed{Key: w, ID: j.ID, Pos: i}
		}
		workload.SortKeyed(ordered, true)
		load := make([]float64, len(g.Clusters)) // normalized drain time
		for _, o := range ordered {
			j := jobs[o.Pos]
			best := -1
			var bestCost, bestWork float64
			for i, c := range g.Clusters {
				if !fits(j, c) {
					continue
				}
				// Estimated completion on cluster i: the area term (queue
				// drain plus this job's work) or the job's own critical
				// time on that cluster's speed, whichever binds. Pure
				// area balancing would park long jobs on slow clusters
				// and lose to the critical path.
				jc := j.Cost(c.Procs())
				w, _ := jc.MinWork()
				tm, _ := jc.MinTime()
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
			buckets[best] = append(buckets[best], j)
			asg.JobCluster[j.ID] = best
		}
	}

	// Per-cluster MRT, then scale to real time by the cluster speed.
	asg.PerCluster = make([]*sched.Schedule, len(g.Clusters))
	for i, bucket := range buckets {
		c := g.Clusters[i]
		if len(bucket) == 0 {
			asg.PerCluster[i] = sched.New(c.Procs())
			continue
		}
		res, err := moldable.MRT(bucket, c.Procs(), eps)
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
