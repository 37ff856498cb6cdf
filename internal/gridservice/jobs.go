// Job wire types of the broker: the POST /v1/jobs payload and the job,
// queue and per-cluster statistics records /v1/jobs, /v1/queue and
// /v1/stats answer with.
package gridservice

import (
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// JobSpec is the submission payload (HTTP body of POST /v1/jobs). Rigid
// jobs set min_procs only; moldable jobs set max_procs > min_procs and
// are priced with an Amdahl speedup (alpha defaulting to 0.05).
type JobSpec struct {
	Name  string `json:"name,omitempty"`
	Class string `json:"class,omitempty"`
	// Cluster pins the job to a named cluster of the broker's fleet: the
	// CiGri contract that local users submit to their own machine. Empty
	// lets the grid policy place the job; an unknown name is rejected.
	Cluster  string  `json:"cluster,omitempty"`
	SeqTime  float64 `json:"seq_time"`
	MinProcs int     `json:"min_procs,omitempty"` // 0 → 1
	MaxProcs int     `json:"max_procs,omitempty"` // 0 → min_procs
	Weight   float64 `json:"weight,omitempty"`    // 0 → 1
	DueDate  float64 `json:"due_date,omitempty"`  // <= 0 → no due date
	Release  float64 `json:"release,omitempty"`   // absolute virtual time; past → now
	Alpha    float64 `json:"alpha,omitempty"`     // Amdahl sequential fraction
}

// Job materializes the spec as a workload.Job with the given ID.
func (sp JobSpec) Job(id int) (*workload.Job, error) {
	min := sp.MinProcs
	if min <= 0 {
		min = 1
	}
	max := sp.MaxProcs
	if max <= 0 {
		max = min
	}
	kind := workload.Rigid
	if max > min {
		kind = workload.Moldable
	}
	alpha := sp.Alpha
	if alpha <= 0 {
		alpha = 0.05
	}
	weight := sp.Weight
	if weight == 0 {
		weight = 1
	}
	due := sp.DueDate
	if due <= 0 {
		due = -1
	}
	release := sp.Release
	if release < 0 {
		release = 0
	}
	var model workload.SpeedupModel = workload.Linear{}
	if kind == workload.Moldable {
		model = workload.Amdahl{Alpha: alpha}
	}
	j := &workload.Job{
		ID: id, Name: sp.Name, Class: sp.Class, Kind: kind,
		Release: release, Weight: weight, DueDate: due,
		SeqTime: sp.SeqTime, MinProcs: min, MaxProcs: max, Model: model,
	}
	if err := j.Validate(); err != nil {
		return nil, err
	}
	return j, nil
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateWaiting JobState = "waiting"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
)

// JobStatus is the externally visible record of one job. Times are
// virtual (simulation seconds). Cluster names the cluster that runs
// the job in /v1/jobs answers; the per-cluster /v1/queue lists leave it
// out.
type JobStatus struct {
	ID      int      `json:"id"`
	Name    string   `json:"name,omitempty"`
	Class   string   `json:"class,omitempty"`
	State   JobState `json:"state"`
	Release float64  `json:"release"`
	Procs   int      `json:"procs,omitempty"` // allocated processors once running
	Start   float64  `json:"start,omitempty"`
	End     float64  `json:"end,omitempty"`
	Cluster string   `json:"cluster,omitempty"`
}

// QueueSnapshot is one cluster's part of the GET /v1/queue payload.
type QueueSnapshot struct {
	VirtualNow float64     `json:"virtual_now"`
	Waiting    []JobStatus `json:"waiting"`
	Running    []JobStatus `json:"running"`
}

// Stats is one cluster's part of the GET /v1/stats payload.
type Stats struct {
	Policy        string          `json:"policy"`
	M             int             `json:"m"`
	Speed         float64         `json:"speed"`
	Dilation      float64         `json:"dilation"` // 0 = free-running
	VirtualNow    float64         `json:"virtual_now"`
	UptimeSeconds float64         `json:"uptime_seconds"`
	Submitted     int             `json:"submitted"`
	Waiting       int             `json:"waiting"`
	Running       int             `json:"running"`
	Completed     int             `json:"completed"`
	Drained       bool            `json:"drained"`
	BestEffort    cluster.BEStats `json:"best_effort"`
	Report        metrics.Report  `json:"report"`
}
