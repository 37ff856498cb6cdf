// Package runtrace records structured per-run event traces. A Recorder
// attaches to the nil-checked observer hooks of a cluster simulation
// (and, via Record, to the grid exchange loop) and captures a compact
// typed event stream: submissions, starts, finishes, kills, requeues,
// crashes, repairs and migrations, each stamped with virtual time, job
// id, processor count and cluster index.
//
// The package is pay-for-what-you-use: a nil *Recorder is a valid
// no-op, every hook installed by Attach exists only when tracing was
// requested, and events are fixed-size values appended to one slice —
// no per-event allocation beyond slice growth.
package runtrace

import (
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// EventType enumerates the recorded event kinds.
type EventType uint8

const (
	// EvSubmit marks a local job entering a waiting queue (first
	// arrival or migration injection at the destination).
	EvSubmit EventType = iota
	// EvStart marks a local job beginning execution.
	EvStart
	// EvFinish marks a local job completing.
	EvFinish
	// EvKill marks a running job or best-effort task evicted by a
	// capacity loss.
	EvKill
	// EvRequeue marks a killed local job re-entering its waiting queue.
	EvRequeue
	// EvCrash marks a capacity loss (Procs processors taken offline).
	EvCrash
	// EvRepair marks a capacity return (Procs processors back online).
	EvRepair
	// EvMigrate marks a queued job moved between clusters by the grid
	// exchange round (Cluster is the destination).
	EvMigrate
)

var eventNames = [...]string{
	EvSubmit:  "submit",
	EvStart:   "start",
	EvFinish:  "finish",
	EvKill:    "kill",
	EvRequeue: "requeue",
	EvCrash:   "crash",
	EvRepair:  "repair",
	EvMigrate: "migrate",
}

// String returns the wire name of the event type ("submit", ...).
func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// EventTypeOf resolves a wire name back to its EventType; ok is false
// for unknown names.
func EventTypeOf(name string) (EventType, bool) {
	for i, n := range eventNames {
		if n == name {
			return EventType(i), true
		}
	}
	return 0, false
}

// Event is one recorded simulation event. The layout is deliberately
// compact (24 bytes) so multi-million-event traces stay cheap: virtual
// time, a job id (-1 for events that are not job-scoped, e.g. crash and
// repair), a processor count, the event type and the cluster index into
// the owning trace's Clusters list.
type Event struct {
	T       float64
	Job     int32
	Procs   int32
	Type    EventType
	Cluster uint8
}

// ClusterInfo describes one traced cluster: a human label (empty for a
// single anonymous cluster) and its processor count.
type ClusterInfo struct {
	Name string `json:"name,omitempty"`
	M    int    `json:"m"`
}

// CellTrace is the finished trace of one cell sub-run: the cell index
// in row-major table order, a label distinguishing sub-runs that share
// a cell (usually the policy name), the traced clusters, the event
// stream in simulation order, and how many events were dropped once the
// recorder's cap was reached.
type CellTrace struct {
	Cell     int
	Label    string
	Clusters []ClusterInfo
	Events   []Event
	Dropped  int
}

// Recorder accumulates events for one cell sub-run. The zero value is
// unusable; construct with NewRecorder. A nil *Recorder is a valid
// no-op receiver for every method, so callers can thread an optional
// recorder without branching.
type Recorder struct {
	clusters []ClusterInfo
	events   []Event
	max      int
	dropped  int
}

// NewRecorder returns a recorder bounded to maxEvents (0 = unlimited).
// Once the cap is reached further events are counted as dropped rather
// than stored, so a runaway scenario cannot exhaust memory.
func NewRecorder(maxEvents int) *Recorder {
	return &Recorder{max: maxEvents}
}

// Record appends one event. Job is the job id (-1 when not job-scoped)
// and clusterIdx indexes the Attach order.
func (r *Recorder) Record(t float64, typ EventType, job, procs, clusterIdx int) {
	if r == nil {
		return
	}
	if r.max > 0 && len(r.events) >= r.max {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{
		T: t, Job: int32(job), Procs: int32(procs),
		Type: typ, Cluster: uint8(clusterIdx),
	})
}

// Attach registers the cluster under the given label and sets the
// simulation's OnLocalSubmit, OnLocalStart, OnLocalDone, OnLocalKilled,
// OnCrash and OnRepair hooks to record into r, replacing any set before.
// OnBEKilled is chained instead: grid routers and the faults kind set it
// before tracing attaches. It returns the cluster index used for the
// recorded events, or -1 on a nil recorder.
func (r *Recorder) Attach(s *cluster.Sim, label string) int {
	if r == nil {
		return -1
	}
	ci := len(r.clusters)
	r.clusters = append(r.clusters, ClusterInfo{Name: label, M: s.M})

	s.OnLocalSubmit = func(j *workload.Job, now float64) {
		r.Record(now, EvSubmit, j.ID, j.MinProcs, ci)
	}
	s.OnLocalStart = func(j *workload.Job, procs int, now float64) {
		r.Record(now, EvStart, j.ID, procs, ci)
	}
	s.OnLocalDone = func(c metrics.Completion) {
		r.Record(c.End, EvFinish, c.Job.ID, c.Procs, ci)
	}
	s.OnLocalKilled = func(j *workload.Job, procs int, now float64) {
		r.Record(now, EvKill, j.ID, procs, ci)
		r.Record(now, EvRequeue, j.ID, j.MinProcs, ci)
	}
	prevBEKilled := s.OnBEKilled
	s.OnBEKilled = func(t cluster.BETask) {
		// Best-effort task indexes live in a different id space from
		// local job ids, so the kill is recorded as non-job-scoped.
		r.Record(s.DES.Now(), EvKill, -1, 1, ci)
		if prevBEKilled != nil {
			prevBEKilled(t)
		}
	}
	s.OnCrash = func(procs int, now float64) {
		r.Record(now, EvCrash, -1, procs, ci)
	}
	s.OnRepair = func(procs int, now float64) {
		r.Record(now, EvRepair, -1, procs, ci)
	}
	return ci
}

// Finish seals the recorder into a CellTrace for the given cell index
// and label. The recorder must not be used afterwards. Nil recorders
// return a zero trace.
func (r *Recorder) Finish(cell int, label string) CellTrace {
	if r == nil {
		return CellTrace{Cell: cell, Label: label}
	}
	return CellTrace{
		Cell:     cell,
		Label:    label,
		Clusters: r.clusters,
		Events:   r.events,
		Dropped:  r.dropped,
	}
}

// Totals counts events by type for invariant checks and summaries.
type Totals struct {
	Submits, Finishes, Kills, Migrates int
}

// Totals tallies the trace's events by type.
func (tr *CellTrace) Totals() Totals {
	var n Totals
	for _, e := range tr.Events {
		switch e.Type {
		case EvSubmit:
			n.Submits++
		case EvFinish:
			n.Finishes++
		case EvKill:
			n.Kills++
		case EvMigrate:
			n.Migrates++
		}
	}
	return n
}

// Capacity sums the traced clusters' processor counts.
func (tr *CellTrace) Capacity() int {
	m := 0
	for _, c := range tr.Clusters {
		m += c.M
	}
	return m
}
