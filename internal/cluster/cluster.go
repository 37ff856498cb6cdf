// Package cluster is the event-driven single-cluster simulator: local
// jobs arrive online into a submission queue, a pluggable policy decides
// starts, and — following the CiGri design of §5.2 — best-effort grid
// tasks fill the remaining holes and are killed (and handed back to the
// grid) whenever a local job needs their processors. Local jobs can never
// be delayed by best-effort work.
package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/rigid"
	"repro/internal/workload"
)

// ErrDrained rejects submissions into a simulation whose event stream has
// already drained: the DES clock cannot accept arrivals once Run has
// returned (previously such submissions were silently queued into events
// that would never fire, or double-ran the heap). Check with errors.Is.
var ErrDrained = errors.New("cluster: simulation drained; no further submissions accepted")

// Decision is one start decision of a policy: run Job on Procs
// processors now.
//
// at names Job's slot: 1 + its index in View.Queue when the policy
// decided, or 0 when that is unknown. The shipped policies fill it in, so
// that Sim.start takes the job from its slot instead of searching the
// queue for it; a policy from outside the package leaves it zero, and the
// Sim searches. A start leaves a hole in its slot and moves no other job
// (see View.Queue), so every decision of one call names its slot as the
// policy saw it, whatever was started before it. A slot that does not hold
// the job — an observer that edited the queue inside a start, or a
// decision that named the wrong slot — sends the Sim to the search as
// well. The job is matched by pointer, and no admission path in the module
// queues a pointer that is already queued: each submits a job it has just
// made, or one StealQueued has just taken out of another queue. A pointer
// queued twice would leave from the slot at names, or, searched for, from
// its first slot.
//
// pos names Job's entry in its lane of View.Index in the same way, 1 + its
// position there, for a job a backfill search found (QueueIndex.next), or
// 0. The start hands it to the index's removal, which searches the lane
// when the entry there is not Job's: a decision an observer makes from
// inside a start may rebuild the lane under the outer decision's later
// starts.
type Decision struct {
	Job   *workload.Job
	Procs int
	at    int
	pos   int
}

// View is the state snapshot handed to a policy. Avail counts free
// processors plus processors held by evictable best-effort tasks: the
// §5.2 contract is that local jobs behave as if grid jobs did not exist.
//
// A view is the simulator's own state, lent for one decision and copied
// from nothing: Queue is the live waiting queue, and the profile, Plan,
// Index and Scratch are kept from one decision to the next. A shipped
// policy records in each Decision the slot in Queue of the job it
// decided (see Decision); a policy from elsewhere cannot, and the Sim
// then finds the job by searching Queue.
// Policies read Queue and the profile, never write them, and keep
// nothing of the view past Decide — the starts that follow a decision
// edit it in place. A policy that wraps another (tracing, auditing) hands
// the view on unchanged.
type View struct {
	Now   float64
	Avail int
	Speed float64
	// Queue lends the waiting queue's slots in submission order. A nil
	// slot is a hole: its job started, or was stolen, since the queue was
	// last compacted. A job keeps its slot until then, so a start moves no
	// other job. The Sim trims the holes at either end and compacts the
	// slots, in one pass, once holes outnumber the jobs queued — before a
	// decision or once its starts are all made, never between them — so a
	// policy sees len(Queue) at most twice the jobs queued, and every
	// policy skips the holes.
	Queue []*workload.Job
	// Plan is the cluster's persistent conservative-backfilling plan (see
	// Plan and ConservativePolicy). ConservativePolicy extends it in place
	// at every decision; every other policy ignores it. Deciding on a view
	// without starting what was decided is allowed — the next decision
	// notices the jobs still queued and plans again — but nothing else may
	// be done with the plan from inside Decide. The Sim invalidates it at
	// every change of capacity: a crash, a repair or a SetAvailability
	// step, whether or not the working count moves (with the requeue of the
	// jobs a loss kills); at StealQueued, which may take a planned job; and
	// at the start of a job the last decision did not find due. The policy
	// notices the two other edits of the queue — a refused start, an
	// arrival — on its own (see Plan).
	Plan *Plan
	// Index is the cluster's persistent index of Queue (see QueueIndex),
	// which EASYPolicy and GreedyFitPolicy search instead of walking the
	// queue; every other policy ignores it. A search first indexes the
	// jobs appended to the queue since the last one and changes nothing
	// else, so deciding twice on one view, or deciding without starting
	// what was decided, is allowed. In return the owner of the queue
	// removes from the index every job it removes from the queue — the Sim
	// does in start and StealQueued; arrivals and the requeue of a killed
	// job append to the tail and need nothing — and never reorders the
	// queue.
	Index *QueueIndex
	// Scratch is an empty slice with room to spare that Decide may append
	// its decisions to and return instead of allocating one. The Sim lends
	// the same memory to every decision and zeroes it once the decided
	// jobs have started, so a policy must not keep it, or anything
	// returned out of it, past Decide.
	Scratch []Decision

	// seqs[i] is the arrival number of Queue[i], hole or not: strictly
	// increasing, so a job's slot is a binary search away (slot), and
	// stable across compactions, so the index and the plan name jobs by
	// it.
	seqs []uint64
	// sim is the Sim that lent the view, whose profile Profile brings up
	// to date; a view built by hand (in a test) has none and carries
	// profile instead.
	sim     *Sim
	profile *rigid.Profile
}

// slot returns 1 + the index in Queue of the slot with arrival number
// seq, the position a Decision records, or 0 if no slot has it.
func (v View) slot(seq uint64) int {
	i, ok := slices.BinarySearch(v.seqs, seq)
	if !ok {
		return 0
	}
	return i + 1
}

// behind returns the first slot whose arrival number is above last,
// or len(seqs) if none is: a walk back from the tail, which costs one
// step per slot behind last — the slots a caller then visits anyway.
func behind(seqs []uint64, last uint64) int {
	i := len(seqs)
	for i > 0 && seqs[i-1] > last {
		i--
	}
	return i
}

// nextLive returns the index of the first job in queue at or after i, or
// len(queue) if only holes are left.
func nextLive(queue []*workload.Job, i int) int {
	for i < len(queue) && queue[i] == nil {
		i++
	}
	return i
}

// Profile returns the cluster's persistent availability profile at Now:
// every running local job holds a reservation until its end and every
// capacity loss one until its repair time. The Sim keeps it up to date
// only when it is read — a policy that never calls Profile pays nothing
// for it — so a policy fetches it when it needs it, not on entry.
// Policies must treat it as read-only — what-if reservations go into a
// (pooled) Clone, taken when there is one to write.
func (v View) Profile() *rigid.Profile {
	if v.sim != nil {
		return v.sim.syncedProfile()
	}
	return v.profile
}

// Duration returns the execution time of job j on p processors on this
// cluster (profile time divided by the cluster speed factor).
func (v View) Duration(j *workload.Job, p int) float64 {
	return j.TimeOn(p) / v.Speed
}

// Policy decides which queued jobs start now. Implementations must only
// start jobs that fit in v.Avail and must not start a job twice. The Sim
// decides only once every repair due now has fired (see reschedule), so
// v.Avail and the profile count the same processors. The slice returned
// passes to the caller (see View.Scratch).
type Policy interface {
	Name() string
	Decide(v View) []Decision
}

// KillPolicy selects which best-effort tasks die when a local job needs
// processors (§5.2: "the latter will be killed").
type KillPolicy int

const (
	// KillNewest evicts the most recently started tasks first (least
	// sunk work — the CiGri-friendly default).
	KillNewest KillPolicy = iota
	// KillLargestRemaining evicts tasks with the most remaining work
	// first (frees capacity for longest, maximizes wasted work — the
	// adversarial ablation).
	KillLargestRemaining
)

// ParseKillPolicy resolves a kill-policy name: "newest" (the default,
// also for "") or "largest".
func ParseKillPolicy(name string) (KillPolicy, error) {
	switch name {
	case "", "newest":
		return KillNewest, nil
	case "largest":
		return KillLargestRemaining, nil
	}
	return KillNewest, fmt.Errorf("unknown kill policy %q (newest|largest)", name)
}

// BETask is one elementary run of a multi-parametric grid campaign.
type BETask struct {
	BagID    int
	Duration float64 // at reference speed 1.0
	// Resubmits counts how many times this task has been killed and
	// handed back for redistribution (killOneBE increments it before the
	// OnBEKilled handoff, so a task arriving with Resubmits > 0 is a
	// redistribution — the BEStats.Redistributed signal).
	Resubmits int
}

// LoadInfo is one cluster's load at an instant (Sim.Load): what a grid
// router reads to place jobs, grant campaign tasks and pick migrations.
type LoadInfo struct {
	// M and Speed are the static cluster dimensions.
	M     int
	Speed float64
	// Free is the physically free processor count.
	Free int
	// Queued and QueuedWork describe the waiting local jobs (work at
	// reference speed, the §5.2 load-balance signal).
	Queued     int
	QueuedWork float64
	// BEQueued and BEActive count waiting / running best-effort tasks.
	BEQueued, BEActive int
}

// NormLoad returns the normalized queued load: time to drain the waiting
// work on the full cluster (QueuedWork / (M × Speed)).
func (l LoadInfo) NormLoad() float64 {
	if l.M <= 0 || l.Speed <= 0 {
		return 0
	}
	return l.QueuedWork / (float64(l.M) * l.Speed)
}

// BEStats aggregates the best-effort activity of one cluster. It is an
// alias of the metrics type so Sim.Report can carry it without copying
// field by field.
type BEStats = metrics.BestEffortStats

// FaultStats aggregates the fault-injection activity of one cluster
// (alias of the metrics type, see BEStats).
type FaultStats = metrics.FaultStats

// availHorizon is the finite "forever" used for open-ended capacity
// reservations (SetAvailability has no known repair time): far beyond
// any simulation horizon but still a normal float, so the resource
// profile stays free of infinities.
const availHorizon = 1e15

// outage is one transient capacity loss with a known repair time.
type outage struct {
	procs int
	until float64
}

type beRunning struct {
	task  BETask
	start float64
	end   float64
	seq   uint64
	// event generation guard: a killed task's finish event must not fire.
	cancelled bool
	// fire is the pre-built finish callback, created once per pooled
	// instance so refilling a hole costs no closure allocation.
	fire func()
}

// Sim simulates one cluster.
type Sim struct {
	DES    *des.Simulator
	M      int
	Speed  float64
	policy Policy
	kill   KillPolicy

	queue waitQueue
	// queuedWork tallies the queue's total minimal work incrementally for
	// Load, its only reader, and is kept only while tallying is set:
	// TallyQueuedWork seeds it from the queue. QueuedWork() recomputes it
	// exactly.
	queuedWork float64
	tallying   bool
	localProcs int
	// running holds the running local jobs in no particular order, split
	// in two: running[:reserved] are in the profile, running[reserved:]
	// started since it was last read. A record that leaves gives its slot
	// to the last record of its part (unrun), and each record's seq, drawn
	// from runSeq at its start, keeps the start order.
	running  []*localRunning
	reserved int
	runSeq   uint64
	// acc streams every completion through the one-pass §3 criteria
	// report; retain decides which records are kept (full history by
	// default — goldens, tests and the offline tables read it — or a
	// bounded/empty store for archive replays, see SetRetention).
	acc    *metrics.Accumulator
	retain metrics.Retention

	// Lazy-admission state (Stream): src reads the attached source ahead
	// and yields its jobs in release order, source is kept for its Err,
	// pending is the head waiting for its release event, srcErr records
	// a mid-stream failure surfaced by Run.
	source   workload.Source
	src      *workload.Ahead[*workload.Job]
	pending  *workload.Job
	srcErr   error
	arriveFn func()

	// profile is the persistent availability timeline of the local jobs
	// and the capacity losses, brought up to date only when a policy reads
	// it through View.Profile (syncedProfile): the read reserves the jobs
	// started since the last one and trims history, and a reservation
	// expires on its own, so a finish costs nothing. stale marks a change
	// of capacity since the last read, after which the read rebuilds the
	// profile instead.
	profile *rigid.Profile
	stale   bool
	// plan is the conservative-backfilling plan kept across decisions and
	// handed to the policy through View.Plan; it stays empty under every
	// other policy. Every change of capacity invalidates it (see View.Plan).
	plan Plan
	// index is the backfill index of queue handed to the policy through
	// View.Index; it stays empty until a policy searches it. dequeue keeps
	// it in step with the queue.
	index QueueIndex
	// runFree holds localRunning records whose finish event has fired, for
	// start to use again.
	runFree []*localRunning
	// decisions is the memory behind View.Scratch, empty and zeroed between
	// decisions; nil while a decision's starts are being made.
	decisions []Decision
	// reschedulePending coalesces best-effort submission bursts into one
	// zero-delay reschedule event.
	reschedulePending bool

	beQueue   []BETask
	beActive  []*beRunning
	beFree    []*beRunning // recycled after their finish event has fired
	beSeq     uint64
	beStats   BEStats
	submitted int
	drained   bool

	// Fault-injection state. avail is the number of currently working
	// processors (M while healthy — the only cost on the healthy hot
	// path is reading this field instead of the M constant); outages are
	// the active transient capacity losses (known repair times) and
	// traceDown the open-ended capacity loss set by SetAvailability.
	// availSince anchors the DownProcSeconds integration.
	avail      int
	traceDown  int
	outages    []*outage
	availSince float64
	faultStats FaultStats

	// OnBEKilled, when set, receives killed tasks (the grid server
	// resubmits them). OnBEDone receives completed tasks.
	OnBEKilled func(t BETask)
	OnBEDone   func(t BETask)
	// OnIdle, when set, is invoked after every reschedule with the
	// number of free processors (the grid server refills holes).
	OnIdle func(free int)
	// OnLocalStart, when set, observes every local-job start (the gridd
	// service tracks job lifecycles through it).
	OnLocalStart func(j *workload.Job, procs int, now float64)
	// OnLocalDone, when set, observes every local-job completion in
	// event order.
	OnLocalDone func(c metrics.Completion)
	// OnLocalSubmit, when set, observes every local-job admission into
	// the waiting queue (direct submission, streamed arrival, or
	// migration injection). Crash-kill requeues are reported through
	// OnLocalKilled instead, so submit observers count each job once.
	OnLocalSubmit func(j *workload.Job, now float64)
	// OnLocalKilled, when set, observes a running local job evicted by
	// a capacity loss; the job is requeued at the tail of the waiting
	// queue with its release date intact.
	OnLocalKilled func(j *workload.Job, procs int, now float64)
	// OnCrash and OnRepair, when set, observe capacity-loss and
	// capacity-return events with the processor count taken/returned.
	OnCrash  func(procs int, now float64)
	OnRepair func(procs int, now float64)
}

// waitQueue is the waiting queue of local jobs: slots in arrival order,
// each with the arrival number its job got when it was queued. A job
// that leaves — a start, a steal — leaves a hole (a nil slot) and moves
// no other job. tidy trims the holes at either end and compacts the
// slots and their numbers in one pass once holes outnumber live jobs, so
// that len(jobs) <= 2·live after every tidy, at amortised O(1) per job
// that leaves: a compaction copies at most 2·holes slots and leaves none.
type waitQueue struct {
	jobs []*workload.Job
	// seqs[i] is the arrival number of jobs[i]: strictly increasing, from
	// 1, and never reused.
	seqs []uint64
	live int    // non-nil slots
	last uint64 // the highest arrival number handed out
}

// push queues j at the tail under the next arrival number.
func (q *waitQueue) push(j *workload.Job) {
	q.last++
	q.jobs = append(q.jobs, j)
	q.seqs = append(q.seqs, q.last)
	q.live++
}

// tidy trims the holes at either end — when none is left, the slots
// start again at the front of their array — and compacts the rest when
// holes outnumber live jobs. A queue without holes, the common case on
// a cluster that keeps up, costs one comparison.
func (q *waitQueue) tidy() {
	if len(q.jobs) > q.live {
		q.trim()
	}
}

// trim is tidy for a queue that holds a hole.
func (q *waitQueue) trim() {
	if q.live == 0 {
		q.jobs, q.seqs = q.jobs[:0], q.seqs[:0]
		return
	}
	lo, hi := nextLive(q.jobs, 0), len(q.jobs)
	for q.jobs[hi-1] == nil {
		hi--
	}
	q.jobs, q.seqs = q.jobs[lo:hi], q.seqs[lo:hi]
	if len(q.jobs) <= 2*q.live {
		return
	}
	k := 0
	for i, j := range q.jobs {
		if j != nil {
			q.jobs[k], q.seqs[k] = j, q.seqs[i]
			k++
		}
	}
	clear(q.jobs[k:])
	q.jobs, q.seqs = q.jobs[:k], q.seqs[:k]
}

type localRunning struct {
	job   *workload.Job
	procs int
	start float64
	end   float64
	// at is the record's index in Sim.running, seq its start number.
	at  int
	seq uint64
	// cancelled guards the pending finish event of a job killed by a
	// crash: the event still fires but must not complete the job.
	cancelled bool
	// fire is the finish callback, built once per record (see beRunning).
	// A record has exactly one finish event pending from its start until
	// that event fires, killed or not, and goes back to runFree only then:
	// handed out earlier, it would be finished by the stale event.
	fire func()
}

// New creates a cluster simulator. speed scales all execution times
// (CIMENT clusters differ in processor generation); policy decides local
// starts.
func New(sim *des.Simulator, m int, speed float64, policy Policy, kill KillPolicy) (*Sim, error) {
	if m <= 0 {
		return nil, fmt.Errorf("cluster: %d processors", m)
	}
	if speed <= 0 {
		return nil, fmt.Errorf("cluster: speed %v", speed)
	}
	if policy == nil {
		return nil, fmt.Errorf("cluster: nil policy")
	}
	if sim == nil {
		sim = des.New()
	}
	s := &Sim{
		DES: sim, M: m, Speed: speed, policy: policy, kill: kill,
		profile: rigid.NewProfile(m),
		acc:     metrics.NewAccumulator(m),
		retain:  metrics.NewFullRetention(),
		avail:   m,
	}
	return s, nil
}

// TallyQueuedWork keeps the queue's total minimal work as a running
// tally, so Load answers in O(1) instead of summing the queue (the gridd
// broker routes every submission on it; batch simulations skip the
// per-job cost). The tally starts as the sum over the queue in queue
// order, which is 0 when it is turned on before the simulation runs, as
// the broker does.
func (s *Sim) TallyQueuedWork() {
	s.tallying = true
	s.queuedWork = s.QueuedWork()
}

// tally adds sign × j's minimal work to the queued-work tally when
// tallying is on, and does nothing otherwise.
func (s *Sim) tally(j *workload.Job, sign float64) {
	if !s.tallying {
		return
	}
	w, _ := j.MinWork(s.M)
	s.queuedWork += sign * w
	if s.queuedWork < 0 {
		s.queuedWork = 0 // float drift guard
	}
}

// Load returns the cluster's load now. QueuedWork is the running tally
// once TallyQueuedWork turned it on, and the exact sum over the queue
// otherwise.
func (s *Sim) Load() LoadInfo {
	w := s.queuedWork
	if !s.tallying {
		w = s.QueuedWork()
	}
	return LoadInfo{
		M: s.M, Speed: s.Speed, Free: s.free(),
		Queued: s.queue.live, QueuedWork: w,
		BEQueued: len(s.beQueue), BEActive: len(s.beActive),
	}
}

// admit appends one job to the waiting queue from event context and
// reschedules.
func (s *Sim) admit(j *workload.Job) {
	s.enqueue(j)
	s.reschedule()
}

// enqueue appends one job to the waiting queue. All three admission
// paths (Submit, streamed arrival, InjectNow) funnel through here so
// OnLocalSubmit observers see every arrival.
func (s *Sim) enqueue(j *workload.Job) {
	s.queue.push(j)
	s.tally(j, 1)
	if s.OnLocalSubmit != nil {
		s.OnLocalSubmit(j, s.DES.Now())
	}
}

// Submit registers a local job: it arrives at its release date.
func (s *Sim) Submit(j *workload.Job) error {
	if s.drained {
		return ErrDrained
	}
	if j.MinProcs > s.M {
		return fmt.Errorf("cluster: job %d needs %d > %d procs", j.ID, j.MinProcs, s.M)
	}
	s.submitted++
	return s.DES.At(math.Max(j.Release, s.DES.Now()), func() {
		s.admit(j)
	})
}

// readAheadBatch is the look-ahead size: the reader keeps at most twice
// as many jobs read and not yet admitted, in eight buffers of a quarter
// as many. Replaying 100 000 SWF jobs on a 2-core host
// (BenchmarkReplayMillionJobs, medians of 8 runs of 10), sizes of 64,
// 512, 1024 and 4096 took 47, 50, 47 and 46 ms, each inside the others'
// quartiles.
const readAheadBatch = 1024

// Stream attaches a pull source for lazy admission: instead of one
// pre-scheduled arrival event per job, the simulator keeps exactly one
// pending arrival — the stream head — and pulls the next job when that
// event fires. One producer goroutine reads the source ahead for the
// whole stream, at most 2 × readAheadBatch jobs past the last one taken
// (see workload.Ahead), so peak memory is
// O(active jobs + 2 × readAheadBatch) regardless of stream length (a
// 64-job slab of trace.SWFJobSource lives while any of its jobs does: at
// worst 64 job structs per active job, the same bound when jobs finish
// roughly in submission order). Jobs are admitted at max(Release, now);
// sources should yield non-decreasing releases (all workload generators
// and sorted SWF archives do), out-of-order jobs are admitted as soon as
// they surface. Arrival groups sharing a release admit inside a single
// event, which decides once. If the source implements Err() error, a
// mid-stream failure aborts admission and surfaces from Run. Once Run or
// a failed Stream returns, no goroutine touches the source any more.
func (s *Sim) Stream(src workload.Source) error {
	if s.drained {
		return ErrDrained
	}
	if src == nil {
		return fmt.Errorf("cluster: nil source")
	}
	if s.src != nil || s.pending != nil {
		return fmt.Errorf("cluster: a source is already streaming")
	}
	if s.arriveFn == nil {
		s.arriveFn = s.arrive
	}
	s.source, s.src = src, workload.NewAhead(src.Next, readAheadBatch)
	s.pull()
	if err := s.scheduleArrival(); err != nil {
		s.endStream()
		return err
	}
	return nil
}

// pull advances the stream head into pending (or ends the stream).
func (s *Sim) pull() {
	j, ok := s.src.Next()
	if !ok {
		// Next has taken the producer's last fill, so reading Err here
		// follows every call the producer made.
		if es, hasErr := s.source.(interface{ Err() error }); hasErr && s.srcErr == nil {
			s.srcErr = es.Err()
		}
		s.endStream()
		return
	}
	if j.MinProcs > s.M {
		if s.srcErr == nil {
			s.srcErr = fmt.Errorf("cluster: job %d needs %d > %d procs", j.ID, j.MinProcs, s.M)
		}
		s.endStream()
		return
	}
	s.pending = j
}

// endStream detaches the source, first waiting for the read-ahead
// producer to return (workload.Ahead.Stop): the caller may close what
// the source reads once the Sim lets go of it.
func (s *Sim) endStream() {
	if s.src != nil {
		s.src.Stop()
	}
	s.source, s.src, s.pending = nil, nil, nil
}

// scheduleArrival schedules the single arrival event for the stream
// head (no-op once the source is exhausted).
func (s *Sim) scheduleArrival() error {
	if s.pending == nil {
		return s.srcErr
	}
	return s.DES.Feed(math.Max(s.pending.Release, s.DES.Now()), s.arriveFn)
}

// arrive admits the stream head plus every follower already released,
// then reschedules — a bursty arrival group costs one event and one
// decision, not one per job — and re-arms the next arrival. A head whose
// arrival cannot be scheduled (a NaN release) ends the stream with an
// error Run returns.
func (s *Sim) arrive() {
	now := s.DES.Now()
	for s.pending != nil && s.pending.Release <= now {
		s.submitted++
		s.enqueue(s.pending)
		s.pull()
	}
	s.reschedule()
	if err := s.scheduleArrival(); err != nil && s.srcErr == nil {
		s.srcErr = fmt.Errorf("cluster: job %d: %w", s.pending.ID, err)
		s.endStream()
	}
}

// SubmitBestEffort enqueues a grid task; it will run in scheduling holes.
func (s *Sim) SubmitBestEffort(t BETask) {
	if t.Resubmits > 0 {
		s.beStats.Redistributed++
	}
	s.beQueue = append(s.beQueue, t)
	// Defer the fill to an immediate event so that submission during
	// another event keeps deterministic ordering. Bursts of submissions
	// coalesce into a single pending reschedule: one fill pass over the
	// queue is equivalent to one pass per task and keeps the event heap
	// from ballooning with no-op wakeups.
	if s.reschedulePending {
		return
	}
	s.reschedulePending = true
	_ = s.DES.After(0, func() {
		s.reschedulePending = false
		s.reschedule()
	})
}

// free returns physically free working processors.
func (s *Sim) free() int {
	return s.avail - s.localProcs - len(s.beActive)
}

// reschedule runs the policy, starts its decisions (evicting best-effort
// tasks as needed), then refills holes with best-effort tasks. It decides
// nothing while a repair due now has not fired: that repair's event is
// pending at now and reschedules once the processors are back, so every
// decision sees the capacity the instant ends with.
func (s *Sim) reschedule() {
	now := s.DES.Now()
	for _, o := range s.outages {
		if o.until <= now {
			return
		}
	}
	// The queue is tidied before the decision and after its starts, never
	// in between, so the slots the decisions name are still theirs — but
	// for a decision an observer makes from inside a start, which comes
	// back through here, whose tidy sends the rest of the outer starts to
	// the search.
	s.queue.tidy()
	// The scratch is out of reach while it is lent: an observer that
	// changes the capacity from inside a start comes back through here.
	scratch := s.decisions
	s.decisions = nil
	view := View{
		Now: now, Avail: s.avail - s.localProcs, Speed: s.Speed,
		Queue: s.queue.jobs, Plan: &s.plan, Index: &s.index, Scratch: scratch,
		seqs: s.queue.seqs, sim: s,
	}
	decisions := s.policy.Decide(view)
	for _, d := range decisions {
		s.start(d, now)
	}
	s.queue.tidy()
	// What came back is the scratch, or the larger array the policy's
	// appends moved to, which takes its place.
	clear(decisions)
	if cap(decisions) > cap(scratch) {
		scratch = decisions[:0]
	}
	s.decisions = scratch
	s.fillBestEffort(now)
	if s.OnIdle != nil {
		s.OnIdle(s.free())
	}
}

// start makes decision d; a refused start changes nothing.
func (s *Sim) start(d Decision, now float64) {
	// Remove from queue; ignore unknown jobs (policy bug guard). Matched
	// by pointer: migrated and injected jobs may share an ID with a job
	// already queued. The job is in the slot d.at names, or else searched
	// for (see Decision); a nil job would find a hole.
	if d.Job == nil {
		return
	}
	idx := d.at - 1
	if idx < 0 || idx >= len(s.queue.jobs) || s.queue.jobs[idx] != d.Job {
		idx = slices.Index(s.queue.jobs, d.Job)
	}
	if idx < 0 || d.Procs < d.Job.MinProcs || d.Procs > d.Job.MaxProcs {
		return
	}
	if d.Procs > s.avail-s.localProcs {
		return // policy overcommitted; refuse
	}
	// Evict best-effort tasks if physically needed.
	for s.free() < d.Procs {
		if !s.killOneBE(now) {
			return // cannot happen: free+BE >= M-localProcs >= d.Procs
		}
	}
	s.plan.started(s.queue.seqs[idx])
	s.dequeue(idx, d.pos)
	s.tally(d.Job, -1)
	dur := d.Job.TimeOn(d.Procs) / s.Speed
	var run *localRunning
	if n := len(s.runFree); n > 0 {
		run = s.runFree[n-1]
		s.runFree = s.runFree[:n-1]
	} else {
		run = &localRunning{}
		r := run
		run.fire = func() { s.finish(r) }
	}
	run.job, run.procs, run.start, run.end, run.cancelled = d.Job, d.Procs, now, now+dur, false
	run.at, run.seq = len(s.running), s.runSeq
	s.runSeq++
	s.running = append(s.running, run)
	s.localProcs += d.Procs
	if s.OnLocalStart != nil {
		s.OnLocalStart(run.job, run.procs, now)
	}
	_ = s.DES.At(run.end, run.fire)
}

// dequeue takes the job in slot i out of the queue, leaving a hole, and
// out of the index, where a search found it at pos (0: unknown), and
// returns it.
func (s *Sim) dequeue(i, pos int) *workload.Job {
	q := &s.queue
	j := q.jobs[i]
	s.index.remove(q.seqs[i], j, pos)
	q.jobs[i] = nil
	q.live--
	return j
}

// finish fires for every started job, including one killed by a crash
// (whose job was requeued): either way the record's only pending event
// is spent, and the record goes back to the free list.
func (s *Sim) finish(run *localRunning) {
	if run.cancelled {
		s.runFree = append(s.runFree, run)
		return
	}
	s.unrun(run)
	s.localProcs -= run.procs
	c := metrics.Completion{
		Job: run.job, Start: run.start, End: run.end, Procs: run.procs,
	}
	run.job = nil
	s.runFree = append(s.runFree, run)
	s.acc.Add(c)
	s.retain.Add(c)
	if s.OnLocalDone != nil {
		s.OnLocalDone(c)
	}
	s.reschedule()
}

// unrun removes run from the running set and keeps the split at
// reserved: a reserved record's slot takes the last reserved record, and
// the slot that leaves free takes the last record.
func (s *Sim) unrun(run *localRunning) {
	at := run.at
	if at < s.reserved {
		s.reserved--
		s.moveRun(s.reserved, at)
		at = s.reserved
	}
	last := len(s.running) - 1
	s.moveRun(last, at)
	s.running[last] = nil
	s.running = s.running[:last]
}

// moveRun puts the running record in slot from into slot to, if they
// differ.
func (s *Sim) moveRun(from, to int) {
	if from != to {
		r := s.running[from]
		s.running[to], r.at = r, to
	}
}

// syncedProfile brings the profile up to date at the current time and
// returns it. The jobs started since the last read are reserved from
// their start for TimeOn/Speed, as rebuildProfile reserves them, and
// history is trimmed: the profile is canonical, so from now on its
// segments depend only on the availability from now on, whatever order
// the reservations were made in, and a job that finished unreserved would
// have been trimmed with the rest. After a change of capacity (stale),
// or should a reservation not fit — which cannot happen while the
// profile and the running set agree — the profile is rebuilt instead.
func (s *Sim) syncedProfile() *rigid.Profile {
	if !s.stale {
		for _, r := range s.running[s.reserved:] {
			if s.profile.Reserve(r.start, r.job.TimeOn(r.procs)/s.Speed, r.procs) != nil {
				s.stale = true
				break
			}
		}
	}
	if s.stale {
		s.rebuildProfile()
	}
	s.reserved = len(s.running)
	s.profile.TrimBefore(s.DES.Now())
	return s.profile
}

// rebuildProfile reconstructs the profile from the running set and the
// active capacity losses. Outages with known repair times are carved out
// only until that time, so a backfill plan sees the capacity come back
// and can reserve behind it.
//
// Every reservation is made from time 0 in the arithmetic that first
// made it, and history is trimmed afterwards (syncedProfile): a running
// job from its start for TimeOn/Speed, an outage until its repair time.
// The rebuilt reservations thus end exactly where the running records and
// the repair events say. (Reserving [now, end) would round an end to
// now+(end-now), a float step off, and hold a finished job's processors
// for that step.)
func (s *Sim) rebuildProfile() {
	s.stale = false
	s.profile.Reset(s.M)
	remaining := s.M - s.avail
	for _, o := range s.outages {
		if remaining <= 0 {
			break
		}
		p := min(o.procs, remaining)
		_ = s.profile.Reserve(0, o.until, p)
		remaining -= p
	}
	if remaining > 0 {
		// Open-ended loss (SetAvailability): no known repair time.
		_ = s.profile.Reserve(0, availHorizon, remaining)
	}
	for _, r := range s.running {
		_ = s.profile.Reserve(r.start, r.job.TimeOn(r.procs)/s.Speed, r.procs)
	}
}

// killOneBE evicts one best-effort task per the kill policy. Returns
// false when none is running.
func (s *Sim) killOneBE(now float64) bool {
	if len(s.beActive) == 0 {
		return false
	}
	victim := 0
	switch s.kill {
	case KillLargestRemaining:
		best := -1.0
		for i, b := range s.beActive {
			if rem := b.end - now; rem > best {
				best = rem
				victim = i
			}
		}
	default: // KillNewest
		for i, b := range s.beActive {
			if b.start > s.beActive[victim].start ||
				(b.start == s.beActive[victim].start && b.seq > s.beActive[victim].seq) {
				victim = i
			}
		}
	}
	b := s.beActive[victim]
	s.beActive = slices.Delete(s.beActive, victim, victim+1)
	b.cancelled = true
	s.beStats.Killed++
	s.beStats.WastedWork += (now - b.start) * s.Speed
	b.task.Resubmits++
	if s.OnBEKilled != nil {
		s.OnBEKilled(b.task)
	}
	return true
}

// killOneLocal evicts the most recently started local job (least sunk
// work, ties broken by the larger job ID, then by the earlier start
// among records of one ID — deterministic) and requeues
// it at the tail of the submission queue with its release date intact,
// so the §3 flow/stretch criteria absorb the wait-time penalty. Returns
// false when nothing is running.
func (s *Sim) killOneLocal(now float64) bool {
	if len(s.running) == 0 {
		return false
	}
	victim := 0
	for i, r := range s.running {
		v := s.running[victim]
		if r.start > v.start || r.start == v.start &&
			(r.job.ID > v.job.ID || r.job.ID == v.job.ID && r.seq < v.seq) {
			victim = i
		}
	}
	run := s.running[victim]
	s.unrun(run)
	run.cancelled = true // and out of runFree until its finish event has fired
	s.localProcs -= run.procs
	s.faultStats.Requeues++
	s.faultStats.LostWork += float64(run.procs) * (now - run.start) * s.Speed
	s.queue.push(run.job)
	s.tally(run.job, 1)
	if s.OnLocalKilled != nil {
		s.OnLocalKilled(run.job, run.procs, now)
	}
	run.job = nil
	return true
}

// Crash takes procs working processors offline until the given virtual
// time (the repair time is known at crash time — the fault engine draws
// it from the MTTR distribution when the crash fires). Best-effort
// tasks are evicted first (they drift back through OnBEKilled, the
// §5.2 central-stock path); if capacity is still overcommitted, local
// jobs are killed newest-first and requeued. Owner-goroutine only, like
// every mutating call.
func (s *Sim) Crash(procs int, until float64) error {
	now := s.DES.Now()
	if procs <= 0 {
		return fmt.Errorf("cluster: crash of %d procs", procs)
	}
	if math.IsNaN(until) || until <= now {
		return fmt.Errorf("cluster: crash repair time %v not after now %v", until, now)
	}
	s.faultStats.Crashes++
	if procs > s.avail {
		procs = s.avail // cannot take down more than is up
	}
	if procs <= 0 {
		return nil // already fully down
	}
	o := &outage{procs: procs, until: until}
	s.outages = append(s.outages, o)
	if s.OnCrash != nil {
		s.OnCrash(procs, now)
	}
	s.applyAvail(now)
	return s.DES.At(until, func() { s.repair(o) })
}

// repair returns one outage's capacity to service.
func (s *Sim) repair(o *outage) {
	if i := slices.Index(s.outages, o); i >= 0 {
		s.outages = slices.Delete(s.outages, i, i+1)
	}
	s.faultStats.Repairs++
	if s.OnRepair != nil {
		s.OnRepair(o.procs, s.DES.Now())
	}
	s.applyAvail(s.DES.Now())
}

// SetAvailability pins the number of working processors to avail
// (clamped to [0, M]) with no scheduled repair — the hook behind
// time-varying availability traces, where the fault engine issues one
// call per trace step. Shrinking evicts best-effort tasks first, then
// requeues local jobs; growing triggers an immediate reschedule.
func (s *Sim) SetAvailability(avail int) {
	if avail < 0 {
		avail = 0
	}
	if avail > s.M {
		avail = s.M
	}
	if s.M-avail == s.traceDown {
		return // the same step again: no loss changed
	}
	s.traceDown = s.M - avail
	s.applyAvail(s.DES.Now())
}

// applyAvail reconciles the simulation with a change of the active
// capacity losses: recompute the working count (integrating downtime
// when it moves), evict overcommitted work, invalidate the plan, mark the
// profile for a rebuild at its next read, and reschedule. The rebuild is
// due even when the count stays put: a repair under a pinned
// SetAvailability changes when the carved-out processors come back
// without changing how many work.
func (s *Sim) applyAvail(now float64) {
	down := s.traceDown
	for _, o := range s.outages {
		down += o.procs
	}
	if down > s.M {
		down = s.M
	}
	if a := s.M - down; a != s.avail {
		s.faultStats.DownProcSeconds += float64(s.M-s.avail) * (now - s.availSince)
		s.availSince = now
		s.avail = a
	}
	for s.free() < 0 && s.killOneBE(now) {
	}
	for s.free() < 0 && s.killOneLocal(now) {
	}
	s.plan.Invalidate()
	s.stale = true
	s.reschedule()
}

// FaultStats returns the fault counters with the downtime integral
// extended to the current virtual time.
func (s *Sim) FaultStats() FaultStats {
	fs := s.faultStats
	if s.avail < s.M {
		fs.DownProcSeconds += float64(s.M-s.avail) * (s.DES.Now() - s.availSince)
	}
	return fs
}

func (s *Sim) fillBestEffort(now float64) {
	for s.free() > 0 && len(s.beQueue) > 0 {
		t := s.beQueue[0]
		s.beQueue = s.beQueue[1:]
		var b *beRunning
		if n := len(s.beFree); n > 0 {
			b = s.beFree[n-1]
			s.beFree = s.beFree[:n-1]
		} else {
			b = &beRunning{}
			bb := b
			b.fire = func() { s.finishBE(bb) }
		}
		b.task, b.start, b.end = t, now, now+t.Duration/s.Speed
		b.seq, b.cancelled = s.beSeq, false
		s.beSeq++
		s.beActive = append(s.beActive, b)
		_ = s.DES.At(b.end, b.fire)
	}
}

// finishBE fires for every started task, including killed ones (whose
// work was already accounted by killOneBE); a task's beRunning instance
// is recycled here, once its pending finish event cannot fire again.
func (s *Sim) finishBE(b *beRunning) {
	if b.cancelled {
		s.beFree = append(s.beFree, b)
		return
	}
	if i := slices.Index(s.beActive, b); i >= 0 {
		s.beActive = slices.Delete(s.beActive, i, i+1)
	}
	task := b.task
	s.beFree = append(s.beFree, b)
	s.beStats.Completed++
	s.beStats.DoneWork += task.Duration
	if s.OnBEDone != nil {
		s.OnBEDone(task)
	}
	s.reschedule()
}

// Run drives the simulation to completion (all submitted local jobs done
// and the event queue drained). Afterwards the simulation is drained:
// further Submit/InjectNow calls return ErrDrained. A stream that the
// run abandons (an event-limit error, a panicking policy) is detached
// before Run returns.
func (s *Sim) Run() error {
	defer s.endStream()
	err := s.DES.Run()
	s.drained = true
	if err != nil {
		return err
	}
	if s.srcErr != nil {
		return s.srcErr
	}
	if s.acc.N() != s.submitted {
		return fmt.Errorf("cluster: %d of %d local jobs completed (queue starved: %d waiting)",
			s.acc.N(), s.submitted, s.queue.live)
	}
	return nil
}

// Drain marks the simulation as no longer accepting submissions without
// running it (the gridd service drives the DES clock itself and calls
// this on graceful shutdown before fast-forwarding the remaining events).
func (s *Sim) Drain() { s.drained = true }

// Drained reports whether the simulation still accepts submissions.
func (s *Sim) Drained() bool { return s.drained }

// Completions returns the retained local-job completion records. Under
// the default full retention that is every completion; bounded stores
// (SetRetention) return only what they kept — use Report for the exact
// aggregate criteria, which never depend on retention.
func (s *Sim) Completions() []metrics.Completion {
	return s.retain.Completions()
}

// SetRetention replaces the completion-history store. The default
// retains everything (the behaviour tests, goldens and the offline
// tables rely on); streaming replays opt into metrics.NewRing /
// NewDiscard so peak memory is O(active jobs). Must be called before
// the first completion.
func (s *Sim) SetRetention(r metrics.Retention) error {
	if r == nil {
		return fmt.Errorf("cluster: nil retention")
	}
	if s.acc.N() > 0 {
		return fmt.Errorf("cluster: retention change after %d completions", s.acc.N())
	}
	s.retain = r
	return nil
}

// Report returns the one-pass §3 criteria report over every completion
// so far, plus the cluster's best-effort and fault counters. O(1): the
// accumulator folds completions in as they happen, so calling this per
// event (or per scrape) costs nothing — and the criteria fields are
// bit-for-bit identical to metrics.NewReport over the full history
// (NewReport leaves the BestEffort/Faults counters zero, so the whole
// struct compares equal for runs without best-effort or fault traffic).
func (s *Sim) Report() metrics.Report {
	rep := s.acc.Report()
	rep.BestEffort = s.beStats
	rep.Faults = s.FaultStats()
	return rep
}

// CompletedCount returns the number of completed local jobs (retention
// independent).
func (s *Sim) CompletedCount() int { return s.acc.N() }

// Submitted returns the number of local jobs admitted so far (for a
// streaming run this grows as the source is consumed).
func (s *Sim) Submitted() int { return s.submitted }

// Streaming reports whether a lazy-admission source is still attached
// (more local jobs will surface later than Submitted counts — the fault
// engine must not treat the sim as finished yet).
func (s *Sim) Streaming() bool { return s.src != nil || s.pending != nil }

// RunningCount returns the number of currently running local jobs.
func (s *Sim) RunningCount() int { return len(s.running) }

// BestEffort returns the best-effort statistics.
func (s *Sim) BestEffort() BEStats { return s.beStats }

// BestEffortQueueLength returns the number of grid tasks waiting (not
// running) on this cluster.
func (s *Sim) BestEffortQueueLength() int { return len(s.beQueue) }

// BestEffortActive returns the number of grid tasks currently running.
func (s *Sim) BestEffortActive() int { return len(s.beActive) }

// QueueLength returns the number of jobs waiting.
func (s *Sim) QueueLength() int { return s.queue.live }

// Queued returns the waiting jobs in submission order, in a new slice.
func (s *Sim) Queued() []*workload.Job {
	out := slices.Grow([]*workload.Job(nil), s.queue.live)
	for _, j := range s.queue.jobs {
		if j != nil {
			out = append(out, j)
		}
	}
	return out
}

// Running returns the currently running local jobs in start order (the
// gridd /queue endpoint).
func (s *Sim) Running() []*workload.Job {
	runs := slices.SortedFunc(slices.Values(s.running), func(a, b *localRunning) int {
		return cmp.Compare(a.seq, b.seq)
	})
	out := make([]*workload.Job, len(runs))
	for i, r := range runs {
		out[i] = r.job
	}
	return out
}

// QueuedWork returns the total minimal work waiting in the queue at
// reference speed (the load-balance signal of §5.2's decentralized
// scheme).
func (s *Sim) QueuedWork() float64 {
	var w float64
	for _, j := range s.queue.jobs {
		if j != nil {
			mw, _ := j.MinWork(s.M)
			w += mw
		}
	}
	return w
}

// StealQueued removes and returns up to n jobs from the tail of the
// waiting queue (decentralized work exchange). Jobs already started
// cannot be stolen.
func (s *Sim) StealQueued(n int) []*workload.Job {
	n = min(n, s.queue.live)
	if n <= 0 {
		return nil
	}
	stolen := make([]*workload.Job, n)
	for i, k := len(s.queue.jobs)-1, n; k > 0; i-- {
		if s.queue.jobs[i] != nil {
			k--
			stolen[k] = s.dequeue(i, 0)
		}
	}
	// A stolen job holds a reservation in the plan, and is not queued for
	// the next decision to notice.
	s.plan.Invalidate()
	s.submitted -= n
	for _, j := range stolen {
		s.tally(j, -1)
	}
	return stolen
}

// InjectNow enqueues a job immediately (migration arrival from another
// cluster; its release date is in the past by construction).
func (s *Sim) InjectNow(j *workload.Job) error {
	if s.drained {
		return ErrDrained
	}
	if j.MinProcs > s.M {
		return fmt.Errorf("cluster: job %d needs %d > %d procs", j.ID, j.MinProcs, s.M)
	}
	s.submitted++
	return s.DES.After(0, func() {
		s.admit(j)
	})
}
