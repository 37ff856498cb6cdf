package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

// Config parameterizes a RunService.
type Config struct {
	// MaxActive bounds concurrently executing runs (the gridd
	// -max-runs flag). Default 2: the daemon's first job is pacing
	// live simulations; scenario runs are batch work riding along.
	MaxActive int
	// MaxPending bounds queued-but-not-started runs beyond MaxActive;
	// submissions past the bound get 429 + Retry-After. Default
	// 2×MaxActive.
	MaxPending int
	// MaxHistory bounds the run store: when exceeded, the oldest
	// terminal runs are evicted (active runs never are). Default 64.
	MaxHistory int
	// Log, when set, receives request log lines from the middleware.
	Log *log.Logger
	// Fleet, when set, distributes each run's remoteable cells through
	// a coordinator (implemented by *fleet.Coordinator) instead of the
	// local pool. The run keeps the handle it gets, which lists the
	// run's contributing workers. Traced runs always execute locally —
	// their recorders cannot ship over the wire.
	Fleet Fleet
	// Store, when set, makes the run store durable: submissions, state
	// transitions and terminal results are WAL-persisted and the whole
	// store is rebuilt from disk at boot (runs in flight at a crash
	// recover as failed with a restart reason). Records are written
	// under the service lock and awaited outside it; nothing is
	// acknowledged, queued, published or memo-registered before its
	// record is durable.
	Store *store.Store
	// Tenants, when set, turns on multi-tenancy: mutating endpoints
	// require a tenant API key and admission is per-tenant (token
	// bucket + active-run cap) instead of only the global bound.
	Tenants *store.TenantSet
}

// Fleet is the coordinator seam of a distributed daemon: the api
// declares the interface (so it does not import internal/fleet, which
// mounts its handlers through this service) and the fleet package
// implements it.
type Fleet interface {
	// Dispatcher registers a run for as long as ctx lives and returns
	// its handle.
	Dispatcher(ctx context.Context, runID string, spec *scenario.Spec, seed uint64, jobFactor int) (FleetRun, error)
}

// FleetRun is one run's handle on the fleet: the CellRunner the
// scenario engine dispatches remoteable cells through, and the run's
// contributors, still listed after the fleet has dropped its record.
type FleetRun interface {
	scenario.CellRunner
	// Workers lists the sorted ids of the workers that contributed
	// cells to the run.
	Workers() []string
}

// maxInlineJobs bounds every job count, and maxInlineProcs every
// platform width, an inline spec may request server-side (catalog ids
// are trusted). A generated moldable job allocates a time table as wide
// as its platform; 4 096 is also the widest one workload.MakeTable
// prices with one math.Exp per entry.
const (
	maxInlineJobs  = 100_000
	maxInlineProcs = 4096
)

func (c Config) fill() Config {
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 2 * c.MaxActive
	}
	if c.MaxHistory <= 0 {
		c.MaxHistory = 64
	}
	return c
}

// RunsSummary aggregates the run store for GET /v1/stats. It is
// computed from the same Run records (and their Result cells) the /v1
// endpoints serve, so the two surfaces cannot diverge.
type RunsSummary struct {
	Total      int `json:"total"`
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	Done       int `json:"done"`
	Failed     int `json:"failed"`
	Cancelled  int `json:"cancelled"`
	CellsDone  int `json:"cells_done"`
	CellsTotal int `json:"cells_total"`
	// ResultRows counts typed result cells across completed runs —
	// read from the stored scenario.Result artifacts themselves.
	ResultRows int `json:"result_rows"`
	// Evicted counts terminal runs dropped by the bounded store
	// (monotonic across restarts when persistence is on).
	Evicted int `json:"evicted"`
	// CacheHits counts submissions served from the memo cache without
	// executing cells (monotonic across restarts when persistence is
	// on).
	CacheHits uint64 `json:"cache_hits"`
}

// ErrBusy rejects submissions past the queue bound (HTTP 429).
var ErrBusy = errors.New("api: run queue full; retry later")

// ErrStopped rejects submissions into a closed service.
var ErrStopped = errors.New("api: run service stopped")

// RunService owns the run store and the executor pool behind the /v1
// run-lifecycle API. One instance is shared by every handler of the
// daemon, making it the single source of truth for scenario-run state.
type RunService struct {
	cfg Config

	mu        sync.Mutex
	runs      map[string]*Run
	order     []*Run // insertion order (listing + eviction)
	seq       int
	active    int // queued or executing (not yet finalized)
	evicted   int
	cacheHits uint64
	// memo maps a content address (canonical spec + seed + job factor +
	// catalog hash) to the first done run carrying that result.
	memo    map[string]*Run
	stopped bool

	queue chan *Run
	wg    sync.WaitGroup
}

// NewRunService starts the executor pool (cfg.MaxActive workers). With
// a durable store configured, the in-memory state is first rebuilt
// from snapshot + WAL — before the pool starts, so recovered runs can
// never race live ones.
func NewRunService(cfg Config) *RunService {
	cfg = cfg.fill()
	s := &RunService{
		cfg:   cfg,
		runs:  map[string]*Run{},
		memo:  map[string]*Run{},
		queue: make(chan *Run, cfg.MaxActive+cfg.MaxPending),
	}
	if cfg.Store != nil {
		s.recover()
	}
	for range cfg.MaxActive {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Config returns the filled configuration.
func (s *RunService) Config() Config { return s.cfg }

// Close cancels every live run, stops the executor pool and waits for
// it to drain. Subsequent submissions fail with ErrStopped.
func (s *RunService) Close() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	var ending []closing
	for _, r := range s.order {
		if !r.state.Terminal() {
			r.cancel()
			if r.state == RunQueued && !r.closing {
				ending = append(ending, s.beginCloseLocked(r, RunCancelled, "service shutting down", nil))
			}
		}
	}
	close(s.queue)
	s.mu.Unlock()
	for _, c := range ending {
		s.finishClose(c)
	}
	s.wg.Wait()
}

// Summary aggregates the store (the /stats "runs" section).
func (s *RunService) Summary() RunsSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := RunsSummary{Total: len(s.order), Evicted: s.evicted, CacheHits: s.cacheHits}
	for _, r := range s.order {
		switch r.state {
		case RunQueued:
			sum.Queued++
		case RunRunning:
			sum.Running++
		case RunDone:
			sum.Done++
		case RunFailed:
			sum.Failed++
		case RunCancelled:
			sum.Cancelled++
		}
		sum.CellsDone += r.cellsDone
		sum.CellsTotal += r.cellsTotal
		if r.result != nil {
			sum.ResultRows += len(r.result.Cells)
		}
	}
	return sum
}

// httpErr pairs a status code with a message for the resolve step;
// 429 rejections may carry a per-tenant Retry-After hint.
type httpErr struct {
	code       int
	msg        string
	retryAfter time.Duration
}

// resolveSpec validates a submission and resolves its Spec — at
// submission time, so a bad request fails synchronously (400/404) and
// only runnable Specs enter the queue.
func (s *RunService) resolveSpec(req *scenario.HTTPRequest) (*scenario.Spec, *httpErr) {
	var spec *scenario.Spec
	var lim scenario.Limits // catalog specs are the daemon's own
	switch {
	case req.ID != "" && req.Spec != nil:
		return nil, &httpErr{code: http.StatusBadRequest, msg: "set either id or spec, not both"}
	case req.ID != "":
		s, ok := scenario.Lookup(req.ID)
		if !ok {
			return nil, &httpErr{code: http.StatusNotFound, msg: fmt.Sprintf("unknown scenario %q", req.ID)}
		}
		spec = s
	case req.Spec != nil:
		spec = req.Spec
		if spec.ID == "" {
			spec.ID = "adhoc"
		}
		// Clamp inline trace recording (req.Spec is per-request, so
		// mutating it is safe — catalog specs are shared and never
		// touched here).
		if spec.Trace != nil && spec.Trace.Events &&
			(spec.Trace.MaxEvents == 0 || spec.Trace.MaxEvents > maxInlineTraceEvents) {
			spec.Trace.MaxEvents = maxInlineTraceEvents
		}
		// Bound the work an inline spec can request of a live daemon, and
		// refuse params naming a file on the daemon's host.
		lim = scenario.Limits{MaxJobs: maxInlineJobs, MaxProcs: maxInlineProcs, NoServerPaths: true}
	default:
		return nil, &httpErr{code: http.StatusBadRequest, msg: "set id or spec"}
	}
	if err := spec.Validate(lim); err != nil {
		return nil, &httpErr{code: http.StatusBadRequest, msg: err.Error()}
	}
	if !scenario.HasKind(spec.Kind) {
		return nil, &httpErr{code: http.StatusBadRequest, msg: fmt.Sprintf("unknown scenario kind %q", spec.Kind)}
	}
	return spec, nil
}

// SubmitAs validates the request, registers a run and queues it for
// the executor pool on behalf of a tenant (nil = anonymous). It returns
// immediately; progress flows through the run's event stream. The
// order of gates matters: memoization first (a cache hit costs the
// tenant a rate token but no executor capacity), then the global
// backlog bound, then the tenant's own quota — so one tenant saturating
// its quota never consumes global queue slots.
func (s *RunService) SubmitAs(req scenario.HTTPRequest, tn *store.Tenant) (*Run, *httpErr) {
	spec, herr := s.resolveSpec(&req)
	if herr != nil {
		return nil, herr
	}
	opt := req.Options(spec)
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, &httpErr{code: http.StatusInternalServerError, msg: err.Error()}
	}
	memoKey := store.MemoKey(specJSON, opt.Seed, opt.Scale.JobFactor, scenario.CatalogHash())
	now := time.Now()

	s.mu.Lock()
	r, commit, herr := s.registerLocked(spec, opt, specJSON, memoKey, tn, now)
	s.mu.Unlock()
	if herr != nil {
		return nil, herr
	}
	// The submission is written, in submission order, and visible to
	// listings; it is queued and acknowledged only once it is durable.
	if err := s.durable(commit); err != nil {
		herr := persistFailed(err)
		s.failSubmission(r, herr.msg)
		return nil, herr
	}
	if !r.cached {
		s.enqueue(r)
	}
	return r, nil
}

// persistFailed answers a submission whose record could not be written
// or made durable.
func persistFailed(err error) *httpErr {
	return &httpErr{code: http.StatusInternalServerError, msg: "persist submission: " + err.Error()}
}

// registerLocked runs the admission gates and registers the run — a
// memo hit born done, or a queued run — with its submit record written
// but not yet durable. s.mu must be held.
func (s *RunService) registerLocked(spec *scenario.Spec, opt scenario.RunOptions, specJSON []byte, memoKey string, tn *store.Tenant, now time.Time) (*Run, store.Commit, *httpErr) {
	if s.stopped {
		return nil, store.Commit{}, &httpErr{code: http.StatusServiceUnavailable, msg: ErrStopped.Error()}
	}
	// The 64-bit key only nominates a source; the hit is decided on the
	// identity itself, so a colliding key (accidental or built by another
	// tenant) is a miss that executes and leaves the entry alone.
	if src, ok := s.memo[memoKey]; ok && src.state == RunDone &&
		bytes.Equal(src.specJSON, specJSON) && src.opt.Seed == opt.Seed &&
		src.opt.Scale.JobFactor == opt.Scale.JobFactor {
		if tn != nil {
			if ok, retry := tn.AdmitCached(now); !ok {
				return nil, store.Commit{}, &httpErr{
					code:       http.StatusTooManyRequests,
					msg:        fmt.Sprintf("tenant %q submit rate exceeded; retry later", tn.Name),
					retryAfter: retry,
				}
			}
		}
		r, commit, err := s.cachedRunLocked(src, spec, opt, specJSON, memoKey, tenantName(tn), now)
		if err != nil {
			return nil, commit, persistFailed(err)
		}
		return r, commit, nil
	}
	if s.active >= s.cfg.MaxActive+s.cfg.MaxPending {
		return nil, store.Commit{}, &httpErr{code: http.StatusTooManyRequests, msg: ErrBusy.Error()}
	}
	if tn != nil {
		if ok, retry := tn.Admit(now); !ok {
			return nil, store.Commit{}, &httpErr{
				code:       http.StatusTooManyRequests,
				msg:        fmt.Sprintf("tenant %q quota exceeded; retry later", tn.Name),
				retryAfter: retry,
			}
		}
	}
	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	r := &Run{
		id: fmt.Sprintf("r%06d", s.seq), seqNo: s.seq, spec: spec, opt: opt,
		specJSON: specJSON, memoKey: memoKey,
		tenant: tenantName(tn), tenantRef: tn,
		ctx: ctx, cancel: cancel,
		state: RunQueued, created: now,
		wake: make(chan struct{}),
	}
	commit, err := s.admitLocked(r)
	if err != nil {
		// A submission the WAL never saw must not exist: undo the
		// admission entirely.
		s.seq--
		if tn != nil {
			tn.Release()
		}
		cancel()
		return nil, commit, persistFailed(err)
	}
	s.active++
	return r, commit, nil
}

// cachedRunLocked registers a memo-cache hit: a brand-new run that is
// born done, sharing the source run's result artifact (immutable once
// terminal). Its record names the source instead of copying the
// payload. It never touches the executor pool. s.mu must be held.
func (s *RunService) cachedRunLocked(src *Run, spec *scenario.Spec, opt scenario.RunOptions, specJSON []byte, memoKey, tenant string, now time.Time) (*Run, store.Commit, error) {
	s.seq++
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Run{
		id: fmt.Sprintf("r%06d", s.seq), seqNo: s.seq, spec: spec, opt: opt,
		specJSON: specJSON, memoKey: memoKey,
		tenant: tenant, cached: true, source: src.id,
		ctx: ctx, cancel: cancel,
		state: RunDone, created: now, finished: now,
		cellsDone: src.cellsDone, cellsTotal: src.cellsTotal,
		result: src.result,
		events: cachedHistory(),
		wake:   make(chan struct{}),
	}
	commit, err := s.admitLocked(r)
	if err != nil {
		s.seq--
		return nil, commit, err
	}
	s.cacheHits++
	return r, commit, nil
}

// cachedHistory is the whole event history of a memo hit.
func cachedHistory() []Event {
	return []Event{{Type: "state", State: RunDone}}
}

// admitLocked writes r's submit record and the evictions one more run
// forces as one batch — the submit framed first, since a memo hit may
// name a victim as its source — and only then registers r and drops the
// victims from memory. s.mu must be held.
func (s *RunService) admitLocked(r *Run) (store.Commit, error) {
	victims := s.victimsLocked(1)
	var commit store.Commit
	if s.cfg.Store != nil {
		recs := append([]store.Record{{Op: "submit", Run: r.record()}}, evictRecords(victims)...)
		var err error
		if commit, err = s.cfg.Store.Write(recs...); err != nil {
			return commit, err
		}
	}
	s.runs[r.id] = r
	s.order = append(s.order, r)
	s.dropLocked(victims)
	return commit, nil
}

// victimsLocked picks the runs that must go for the history to hold
// incoming more: the oldest terminal ones, never a live run (the active
// bound caps those). s.mu must be held.
func (s *RunService) victimsLocked(incoming int) []*Run {
	var victims []*Run
	need := len(s.order) + incoming - s.cfg.MaxHistory
	for _, r := range s.order {
		if len(victims) >= need {
			break
		}
		if r.state.Terminal() {
			victims = append(victims, r)
		}
	}
	return victims
}

func evictRecords(victims []*Run) []store.Record {
	recs := make([]store.Record, len(victims))
	for i, r := range victims {
		recs[i] = store.Record{Op: "evict", ID: r.id}
	}
	return recs
}

// dropLocked removes evicted runs from memory. s.mu must be held.
func (s *RunService) dropLocked(victims []*Run) {
	for _, r := range victims {
		delete(s.runs, r.id)
		i := slices.Index(s.order, r)
		s.order = slices.Delete(s.order, i, i+1)
		s.evicted++
		if r.memoKey != "" && s.memo[r.memoKey] == r {
			// The memo entry dies with its backing run; the next
			// identical submission re-executes and re-registers.
			delete(s.memo, r.memoKey)
		}
	}
}

// durable waits until a written record is on disk. s.mu must not be
// held: the fsync is the slow step, and listings, status reads and
// other submissions' writes go on meanwhile.
func (s *RunService) durable(c store.Commit) error {
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Wait(c)
}

// enqueue hands a durable submission to the executor pool.
func (s *RunService) enqueue(r *Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		// Close ran while the record was being synced: it has cancelled
		// the run and closed the queue.
		s.active--
		return
	}
	// Send under the lock: it can never block (queue capacity equals the
	// active bound checked at registration), and holding s.mu means Close
	// cannot close the channel between the stopped check and the send. A
	// run cancelled meanwhile is skipped by the worker that drains it.
	s.queue <- r
}

// failSubmission ends a registered run whose submit record could not be
// made durable: the client gets a 500 and listings show a failed run.
// After a failed write or fsync the WAL takes nothing more, so the
// failure is only logged, and at the next boot the run is absent or
// recovers as interrupted; after a failed compaction it is persisted
// like any terminal transition.
func (s *RunService) failSubmission(r *Run, msg string) {
	r.cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !r.cached {
		s.active-- // never queued, so no worker will release the slot
		if r.closing || r.state.Terminal() {
			return // cancelled or shut down meanwhile
		}
	}
	r.result = nil
	s.finishCloseLocked(s.beginCloseLocked(r, RunFailed, msg, nil))
}

// closing is a terminal transition whose record is written but may not
// be durable yet.
type closing struct {
	r        *Run
	last     Event // the state event that closes the run's stream
	finished time.Time
	result   *scenario.Result
	commit   store.Commit
}

// beginCloseLocked writes r's terminal record — the payload as it will
// read once the closing event is published — and marks r closing, so
// nothing else starts or ends it. Nothing of the transition is visible
// until finishCloseLocked. s.mu must be held.
func (s *RunService) beginCloseLocked(r *Run, state RunState, errMsg string, res *scenario.Result) closing {
	c := closing{
		r:        r,
		last:     Event{Seq: len(r.events), Type: "state", State: state, Error: errMsg},
		finished: time.Now().Round(0), result: res,
	}
	r.closing = true
	if s.cfg.Store != nil {
		payload, err := buildTerminal(r, c.last, res)
		if err == nil {
			c.commit, err = s.cfg.Store.Write(store.Record{
				Op: "terminal", ID: r.id, State: string(state),
				Error: errMsg, Finished: c.finished, Terminal: payload,
			})
		}
		if err != nil {
			log.Printf("api: persist terminal %s: %v", r.id, err)
		}
	}
	return c
}

// finishClose waits for the terminal record and makes the transition
// visible. s.mu must not be held.
func (s *RunService) finishClose(c closing) {
	s.awaitClose(c)
	s.mu.Lock()
	s.finishCloseLocked(c)
	s.mu.Unlock()
}

// awaitClose waits until the terminal record is durable. A failure is
// logged and the transition still happens in memory — the alternative
// is a run that never ends. s.mu must not be held.
func (s *RunService) awaitClose(c closing) {
	if err := s.durable(c.commit); err != nil {
		log.Printf("api: persist terminal %s: %v", c.r.id, err)
	}
}

// finishCloseLocked moves the run to its terminal state, publishes the
// closing event, releases the tenant slot and registers the memo entry.
// It does NOT release the run's active slot — the worker that drains
// the run from the queue does, so the slot accounting always matches
// the queue-channel occupancy and a cancel-resubmit burst can never
// block on a full channel. s.mu must be held.
func (s *RunService) finishCloseLocked(c closing) {
	r := c.r
	r.closing = false
	r.state, r.err, r.finished = c.last.State, c.last.Error, c.finished
	if c.result != nil {
		r.result = c.result
	}
	r.publish(c.last)
	if r.tenantRef != nil {
		r.tenantRef.Release()
		r.tenantRef = nil
	}
	if r.state == RunDone && r.memoKey != "" {
		if _, ok := s.memo[r.memoKey]; !ok {
			s.memo[r.memoKey] = r
		}
	}
}

// worker executes queued runs one at a time.
func (s *RunService) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		s.mu.Lock()
		if r.state.Terminal() || r.closing { // cancelled (or shut down) before start
			s.active--
			s.mu.Unlock()
			continue
		}
		r.state = RunRunning
		r.started = time.Now().Round(0) // wall clock only: a duration reads the same after a restart
		r.publish(Event{Type: "state", State: RunRunning})
		if s.cfg.Store != nil {
			// Written in order, not awaited: nothing is acknowledged on
			// it, and the run's terminal fsync covers it at the latest.
			if _, err := s.cfg.Store.Write(store.Record{
				Op: "state", ID: r.id, State: string(RunRunning), Started: r.started,
			}); err != nil {
				log.Printf("api: persist state %s: %v", r.id, err)
			}
		}
		opt := r.opt
		s.mu.Unlock()

		opt.Context = r.ctx
		opt.OnCellsStart = func(n int) {
			s.mu.Lock()
			r.cellsTotal += n
			s.mu.Unlock()
		}
		opt.OnCellDone = func(index int, d time.Duration) {
			s.mu.Lock()
			r.cellsDone++
			r.publish(Event{Type: "cell", Cell: &CellEvent{
				Index: index, Done: r.cellsDone, Total: r.cellsTotal,
				DurationSeconds: d.Seconds(),
			}})
			s.mu.Unlock()
		}

		if f := s.cfg.Fleet; f != nil && !r.spec.Traced() {
			// Distributed mode: remoteable cells go through the
			// coordinator's work queue (opt.Seed is already the
			// resolved effective seed — see HTTPRequest.Options).
			fr, ferr := f.Dispatcher(r.ctx, r.id, r.spec, opt.Seed, opt.Scale.JobFactor)
			if ferr != nil {
				s.mu.Lock()
				c := s.beginCloseLocked(r, RunFailed, ferr.Error(), nil)
				s.mu.Unlock()
				s.release(c)
				continue
			}
			s.mu.Lock()
			r.fleet = fr
			s.mu.Unlock()
			opt.Remote = fr
		}

		res, err := scenario.Run(r.spec, opt)

		if err == nil && res != nil {
			// Outside the lock: histogram folds walk every event.
			observeTraces(res.Traces)
		}

		s.mu.Lock()
		var c closing
		switch {
		case err == nil:
			c = s.beginCloseLocked(r, RunDone, "", res)
		case r.ctx.Err() != nil || errors.Is(err, context.Canceled):
			c = s.beginCloseLocked(r, RunCancelled, err.Error(), nil)
		default:
			c = s.beginCloseLocked(r, RunFailed, err.Error(), nil)
		}
		s.mu.Unlock()
		s.release(c)
	}
}

// release ends a run its worker has finished with: once the terminal
// record is durable the transition becomes visible and, in the same
// step, the executor slot is freed.
func (s *RunService) release(c closing) {
	s.awaitClose(c)
	s.mu.Lock()
	s.finishCloseLocked(c)
	s.active--
	s.mu.Unlock()
	c.r.cancel() // release the context's resources
}

// Get returns a run by id.
func (s *RunService) Get(id string) (*Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

// Status snapshots one run. The fleet contributor list is filled
// outside the store lock (the coordinator has its own).
func (s *RunService) Status(r *Run, includeCells bool) RunStatus {
	s.mu.Lock()
	st, fr := r.status(includeCells), r.fleet
	s.mu.Unlock()
	if fr != nil {
		st.Workers = fr.Workers()
	}
	return st
}

// List snapshots every stored run in submission order; never nil, so
// an empty store lists as [].
func (s *RunService) List() []RunStatus {
	s.mu.Lock()
	out := make([]RunStatus, len(s.order))
	handles := make([]FleetRun, len(s.order))
	for i, r := range s.order {
		out[i], handles[i] = r.status(false), r.fleet
	}
	s.mu.Unlock()
	for i, fr := range handles {
		if fr != nil {
			out[i].Workers = fr.Workers()
		}
	}
	return out
}

// Cancel requests cooperative cancellation. Queued runs finalize
// before Cancel returns; running ones stop after their in-flight cells. The
// returned bool is false when the run had already finished.
func (s *RunService) Cancel(r *Run) bool {
	s.mu.Lock()
	switch {
	case r.state.Terminal():
		s.mu.Unlock()
		return false
	case r.state == RunQueued && !r.closing:
		r.cancel()
		c := s.beginCloseLocked(r, RunCancelled, "cancelled before start", nil)
		s.mu.Unlock()
		s.finishClose(c)
		return true
	default: // running, or already on its way to a terminal state
		r.cancel()
		s.mu.Unlock()
		return true
	}
}

// Result returns the stored result artifact once the run is done.
func (s *RunService) Result(r *Run) (*scenario.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return r.result, r.result != nil
}
