package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/fleet"
	"repro/internal/store"
)

// The traced run composes the serving layers in this process — store →
// RunService → mux on a loopback http.Server → pkg/client, plus a
// coordinator and worker goroutines for fleet_shard — so the harness
// can put a span at every layer boundary without touching the layers.

// Request headers that carry the client span and the operation id to
// the server-side middleware, so handler spans hang under the client
// request that caused them.
const (
	spanHeader = "X-Bench-Span"
	runHeader  = "X-Bench-Run"
)

// requestKind names a /v1 request by the part of the run lifecycle it
// serves.
func requestKind(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/runs":
		return "submit"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/result"):
		return "result"
	}
	return "other"
}

// tracedTransport is one client's RoundTripper: it opens a span per
// request under the current operation's root span and closes it when
// the response body is closed. Each client goroutine owns one and
// sends one request at a time.
type tracedTransport struct {
	rec  *recorder
	run  string
	root int
}

// begin opens the root span of the client's next operation.
func (t *tracedTransport) begin(run string, t0 time.Time) int {
	t.run = run
	t.root = t.rec.open("client.run", run, 0, t0)
	return t.root
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.open("client."+requestKind(req.Method, req.URL.Path), t.run, t.root, time.Now())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	req.Header.Set(runHeader, t.run)
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.rec.close(id, time.Now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, id: id}
	return resp, nil
}

// spanBody ends the request span when the client has finished with the
// response.
type spanBody struct {
	io.ReadCloser
	rec *recorder
	id  int
}

func (b *spanBody) Close() error {
	b.rec.close(b.id, time.Now())
	return b.ReadCloser.Close()
}

// statusWriter remembers the response status and keeps streaming
// (the SSE handler needs http.Flusher).
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// traceHandler is the timing middleware around the mux that
// RunService.Mount fills: one span per request, parented to the client
// span named in the request headers, and a count of 429 refusals.
func traceHandler(rec *recorder, next http.Handler, rejected *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // absent on requests the harness did not trace: root span
		rec.add("api."+requestKind(r.Method, r.URL.Path), r.Header.Get(runHeader), parent, t0, time.Since(t0), 1)
		if sw.code == http.StatusTooManyRequests {
			rejected.Add(1)
		}
	})
}

// tracedFleet decorates the fleet.Transport handed to fleet.RunWorker.
// The worker goroutines share one, hence the mutex.
type tracedFleet struct {
	inner fleet.Transport
	rec   *recorder

	mu                sync.Mutex
	granted           map[string]time.Time // lease id → when it was granted
	seen              map[string]bool      // run/fanout/cell ever granted
	leaseWaitMS       []float64
	leaseToCompleteMS []float64
	completeMS        []float64
	leases, cells     int
	requeued          int // cells granted again after an earlier grant
	duplicates        int
	waiting           time.Duration // time workers spent inside LeaseCells
}

func newTracedFleet(inner fleet.Transport, rec *recorder) *tracedFleet {
	return &tracedFleet{inner: inner, rec: rec, granted: map[string]time.Time{}, seen: map[string]bool{}}
}

func (t *tracedFleet) LeaseCells(ctx context.Context, req fleet.LeaseRequest) (*fleet.Lease, error) {
	t0 := time.Now()
	ls, err := t.inner.LeaseCells(ctx, req)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.waiting += d
	if err != nil || ls == nil {
		return ls, err
	}
	t.rec.add("fleet.lease", ls.RunID, 0, t0, d, int64(len(ls.Cells)))
	t.granted[ls.ID] = t0.Add(d)
	t.leaseWaitMS = append(t.leaseWaitMS, ms(d))
	t.leases++
	t.cells += len(ls.Cells)
	for _, c := range ls.Cells {
		key := ls.RunID + "/" + c.String()
		if t.seen[key] {
			t.requeued++
		}
		t.seen[key] = true
	}
	return ls, nil
}

func (t *tracedFleet) CompleteCells(ctx context.Context, req fleet.CompleteRequest) (fleet.CompleteResponse, error) {
	t0 := time.Now()
	resp, err := t.inner.CompleteCells(ctx, req)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		return resp, err
	}
	if at, ok := t.granted[req.LeaseID]; ok {
		delete(t.granted, req.LeaseID)
		t.rec.add("fleet.execute", req.RunID, 0, at, t0.Sub(at), int64(len(req.Results)))
		t.leaseToCompleteMS = append(t.leaseToCompleteMS, ms(t0.Add(d).Sub(at)))
	}
	t.rec.add("fleet.complete", req.RunID, 0, t0, d, int64(len(req.Results)))
	t.completeMS = append(t.completeMS, ms(d))
	t.duplicates += resp.Duplicates
	return resp, nil
}

func (t *tracedFleet) Heartbeat(ctx context.Context, req fleet.HeartbeatRequest) (fleet.HeartbeatResponse, error) {
	return t.inner.Heartbeat(ctx, req)
}

// walSampler watches a store directory. WAL bytes appended are the sum
// over WAL generations of the largest size each was seen at, so a
// compaction (which deletes the old generation) does not hide bytes.
type walSampler struct {
	dir       string
	walMax    map[string]int64
	snapshots map[string]int64
	base      int64 // WAL bytes already there when sampling began
	baseSnaps int
	stop      chan struct{}
	done      chan struct{}
}

func newWALSampler(dir string) *walSampler {
	w := &walSampler{dir: dir, walMax: map[string]int64{}, snapshots: map[string]int64{},
		stop: make(chan struct{}), done: make(chan struct{})}
	w.sample()
	w.base, w.baseSnaps = w.walBytes(), len(w.snapshots)
	return w
}

// sample looks at the directory once.
func (w *walSampler) sample() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return // not there yet, or gone: nothing to see this time
	}
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			continue // deleted between ReadDir and Info by a compaction
		}
		switch name := ent.Name(); {
		case strings.HasPrefix(name, "wal-"):
			w.walMax[name] = max(w.walMax[name], info.Size())
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".json"):
			w.snapshots[name] = max(w.snapshots[name], info.Size())
		}
	}
}

func (w *walSampler) walBytes() int64 {
	var sum int64
	for _, n := range w.walMax {
		sum += n
	}
	return sum
}

// run samples every 50 ms until finish.
func (w *walSampler) run() {
	defer close(w.done)
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.sample()
		}
	}
}

// finish stops sampling and returns the WAL bytes appended since the
// sampler was made, the compactions seen and the largest snapshot.
func (w *walSampler) finish() (appended int64, compactions int, snapshotBytes int64) {
	close(w.stop)
	<-w.done
	w.sample()
	for _, n := range w.snapshots {
		snapshotBytes = max(snapshotBytes, n)
	}
	return w.walBytes() - w.base, len(w.snapshots) - w.baseSnaps, snapshotBytes
}

// inproc is the serving stack composed in this process.
type inproc struct {
	st       *store.Store
	svc      *api.RunService
	coord    *fleet.Coordinator
	fleetT   *tracedFleet
	srv      *http.Server
	base     string
	rejected atomic.Int64

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
}

// startInProc opens a durable store in dataDir (fsync on, as gridd
// does), serves the /v1 API over loopback HTTP and, with workers > 0,
// shards runs over that many in-process fleet workers. With rec set,
// the handler and the workers' transport are wrapped in span recorders.
func startInProc(dataDir string, workers int, rec *recorder) (*inproc, error) {
	st, err := store.Open(dataDir, store.Options{})
	if err != nil {
		return nil, err
	}
	p := &inproc{st: st}
	cfg := api.Config{MaxActive: 2, Store: st}
	if workers > 0 {
		p.coord = fleet.NewCoordinator(fleet.Config{})
		cfg.Fleet = p.coord
	}
	p.svc = api.NewRunService(cfg)
	mux := http.NewServeMux()
	p.svc.Mount(mux)
	var h http.Handler = mux
	if rec != nil {
		h = traceHandler(rec, mux, &p.rejected)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.svc.Close()
		st.Close()
		return nil, err
	}
	p.base = "http://" + ln.Addr().String()
	p.srv = &http.Server{Handler: h}
	go p.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed at stop

	if workers > 0 {
		var tr fleet.Transport = p.coord
		if rec != nil {
			p.fleetT = newTracedFleet(p.coord, rec)
			tr = p.fleetT
		}
		ctx, cancel := context.WithCancel(context.Background())
		p.stopWorkers = cancel
		for w := 1; w <= workers; w++ {
			p.workers.Add(1)
			go func() {
				defer p.workers.Done()
				// One cell at a time per worker, as gridd -worker-pool 1.
				_ = fleet.RunWorker(ctx, tr, fleet.WorkerConfig{ID: fmt.Sprintf("w%d", w), Workers: 1})
			}()
		}
	}
	return p, nil
}

// stop shuts the stack down in dependency order and closes the store.
func (p *inproc) stop() error {
	if p.stopWorkers != nil {
		p.stopWorkers()
		p.workers.Wait()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx) // on timeout the connections are dropped with the process
	p.svc.Close()
	if p.coord != nil {
		p.coord.Close()
	}
	return p.st.Close()
}

// phase is one in-process load phase.
type phase struct {
	name    string
	share   float64 // of the window
	clients int
	workers int // fleet workers; 0 = local executor
	primed  bool
	rec     *recorder
}

// phaseResult is what a phase observed.
type phaseResult struct {
	ops           []op
	stats         loadStats
	dataDir       string
	summary       api.RunsSummary
	rejected      int64
	walBytes      int64
	compactions   int
	snapshotBytes int64
	queueWaitMS   []float64
	execMS        []float64
	fleetT        *tracedFleet
}

// runPhase boots the in-process stack, drives it closed-loop for the
// phase's share of the window and shuts it down.
func runPhase(e *env, ph phase, next func(int) runReq, maxRenders int) (*phaseResult, error) {
	res := &phaseResult{dataDir: filepath.Join(e.tmp, "inproc-"+ph.name)}
	p, err := startInProc(res.dataDir, ph.workers, ph.rec)
	if err != nil {
		return nil, err
	}
	if ph.primed {
		if err := prime(p.base, e.seed); err != nil {
			p.stop()
			return nil, err
		}
	}
	sampler := newWALSampler(res.dataDir)
	go sampler.run()
	cfg := loadConfig{
		base: p.base, clients: ph.clients, next: next, rec: ph.rec,
		window: time.Duration(float64(e.window) * ph.share),
	}
	var mu sync.Mutex
	if ph.rec != nil {
		// Where the run's time went on the server, read from its status
		// while it is still in the bounded history.
		cfg.after = func(o *op) {
			r, ok := p.svc.Get(o.runID)
			if !ok {
				return
			}
			st := p.svc.Status(r, false)
			if st.Started == nil || st.Finished == nil {
				return // a memo hit never queued or executed
			}
			mu.Lock()
			res.queueWaitMS = append(res.queueWaitMS, ms(st.Started.Sub(st.Created)))
			res.execMS = append(res.execMS, ms(st.Finished.Sub(*st.Started)))
			mu.Unlock()
		}
	}
	l := slicedLoad(e, cfg)
	res.walBytes, res.compactions, res.snapshotBytes = sampler.finish()
	res.summary = p.svc.Summary()
	res.rejected = p.rejected.Load()
	res.fleetT = p.fleetT
	if err := p.stop(); err != nil {
		return nil, fmt.Errorf("phase %s: close store: %w", ph.name, err)
	}
	verifyTexts(l.ops, maxRenders)
	res.ops, res.stats = l.ops, summarise(e, l)
	if res.stats.completed == 0 {
		return nil, fmt.Errorf("%s: phase %s completed no run (%d attempted)", e.workload, ph.name, len(l.ops))
	}
	return res, nil
}

// linkSpans gives the spans of one operation the server's run id as
// their shared identifier (client and handler spans were recorded under
// the client's operation number, fleet spans under the run id) and
// hangs root-less fleet spans under the operation's root span.
func linkSpans(rec *recorder, ops []op) {
	runID := make(map[string]string, len(ops))
	root := make(map[string]int, len(ops))
	for _, o := range ops {
		if o.runID != "" {
			runID[fmt.Sprintf("op-%d", o.n)] = o.runID
			root[o.runID] = o.root
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i := range rec.spans {
		s := &rec.spans[i]
		if id, ok := runID[s.Run]; ok {
			s.Run = id
		}
		if s.Parent == 0 && strings.HasPrefix(s.Name, "fleet.") {
			s.Parent = root[s.Run]
		}
	}
}

// servingLayers reports the api, client and store-traffic metrics of
// the traced phase.
func servingLayers(e *env, r *phaseResult) {
	linkSpans(e.rec, r.ops)
	spans := e.rec.snapshot()
	self := selfTimes(spans)
	durMS := map[string][]float64{}
	var transportMS []float64
	for _, s := range spans {
		durMS[s.Name] = append(durMS[s.Name], ms(s.dur()))
		if s.Name == "client.submit" {
			// Round trip minus the handler span under it.
			transportMS = append(transportMS, ms(self[s.ID]))
		}
	}
	p99 := func(xs []float64) float64 { v, _ := tail(xs, 0.99); return v }
	e.out.set("api.handler_ms_p50.submit", median(durMS["api.submit"]))
	e.out.set("api.handler_ms_p99.submit", p99(durMS["api.submit"]))
	e.out.set("api.handler_ms_p50.events", median(durMS["api.events"]))
	e.out.set("api.handler_ms_p50.result", median(durMS["api.result"]))
	e.out.set("api.queue_wait_ms_p50", median(r.queueWaitMS))
	e.out.set("api.exec_ms_p50", median(r.execMS))
	acked := 0
	for _, o := range r.ops {
		if o.runID != "" {
			acked++
		}
	}
	e.out.set("api.memo_hit_share", float64(r.summary.CacheHits)/float64(acked))
	e.out.set("api.rejected_429", float64(r.rejected))
	e.out.set("api.evictions", float64(r.summary.Evicted))
	e.out.set("client.transport_ms_p50", median(transportMS))
	e.out.set("client.submit_ack_ms_p50", median(r.stats.rawAckMS))
	e.out.set("client.submit_ack_ms_p99", p99(r.stats.rawAckMS))
	e.out.set("client.run_e2e_ms_p99", p99(r.stats.rawE2EMS))
	e.out.set("client.sse_events_per_run", float64(r.stats.events)/float64(r.stats.completed))
	e.out.set("store.disk_bytes_per_run", float64(r.walBytes)/float64(acked))
	e.out.set("store.compactions", float64(r.compactions))
	e.out.set("store.snapshot_bytes", float64(r.snapshotBytes))
	e.out.info["latency_samples"] = len(r.stats.e2eMS)
	e.out.info["p99_quantile_used"] = tailQuantile(len(r.stats.e2eMS), 0.99)
	e.out.info["queue_wait_samples"] = len(r.queueWaitMS)
	e.out.info["flush_policy"] = "fsync on every WAL append (store.Options{} default)"
	e.out.info["loop"] = "closed"
}

func traceServing(e *env, buildT time.Duration, next func(int) runReq, maxRenders int, primed bool) error {
	e.out.set("harness.build_s", buildT.Seconds())
	plain, err := runPhase(e, phase{name: "plain", share: 0.35, clients: serveClients, primed: primed}, next, maxRenders/4)
	if err != nil {
		return err
	}
	traced, err := runPhase(e, phase{name: "traced", share: 0.5, clients: serveClients, primed: primed, rec: e.rec}, next, maxRenders/4)
	if err != nil {
		return err
	}
	e.out.set("harness.trace_overhead_pct", 100*(1-traced.stats.runsPerS()/plain.stats.runsPerS()))
	e.out.info["clients"] = serveClients
	servingLayers(e, traced)
	return probeStore(e, traced.dataDir)
}

func traceFleet(e *env, buildT time.Duration, next func(int) runReq) error {
	e.out.set("harness.build_s", buildT.Seconds())
	local, err := runPhase(e, phase{name: "local", share: 0.25, clients: 1}, next, 2)
	if err != nil {
		return err
	}
	plain, err := runPhase(e, phase{name: "plain", share: 0.25, clients: 1, workers: fleetWorkers}, next, 2)
	if err != nil {
		return err
	}
	traced, err := runPhase(e, phase{name: "traced", share: 0.4, clients: 1, workers: fleetWorkers, rec: e.rec}, next, 4)
	if err != nil {
		return err
	}
	e.out.set("harness.trace_overhead_pct", 100*(1-traced.stats.runsPerS()/plain.stats.runsPerS()))
	e.out.set("fleet.vs_local_ratio", plain.stats.runsPerS()/local.stats.runsPerS())
	e.out.info["clients"] = 1
	e.out.info["workers"] = fleetWorkers
	servingLayers(e, traced)

	f := traced.fleetT
	f.mu.Lock()
	defer f.mu.Unlock()
	e.out.set("fleet.lease_wait_ms_p50", median(f.leaseWaitMS))
	e.out.set("fleet.lease_to_complete_ms_p50", median(f.leaseToCompleteMS))
	e.out.set("fleet.complete_rtt_ms_p50", median(f.completeMS))
	e.out.set("fleet.cells_per_lease_mean", float64(f.cells)/float64(max(f.leases, 1)))
	e.out.set("fleet.cells_per_s", float64(f.cells)/traced.stats.wall.Seconds())
	e.out.set("fleet.worker_idle_share", f.waiting.Seconds()/(fleetWorkers*traced.stats.wall.Seconds()))
	e.out.set("fleet.requeued_cells", float64(f.requeued))
	e.out.set("fleet.duplicate_completes", float64(f.duplicates))
	e.out.info["leases"] = f.leases
	return nil
}

// probeStore measures the store directly: recovery of the directory the
// traced phase left behind, then appends of records shaped like the
// serving workloads' (taken from that directory), with and without
// fsync.
func probeStore(e *env, dataDir string) error {
	t0 := time.Now()
	st, err := store.Open(dataDir, store.Options{})
	if err != nil {
		return fmt.Errorf("store probe: recover %s: %w", dataDir, err)
	}
	d := time.Since(t0)
	e.rec.add("store.recover", "probe", 0, t0, d, int64(len(st.Runs())))
	e.out.set("store.recover_ms", ms(d))
	var shape *store.RunRecord
	for _, r := range st.Runs() {
		if r.State == string(api.RunDone) && len(r.Terminal) > 0 {
			shape = r
			break
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	e.out.attempted++
	if shape == nil {
		e.out.failf("store probe: no finished run with a terminal payload was recovered from %s", dataDir)
		return nil
	}

	syncUS, bytesPer, err := appendProbe(filepath.Join(e.tmp, "probe-sync"), shape, false)
	if err != nil {
		return err
	}
	nosyncUS, _, err := appendProbe(filepath.Join(e.tmp, "probe-nosync"), shape, true)
	if err != nil {
		return err
	}
	p99, _ := tail(syncUS, 0.99)
	e.out.set("store.append_us_p50", median(syncUS))
	e.out.set("store.append_us_p99", p99)
	e.out.set("store.append_nosync_us_p50", median(nosyncUS))
	e.out.set("store.fsync_share", 1-median(nosyncUS)/median(syncUS))
	for kind, b := range bytesPer {
		e.out.set("store.bytes_per_append."+kind, b)
	}
	e.out.info["append_samples"] = len(syncUS)
	return nil
}

// appendProbe appends the records of probeRuns runs — submit, state,
// terminal, then a memo hit's cached submit — to a fresh store and
// returns every append's latency and the WAL bytes per record kind.
func appendProbe(dir string, shape *store.RunRecord, noSync bool) (latUS []float64, bytesPer map[string]float64, err error) {
	const probeRuns = 100
	st, err := store.Open(dir, store.Options{NoSync: noSync})
	if err != nil {
		return nil, nil, fmt.Errorf("store probe: %w", err)
	}
	defer st.Close()
	walSize := func() int64 { return newWALSampler(dir).base }
	bytes := map[string]int64{}
	timed := func(kind string, rec store.Record) error {
		before := walSize()
		t0 := time.Now()
		if err := st.Append(rec); err != nil {
			return fmt.Errorf("store probe: append %s: %w", kind, err)
		}
		latUS = append(latUS, us(time.Since(t0)))
		if kind != "" {
			bytes[kind] += walSize() - before
		}
		return nil
	}
	now := time.Now()
	for i := 0; i < probeRuns; i++ {
		run := *shape
		run.ID, run.Seq = fmt.Sprintf("p%06d", 2*i), uint64(2*i+1)
		run.State, run.Cached, run.Terminal = string(api.RunQueued), false, nil
		run.Created, run.Started, run.Finished = now, time.Time{}, time.Time{}
		cached := *shape
		cached.ID, cached.Seq = fmt.Sprintf("p%06d", 2*i+1), uint64(2*i+2)
		cached.State, cached.Cached = string(api.RunDone), true
		cached.Created, cached.Started, cached.Finished = now, time.Time{}, now
		for _, step := range []struct {
			kind string
			rec  store.Record
		}{
			{"submit", store.Record{Op: "submit", Run: &run}},
			{"", store.Record{Op: "state", ID: run.ID, State: string(api.RunRunning), Started: now}},
			{"terminal", store.Record{Op: "terminal", ID: run.ID, State: string(api.RunDone), Finished: now, Terminal: shape.Terminal}},
			{"cached_submit", store.Record{Op: "submit", Run: &cached}},
		} {
			if err := timed(step.kind, step.rec); err != nil {
				return nil, nil, err
			}
		}
	}
	bytesPer = map[string]float64{}
	for kind, b := range bytes {
		bytesPer[kind] = float64(b) / probeRuns
	}
	return latUS, bytesPer, nil
}
