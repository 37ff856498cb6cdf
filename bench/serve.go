package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/pkg/client"
)

// Serving workload shapes.
const (
	serveClients = 2 // closed-loop clients of serve_durable and serve_memo
	memoKeys     = 8 // (id, seed) pairs serve_memo primes and resubmits
	restartCheck = 32
	opTimeout    = 60 * time.Second
)

// durableIDs are quick-scale runs of a few milliseconds each, so the
// serving stack and not the cells dominates serve_durable. churn is not
// among them: at quick scale it livelocks on about one seed in 10 000
// (seed 14797 never returns), and serve_durable runs thousands of seeds.
var durableIDs = []string{"mrt", "batch", "smart", "bicriteria", "cigri", "mixed", "policies", "decentralized", "heterogrid", "gridpolicies"}

// fleetIDs are the catalog scenarios whose cells are remoteable, run at
// paper scale so each cell is worth shipping.
var fleetIDs = []string{"mrt", "heterogrid", "policies", "gridpolicies", "batch", "bicriteria"}

// runReq is one generated submission.
type runReq struct {
	id    string
	seed  uint64
	quick bool
}

func (r runReq) body() scenario.HTTPRequest {
	seed := r.seed
	return scenario.HTTPRequest{ID: r.id, Seed: &seed, Quick: r.quick}
}

// render is what the served result text must equal.
func (r runReq) render() (string, error) {
	jf := 0
	if r.quick {
		jf = quickFactor
	}
	return renderScenario(r.id, r.seed, jf)
}

// seedBase spreads the benchmark seed so that the run seeds of two
// benchmark seeds never overlap.
func seedBase(seed uint64) uint64 { return seed * 1_000_003 }

// distinctRuns gives request i its own seed, so nothing memoises.
func distinctRuns(ids []string, seed uint64, quick bool) func(i int) runReq {
	return func(i int) runReq {
		return runReq{ids[i%len(ids)], seedBase(seed) + uint64(i), quick}
	}
}

// memoRuns cycles over memoKeys fixed (id, seed) pairs.
func memoRuns(seed uint64) func(i int) runReq {
	return func(i int) runReq {
		k := i % memoKeys
		return runReq{durableIDs[k], seedBase(seed) + uint64(k), true}
	}
}

// op is one closed-loop operation: submit, follow the event stream to
// the terminal state, fetch the result text.
type op struct {
	n      int // position in the generated request sequence
	req    runReq
	runID  string
	ackMS  float64 // POST /v1/runs → 202
	e2eMS  float64 // submit call → result text in hand
	events int     // SSE events received
	text   string
	err    error   // nil = state done and a result text
	root   int     // root span (traced runs)
	speed  float64 // host-speed factor of the slice it ran in (calib.go)
}

// loadConfig describes one closed-loop load phase.
type loadConfig struct {
	base    string
	clients int
	window  time.Duration
	next    func(i int) runReq
	first   int       // sequence number of the first request
	rec     *recorder // nil = untraced
	// after, when set, sees every completed operation once it is over
	// (outside its timing); clients call it concurrently.
	after func(o *op)
	// cpu, when set, reads the CPU time the serving processes have used
	// so far; slicedLoad reads it around every slice.
	cpu func() time.Duration
}

// closedLoop drives cfg.clients clients, each sending its next request
// only when the previous one has completed, until the window closes
// (operations in flight are finished, not cut). It returns every
// operation attempted and the wall time from first submit to last
// result.
func closedLoop(cfg loadConfig) ([]op, time.Duration) {
	var seq atomic.Int64
	seq.Store(int64(cfg.first))
	perClient := make([][]op, cfg.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(cfg.window)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := []client.Option{client.WithRetries(0)}
			var tt *tracedTransport
			if cfg.rec != nil {
				tt = &tracedTransport{rec: cfg.rec}
				opts = append(opts, client.WithHTTPClient(&http.Client{Timeout: opTimeout, Transport: tt}))
			}
			cl := client.New(cfg.base, opts...)
			for time.Now().Before(deadline) {
				n := int(seq.Add(1) - 1)
				o := doOp(cl, n, cfg.next(n), tt)
				if cfg.after != nil && o.err == nil {
					cfg.after(&o)
				}
				perClient[c] = append(perClient[c], o)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var ops []op
	for _, p := range perClient {
		ops = append(ops, p...)
	}
	return ops, wall
}

// sliceLength is how long the clients run between two timings of the
// calibration kernel (taken while they are idle).
const sliceLength = 300 * time.Millisecond

// load is what a sliced load phase measured: every operation, the
// summed wall time of the slices as measured and with each slice scaled
// by its host-speed factor, and the server CPU time scaled likewise.
type load struct {
	ops            []op
	wall, normWall time.Duration
	normCPU        time.Duration
}

// slicedLoad is closedLoop over the whole window in consecutive slices
// of sliceLength, each bracketed by calibration samples; every
// operation is stamped with its slice's host-speed factor.
func slicedLoad(e *env, cfg loadConfig) load {
	var l load
	window := cfg.window
	cfg.window = sliceLength
	for t0 := time.Now(); time.Since(t0) < window; {
		first := e.cal.boundary()
		cfg.first = len(l.ops)
		var cpu time.Duration
		if cfg.cpu != nil {
			cpu = cfg.cpu()
		}
		o, w := closedLoop(cfg)
		if cfg.cpu != nil {
			cpu = cfg.cpu() - cpu
		}
		e.cal.boundary()
		f := e.cal.factorSince(first)
		for i := range o {
			o[i].speed = f
		}
		l.ops = append(l.ops, o...)
		l.wall, l.normWall = l.wall+w, l.normWall+time.Duration(float64(w)*f)
		l.normCPU += time.Duration(float64(cpu) * f)
	}
	return l
}

// doOp performs one operation. A refused, errored or non-done run
// carries its error and counts for no latency figure.
func doOp(cl *client.Client, n int, req runReq, tt *tracedTransport) op {
	o := op{n: n, req: req}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	t0 := time.Now()
	if tt != nil {
		o.root = tt.begin(fmt.Sprintf("op-%d", n), t0)
		defer func() { tt.rec.close(o.root, time.Now()) }()
	}
	st, err := cl.SubmitRun(ctx, req.body())
	o.ackMS = ms(time.Since(t0))
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.runID = st.ID
	final := st.State
	err = cl.StreamEvents(ctx, st.ID, func(ev api.Event) error {
		o.events++
		if ev.Type == "state" {
			final = ev.State
		}
		return nil
	})
	if err != nil {
		o.err = fmt.Errorf("events of %s: %w", st.ID, err)
		return o
	}
	if final != api.RunDone {
		o.err = fmt.Errorf("run %s ended %s", st.ID, final)
		return o
	}
	if o.text, err = cl.RunResultText(ctx, st.ID, "text"); err != nil {
		o.err = fmt.Errorf("result of %s: %w", st.ID, err)
		return o
	}
	o.e2eMS = ms(time.Since(t0))
	if o.text == "" {
		o.err = errors.New("empty result text")
	}
	return o
}

// verifyTexts compares served result texts with a local render of the
// same (id, seed, scale). Rendering is the cost, so at most maxRenders
// distinct requests, evenly spaced over the completed operations, are
// rendered; every operation of a rendered request is compared. It
// returns the number of operations compared.
func verifyTexts(ops []op, maxRenders int) int {
	var done []*op
	for i := range ops {
		if ops[i].err == nil {
			done = append(done, &ops[i])
		}
	}
	if len(done) == 0 {
		return 0
	}
	want := map[runReq]string{}
	// First an evenly spaced pass, then (when requests repeat, as in
	// serve_memo) a dense one to pick up the requests it stepped over.
	for _, stride := range []int{max(1, len(done)/maxRenders), 1} {
		for i := 0; i < len(done) && len(want) < maxRenders; i += stride {
			req := done[i].req
			if _, ok := want[req]; ok || done[i].err != nil {
				continue
			}
			text, err := req.render()
			if err != nil {
				done[i].err = fmt.Errorf("local render: %w", err)
				continue
			}
			want[req] = text
		}
	}
	compared := 0
	for _, o := range done {
		text, ok := want[o.req]
		if !ok || o.err != nil {
			continue
		}
		compared++
		if o.text != text {
			o.err = fmt.Errorf("served result of %s (%s seed %d) differs from the local render", o.runID, o.req.id, o.req.seed)
		}
	}
	return compared
}

// loadStats summarises a load phase. Latencies and normWall are
// host-speed-normalised; wall and rawE2EMS are as measured.
type loadStats struct {
	attempted, completed int
	wall, normWall       time.Duration
	normCPU              time.Duration // server CPU during the slices
	e2eMS, ackMS         []float64
	rawE2EMS, rawAckMS   []float64
	events               int
}

func (s loadStats) runsPerS() float64 { return float64(s.completed) / s.normWall.Seconds() }

// summarise counts operations and failures into the outcome.
func summarise(e *env, l load) loadStats {
	s := loadStats{attempted: len(l.ops), wall: l.wall, normWall: l.normWall, normCPU: l.normCPU}
	for _, o := range l.ops {
		e.out.attempted++
		if o.err != nil {
			e.out.failf("%s: op %d (%s seed %d): %v", e.workload, o.n, o.req.id, o.req.seed, o.err)
			continue
		}
		s.completed++
		s.e2eMS = append(s.e2eMS, o.e2eMS*o.speed)
		s.ackMS = append(s.ackMS, o.ackMS*o.speed)
		s.rawE2EMS = append(s.rawE2EMS, o.e2eMS)
		s.rawAckMS = append(s.rawAckMS, o.ackMS)
		s.events += o.events
	}
	return s
}

// stack is a booted set of gridd processes under test.
type stack struct {
	procs   []*child // the serving daemon (or coordinator) first
	base    string
	dataDir string
}

// cpu is the CPU time the stack's processes have used so far.
func (s *stack) cpu() time.Duration {
	var sum time.Duration
	for _, c := range s.procs {
		sum += procCPU(c.cmd.Process.Pid)
	}
	return sum
}

// stop drains every process and returns the peak RSS in MB of the
// serving daemon (the first process).
func (s *stack) stop() (rssMB float64) {
	// Workers first: a draining coordinator has nothing left to hand out.
	for i := len(s.procs) - 1; i >= 0; i-- {
		rssMB = s.procs[i].stop()
	}
	return rssMB
}

// bootStacks boots the stack setupReps times, keeping the last one up, and
// returns the median host-speed-normalised boot time as setup_s.
func bootStacks(e *env, boot func(i int) (*stack, error)) (*stack, float64, error) {
	var st *stack
	_, setupS, err := timeSetups(e,
		func(i int) (err error) { st, err = boot(i); return err },
		func() { st.stop() })
	return st, setupS, err
}

// bootDaemon is the stack of serve_durable and serve_memo: one gridd.
func bootDaemon(e *env, i int) (*stack, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("data-%d", i))
	c, base, err := startGridd(e, fmt.Sprintf("gridd-%d", i), dir)
	if err != nil {
		return nil, err
	}
	return &stack{procs: []*child{c}, base: base, dataDir: dir}, nil
}

// prime runs every memo key once so that the measured resubmissions
// hit the cache.
func prime(base string, seed uint64) error {
	cl := client.New(base, client.WithRetries(0))
	next := memoRuns(seed)
	for k := 0; k < memoKeys; k++ {
		if o := doOp(cl, k, next(k), nil); o.err != nil {
			return fmt.Errorf("prime memo key %d: %w", k, o.err)
		}
	}
	return nil
}

// reportServing turns a load phase into the end-to-end metrics.
func reportServing(e *env, setupS float64, s loadStats, rssMB float64) error {
	if s.completed == 0 {
		return fmt.Errorf("%s: no run completed (%d attempted)", e.workload, s.attempted)
	}
	tailMS, q := tail(s.e2eMS, 0.95)
	e.out.set("setup_s", setupS)
	e.out.set("work_per_s", s.runsPerS())
	e.out.set("op_ms_p50", median(s.e2eMS))
	e.out.set("op_ms_tail", tailMS)
	e.out.set("peak_mem_mb", rssMB)
	e.out.set("cpu_ms_per_op", ms(s.normCPU)/float64(s.completed))
	e.out.info["raw_work_per_s"] = float64(s.completed) / s.wall.Seconds()
	e.out.info["raw_op_ms_p50"] = median(s.rawE2EMS)
	e.out.info["calib_ms_median"] = median(e.cal.ms)
	e.out.info["calib_samples"] = len(e.cal.ms)
	e.out.info["latency_samples"] = len(s.e2eMS)
	e.out.info["op_ms_tail_quantile"] = q
	e.out.info["submit_ack_ms_p50"] = median(s.ackMS)
	e.out.info["flush_policy"] = "fsync on every WAL append (gridd default)"
	e.out.info["loop"] = "closed"
	return nil
}

// checkRestart restarts gridd on the data directory the load left
// behind and requires the last restartCheck results byte-identical to
// what the clients were served before the restart.
func checkRestart(e *env, dataDir string, ops []op) error {
	var last []op
	for _, o := range ops {
		if o.err == nil {
			last = append(last, o)
		}
	}
	// Completion order is not recorded; the highest sequence numbers
	// are the most recently submitted, which eviction spares.
	sort.Slice(last, func(i, j int) bool { return last[i].n < last[j].n })
	if len(last) > restartCheck {
		last = last[len(last)-restartCheck:]
	}
	c, base, err := startGridd(e, "gridd-restart", dataDir)
	if err != nil {
		return fmt.Errorf("restart on %s: %w", dataDir, err)
	}
	defer c.stop()
	cl := client.New(base, client.WithRetries(0))
	for _, o := range last {
		e.out.attempted++
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		text, err := cl.RunResultText(ctx, o.runID, "text")
		cancel()
		if err != nil {
			e.out.failf("after restart: result of %s: %v", o.runID, err)
		} else if text != o.text {
			e.out.failf("after restart: result of %s differs from what was served before", o.runID)
		}
	}
	e.out.info["restart_checked"] = len(last)
	return nil
}

func runServeDurable(e *env) error {
	return runServing(e, distinctRuns(durableIDs, e.seed, true), 150, false, true)
}

func runServeMemo(e *env) error {
	return runServing(e, memoRuns(e.seed), memoKeys, true, false)
}

// runServing is serve_durable and serve_memo: boot a durable gridd,
// drive it closed-loop with serveClients clients for the window, verify
// what it served.
func runServing(e *env, next func(int) runReq, maxRenders int, primed, restart bool) error {
	buildT, err := buildGridd(e.root)
	if err != nil {
		return err
	}
	e.out.info["build_s"] = buildT.Seconds()
	if e.traced {
		return traceServing(e, buildT, next, maxRenders, primed)
	}
	st, setupS, err := bootStacks(e, func(i int) (*stack, error) {
		st, err := bootDaemon(e, i)
		if err == nil && primed {
			err = prime(st.base, e.seed)
		}
		return st, err
	})
	if err != nil {
		return err
	}
	l := slicedLoad(e, loadConfig{base: st.base, clients: serveClients, window: e.window, next: next, cpu: st.cpu})
	rssMB := st.stop()
	e.out.info["verified_ops"] = verifyTexts(l.ops, maxRenders)
	if restart {
		if err := checkRestart(e, st.dataDir, l.ops); err != nil {
			return err
		}
	}
	e.out.info["clients"] = serveClients
	return reportServing(e, setupS, summarise(e, l), rssMB)
}
