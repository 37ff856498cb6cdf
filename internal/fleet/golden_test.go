package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	_ "repro/internal/experiments" // register the scenario kinds + catalog
	"repro/internal/scenario"
)

// runLocal renders a spec single-process (the reference bytes).
func runLocal(t *testing.T, spec *scenario.Spec, opt scenario.RunOptions) string {
	t.Helper()
	res, err := scenario.Run(spec, opt)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	var buf bytes.Buffer
	if err := res.Emit(&buf, false); err != nil {
		t.Fatalf("local emit: %v", err)
	}
	return buf.String()
}

// startWorkers runs n in-process workers (w0, w1, …) driving the given
// transport (the Coordinator itself, or a fault-injecting wrapper) until
// the returned stop is called.
func startWorkers(t *testing.T, tr Transport, n int) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := RunWorker(ctx, tr, WorkerConfig{
				ID: fmt.Sprintf("w%d", i), Batch: 2, Poll: 50 * time.Millisecond, Workers: 2,
			}); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// runFleet renders a spec through a coordinator whose workers are
// already running, mirroring exactly what the api executor does:
// resolved seed and the run's context into Dispatcher, Remote into the
// run options, the context ended once the run is. It also returns the
// run's contributors.
func runFleet(spec *scenario.Spec, opt scenario.RunOptions, c *Coordinator) (string, []string, error) {
	ctx, end := context.WithCancel(context.Background())
	defer end()
	opt.Context = ctx
	var fr api.FleetRun
	if !spec.Traced() {
		var err error
		if fr, err = c.Dispatcher(ctx, "run-"+spec.ID, spec, spec.EffectiveSeed(opt), opt.Scale.JobFactor); err != nil {
			return "", nil, err
		}
		opt.Remote = fr
	}
	res, err := scenario.Run(spec, opt)
	if err != nil {
		return "", nil, err
	}
	var buf bytes.Buffer
	err = res.Emit(&buf, false)
	var workers []string
	if fr != nil {
		workers = fr.Workers()
	}
	return buf.String(), workers, err
}

// TestGoldenFleetMatchesLocal is the acceptance harness: every built-in
// scenario, rendered through a coordinator + 2 workers, must be
// byte-identical to the single-process rendering — regardless of which
// worker ran which cell or in what order results arrived.
func TestGoldenFleetMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed golden sweep is not -short work")
	}
	for _, spec := range scenario.Catalog() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			opt := scenario.RunOptions{Seed: 42, Scale: scenario.Scale{JobFactor: 20}}
			want := runLocal(t, spec, opt)
			c := NewCoordinator(Config{TTL: 30 * time.Second})
			defer c.Close()
			stop := startWorkers(t, c, 2)
			defer stop()
			got, _, err := runFleet(spec, opt, c)
			if err != nil {
				t.Fatalf("fleet run: %v", err)
			}
			if got != want {
				t.Fatalf("fleet output diverged from local:\n--- local\n%s\n--- fleet\n%s", want, got)
			}
		})
	}
}

// crashingTransport simulates a worker killed mid-run: the first
// completion report is swallowed (as if the process died after
// executing but before the ack landed) and the worker stops leasing.
// The cells must requeue via lease expiry and land on the surviving
// worker — with the final table still byte-identical.
type crashingTransport struct {
	Transport
	mu      sync.Mutex
	crashed bool
}

func (ct *crashingTransport) LeaseCells(ctx context.Context, req LeaseRequest) (*Lease, error) {
	ct.mu.Lock()
	dead := ct.crashed
	ct.mu.Unlock()
	if dead {
		<-ctx.Done() // the process is "gone"; just wait out the test
		return nil, ctx.Err()
	}
	return ct.Transport.LeaseCells(ctx, req)
}

func (ct *crashingTransport) CompleteCells(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	ct.mu.Lock()
	first := !ct.crashed
	ct.crashed = true
	ct.mu.Unlock()
	if first {
		return CompleteResponse{}, errors.New("worker killed before ack")
	}
	return ct.Transport.CompleteCells(ctx, req)
}

// perWorkerTransport routes one worker id through the crashing wrapper
// and everyone else straight to the coordinator — once the victim holds
// its first lease: until then every other worker's LeaseCells waits, or a
// quick survivor could lease the whole run before the victim got a cell
// and leave nothing to crash on.
type perWorkerTransport struct {
	victim string
	crash  Transport
	direct Transport

	leased     chan struct{} // closed when the victim has been granted a lease
	leasedOnce sync.Once
}

func (p *perWorkerTransport) pick(id string) Transport {
	if id == p.victim {
		return p.crash
	}
	return p.direct
}

func (p *perWorkerTransport) LeaseCells(ctx context.Context, req LeaseRequest) (*Lease, error) {
	if req.WorkerID != p.victim {
		select {
		case <-p.leased:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return p.direct.LeaseCells(ctx, req)
	}
	lease, err := p.crash.LeaseCells(ctx, req)
	if lease != nil {
		p.leasedOnce.Do(func() { close(p.leased) })
	}
	return lease, err
}

func (p *perWorkerTransport) CompleteCells(ctx context.Context, req CompleteRequest) (CompleteResponse, error) {
	return p.pick(req.WorkerID).CompleteCells(ctx, req)
}

func (p *perWorkerTransport) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return p.pick(req.WorkerID).Heartbeat(ctx, req)
}

// TestGoldenFleetSurvivesWorkerDeath: worker w0 executes its first
// lease, dies before the ack, and never comes back. A short TTL
// requeues its cells to w1; the rendered table must still be
// byte-identical to the single-process run.
func TestGoldenFleetSurvivesWorkerDeath(t *testing.T) {
	spec, ok := scenario.Lookup("mrt")
	if !ok {
		t.Fatal("mrt not in catalog")
	}
	opt := scenario.RunOptions{Seed: 42, Scale: scenario.Scale{JobFactor: 20}}
	want := runLocal(t, spec, opt)

	c := NewCoordinator(Config{TTL: 200 * time.Millisecond})
	defer c.Close()
	// The victim's heartbeats also die with it (crashingTransport routes
	// them to the coordinator until the crash; afterwards the worker
	// never leases again, so its lease expires unattended).
	ct := &crashingTransport{Transport: c}
	tr := &perWorkerTransport{victim: "w0", crash: ct, direct: c, leased: make(chan struct{})}
	stop := startWorkers(t, tr, 2)
	got, workers, err := runFleet(spec, opt, c)
	stop()
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if got != want {
		t.Fatalf("post-crash fleet output diverged:\n--- local\n%s\n--- fleet\n%s", want, got)
	}
	ct.mu.Lock()
	crashed := ct.crashed
	ct.mu.Unlock()
	if !crashed {
		t.Fatal("victim worker never got a lease; the crash path was not exercised")
	}
	// The surviving worker must have contributed (w0's swallowed ack may
	// still have raced some cells in as duplicates-to-be, but the run
	// cannot have completed without w1 picking up the expired cells).
	found := false
	for _, w := range workers {
		if w == "w1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("surviving worker absent from contributors: %v", workers)
	}
}

// poisonRun is a kind whose one remoteable cell panics wherever it
// executes: the coordinator side ships the cell through opt.Remote, and
// the worker that leases it panics inside scenario.Run.
func poisonRun(_ *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	fanout := opt.NextFanout()
	if opt.Remote != nil {
		_, _, err := opt.Remote.RunCell(context.Background(), fanout, 0)
		return nil, err
	}
	if opt.Select != nil && opt.Select(fanout, 0) {
		panic("poison cell")
	}
	return nil, nil
}

func init() { scenario.RegisterKind("fleet-poison", poisonRun, nil) }

// TestGoldenFleetSurvivesPoisonLease: a lease whose cell panics on the
// worker (a spec that validates but cannot run) comes back failed
// instead of killing the worker, and the same worker then takes the
// next lease and renders its run byte-identically to the
// single-process one.
func TestGoldenFleetSurvivesPoisonLease(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // a real pool, not the sequential loop
	}
	opt := scenario.RunOptions{Seed: 42, Scale: scenario.Scale{JobFactor: 20}}
	c := NewCoordinator(Config{TTL: 30 * time.Second})
	defer c.Close()
	stop := startWorkers(t, c, 1)
	defer stop()

	poison := scenario.New("poison", "fleet-poison")
	if _, _, err := runFleet(poison, opt, c); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poison run: err = %v, want a failed lease naming the panic", err)
	}

	spec, _ := scenario.Lookup("mrt")
	want := runLocal(t, spec, opt)
	got, _, err := runFleet(spec, opt, c)
	if err != nil {
		t.Fatalf("run after the poison lease: %v", err)
	}
	if got != want {
		t.Fatalf("run after the poison lease diverged:\n--- local\n%s\n--- fleet\n%s", want, got)
	}
}
