package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
)

// Transport is how a worker reaches its coordinator. *Coordinator
// implements it directly (in-process fleets in tests); pkg/client
// implements it over the /v1/fleet HTTP surface. LeaseCells returning
// (nil, nil) means "no work yet, poll again".
type Transport interface {
	LeaseCells(ctx context.Context, req LeaseRequest) (*Lease, error)
	CompleteCells(ctx context.Context, req CompleteRequest) (CompleteResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
}

// WorkerConfig parameterizes RunWorker.
type WorkerConfig struct {
	// ID identifies the worker to the coordinator (default
	// "host-pid").
	ID string
	// Build is the identity offered in lease requests (default
	// api.CurrentBuild()).
	Build api.BuildInfo
	// Batch is the cells requested per lease. Default 4.
	Batch int
	// Poll is the lease long-poll wait. Default 5s.
	Poll time.Duration
	// Workers bounds the local pool executing a lease's cells
	// (0 = GOMAXPROCS).
	Workers int
	// Log, when set, narrates leases and failures.
	Log *log.Logger
}

func (c WorkerConfig) fill() WorkerConfig {
	if c.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if c.Build == (api.BuildInfo{}) {
		c.Build = api.CurrentBuild()
	}
	if c.Batch <= 0 {
		c.Batch = 4
	}
	if c.Poll <= 0 {
		c.Poll = 5 * time.Second
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c WorkerConfig) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log.Printf(format, args...)
	}
}

// RunWorker is the worker loop: lease, execute, complete, repeat,
// heartbeating while a lease is in flight. It returns nil when ctx is
// cancelled (graceful drain: finished cells of the current lease are
// still reported; unfinished ones requeue via lease expiry) and an
// error only when the coordinator refuses this build outright.
func RunWorker(ctx context.Context, tr Transport, cfg WorkerConfig) error {
	cfg = cfg.fill()
	for {
		if ctx.Err() != nil {
			return nil
		}
		ls, err := tr.LeaseCells(ctx, LeaseRequest{
			WorkerID: cfg.ID, Build: cfg.Build,
			MaxCells: cfg.Batch, WaitSeconds: cfg.Poll.Seconds(),
		})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if errors.Is(err, ErrIncompatible) {
				return err
			}
			cfg.logf("fleet worker %s: lease: %v", cfg.ID, err)
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				return nil
			}
			continue
		}
		if ls == nil {
			continue // long-poll lapsed without work
		}
		cfg.logf("fleet worker %s: leased %d cells of %s (lease %s)", cfg.ID, len(ls.Cells), ls.RunID, ls.ID)

		hctx, stopHeartbeat := context.WithCancel(ctx)
		var hwg sync.WaitGroup
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			heartbeatLoop(hctx, tr, cfg, ls)
		}()
		results := executeLease(ctx, ls, cfg.Workers)
		stopHeartbeat()
		hwg.Wait()

		if ctx.Err() != nil {
			// Draining: report only the cells that actually finished;
			// the rest requeue when the lease expires.
			kept := results[:0]
			for _, r := range results {
				if r.Error == "" {
					kept = append(kept, r)
				}
			}
			results = kept
			if len(results) == 0 {
				return nil
			}
		}
		// Completion must not die with the drain context: finished work
		// is valuable and the call is idempotent.
		cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		resp, err := tr.CompleteCells(cctx, CompleteRequest{
			WorkerID: cfg.ID, LeaseID: ls.ID, RunID: ls.RunID, Results: results,
		})
		cancel()
		if err != nil {
			cfg.logf("fleet worker %s: complete lease %s: %v", cfg.ID, ls.ID, err)
		} else if resp.Duplicates > 0 {
			cfg.logf("fleet worker %s: lease %s: %d accepted, %d duplicate", cfg.ID, ls.ID, resp.Accepted, resp.Duplicates)
		}
		if ctx.Err() != nil {
			return nil
		}
	}
}

// heartbeatLoop extends the lease while its cells execute. A reported
// expiry is not fatal: the work continues and its completion is simply
// judged (accepted or duplicate) by the coordinator.
func heartbeatLoop(ctx context.Context, tr Transport, cfg WorkerConfig, ls *Lease) {
	ttl := time.Duration(ls.TTLSeconds * float64(time.Second))
	period := ttl / 3
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			resp, err := tr.Heartbeat(ctx, HeartbeatRequest{WorkerID: cfg.ID, LeaseIDs: []string{ls.ID}})
			if err != nil {
				if ctx.Err() == nil {
					cfg.logf("fleet worker %s: heartbeat: %v", cfg.ID, err)
				}
				continue
			}
			if len(resp.Expired) > 0 {
				cfg.logf("fleet worker %s: lease %s expired under us", cfg.ID, ls.ID)
			}
		}
	}
}

// executeLease reproduces the leased cells locally: it decodes the
// run's spec, re-runs it with a Select filter that executes exactly
// the leased cells (every other cell is skipped unrun), and captures
// each cell's typed rows through the OnCellRows hook. Determinism
// comes for free: the worker evaluates the same fan-out expansion the
// coordinator did, with the same resolved seed, so (fanout, cell)
// names identical work on both sides.
//
// One CellResult per leased cell, always: cells the run never reached
// (an error upstream, a cancelled context) and cells that failed or
// panicked come back with an error so the coordinator can account for
// them, and the worker goes on to its next lease.
func executeLease(ctx context.Context, ls *Lease, localWorkers int) []CellResult {
	out := make([]CellResult, 0, len(ls.Cells))
	fail := func(msg string) []CellResult {
		for _, ref := range ls.Cells {
			out = append(out, CellResult{CellRef: ref, Error: msg})
		}
		return out
	}
	spec, err := scenario.Decode(bytes.NewReader(ls.Spec))
	if err != nil {
		return fail(fmt.Sprintf("decode spec: %v", err))
	}
	if spec.Traced() {
		// Trace recorders live inside cell closures and cannot ship
		// over the wire; coordinators never distribute traced runs.
		return fail("traced specs are not distributable")
	}
	want := make(map[CellRef]bool, len(ls.Cells))
	for _, ref := range ls.Cells {
		want[ref] = true
	}
	var mu sync.Mutex
	results := map[CellRef]CellResult{}
	opt := scenario.RunOptions{
		Seed: ls.Seed, SeedExplicit: true,
		Scale:   scenario.Scale{JobFactor: ls.JobFactor, Workers: localWorkers},
		Context: ctx,
		Select:  func(f, cl int) bool { return want[CellRef{Fanout: f, Cell: cl}] },
		OnCellRows: func(f, cl int, rows [][]any, d time.Duration) {
			ref := CellRef{Fanout: f, Cell: cl}
			cr := CellResult{CellRef: ref, DurationSeconds: d.Seconds()}
			if vals, err := scenario.EncodeRows(rows); err != nil {
				cr.Error = err.Error()
			} else {
				cr.Rows = vals
			}
			mu.Lock()
			results[ref] = cr
			mu.Unlock()
		},
	}
	_, runErr := scenario.Run(spec, opt)
	for _, ref := range ls.Cells {
		if cr, ok := results[ref]; ok {
			out = append(out, cr)
			continue
		}
		msg := "cell did not execute"
		if runErr != nil {
			msg = runErr.Error()
		}
		out = append(out, CellResult{CellRef: ref, Error: msg})
	}
	return out
}
