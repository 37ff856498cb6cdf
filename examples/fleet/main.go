// Fleet: shard one scenario's cells across a worker fleet and prove
// the distributed result is byte-identical to the single-process one.
//
// This drives the coordinator and workers in-process (the coordinator
// is its own Transport), which is the same machinery `gridd -fleet`
// and `gridd -worker` run across real machines — see README.md in
// this directory for the multi-process walkthrough.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	_ "repro/internal/experiments" // register the built-in scenario catalog
	"repro/internal/fleet"
	"repro/internal/scenario"
)

func main() {
	spec, ok := scenario.Lookup("mrt")
	if !ok {
		log.Fatal("mrt not in catalog")
	}
	opt := scenario.RunOptions{Seed: 42, Scale: scenario.Scale{JobFactor: 20}}

	// The reference: one process, no fleet.
	local, err := scenario.Run(spec, opt)
	if err != nil {
		log.Fatal(err)
	}
	var want bytes.Buffer
	if err := local.Emit(&want, false); err != nil {
		log.Fatal(err)
	}

	// A coordinator plus three workers. Over HTTP the workers would use
	// pkg/client as the Transport; in-process the coordinator is one.
	c := fleet.NewCoordinator(fleet.Config{TTL: 30 * time.Second})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fleet.RunWorker(ctx, c, fleet.WorkerConfig{
				ID: fmt.Sprintf("node-%d", i), Batch: 2, Poll: 50 * time.Millisecond,
			})
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	// Exactly what the daemon's run executor does: resolve the seed,
	// register the run with the coordinator for as long as its context
	// lives, and hand the returned cell runner to the scenario engine via
	// RunOptions.Remote.
	cr, err := c.Dispatcher(ctx, "example-mrt", spec, spec.EffectiveSeed(opt), opt.Scale.JobFactor)
	if err != nil {
		log.Fatal(err)
	}
	opt.Remote = cr
	dist, err := scenario.Run(spec, opt)
	if err != nil {
		log.Fatal(err)
	}
	var got bytes.Buffer
	if err := dist.Emit(&got, false); err != nil {
		log.Fatal(err)
	}

	fmt.Print(got.String())
	if got.String() != want.String() {
		log.Fatal("distributed table diverged from the single-process run")
	}
	fmt.Printf("\nbyte-identical to the single-process run; contributors: %v\n", cr.Workers())
	for _, w := range c.WorkersStatus() {
		fmt.Printf("  %-8s leased->done %d cells (%.1f cells/s)\n", w.ID, w.CellsDone, w.CellsPerSec)
	}
}
