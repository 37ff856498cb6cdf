package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/pkg/client"
)

// fleetWorkers is the number of worker processes (or, traced, worker
// goroutines) behind the coordinator.
const fleetWorkers = 2

// bootFleet starts a coordinator and its workers and waits until every
// worker has registered with a lease request.
func bootFleet(e *env, i int) (*stack, error) {
	dir := filepath.Join(e.tmp, fmt.Sprintf("data-%d", i))
	coord, base, err := startGridd(e, fmt.Sprintf("coordinator-%d", i), dir, "-fleet")
	if err != nil {
		return nil, err
	}
	st := &stack{procs: []*child{coord}, base: base, dataDir: dir}
	for w := 1; w <= fleetWorkers; w++ {
		name := fmt.Sprintf("worker-%d-%d", i, w)
		c, err := startChild(name, filepath.Join(e.tmp, name+".log"), griddBin(e.root),
			"-worker", "-coordinator", base, "-worker-id", fmt.Sprintf("w%d", w), "-worker-pool", "1")
		if err != nil {
			return nil, err
		}
		st.procs = append(st.procs, c)
	}
	cl := client.New(base, client.WithRetries(0))
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		ws, err := cl.FleetWorkers(ctx)
		cancel()
		if err == nil && len(ws) == fleetWorkers {
			return st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("fleet: %d of %d workers registered within 15s (last error: %v)\n%s",
				len(ws), fleetWorkers, err, st.procs[1].logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// runFleetShard submits paper-scale multi-cell runs one at a time, so
// that each run's cells shard across both workers.
func runFleetShard(e *env) error {
	buildT, err := buildGridd(e.root)
	if err != nil {
		return err
	}
	e.out.info["build_s"] = buildT.Seconds()
	next := distinctRuns(fleetIDs, e.seed, false)
	if e.traced {
		return traceFleet(e, buildT, next)
	}
	st, setupS, err := bootStacks(e, func(i int) (*stack, error) { return bootFleet(e, i) })
	if err != nil {
		return err
	}
	l := slicedLoad(e, loadConfig{base: st.base, clients: 1, window: e.window, next: next, cpu: st.cpu})
	rssMB := st.stop()
	e.out.info["verified_ops"] = verifyTexts(l.ops, 12)
	e.out.info["clients"] = 1
	e.out.info["workers"] = fleetWorkers
	return reportServing(e, setupS, summarise(e, l), rssMB)
}
