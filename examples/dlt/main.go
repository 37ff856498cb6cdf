// Divisible load (§2.1): distribute a large multi-parametric workload on
// a heterogeneous star platform with the three policies the paper
// discusses — optimal single round, multi-round, and dynamic
// self-scheduling — and show where each wins as latency grows.
package main

import (
	"fmt"
	"log"

	"repro/internal/dlt"
)

func main() {
	// A small heterogeneous platform: fast workers on slow links and
	// vice versa (the interesting DLT regime).
	star := &dlt.Star{Workers: []dlt.Worker{
		{Compute: 0.8, Link: 0.02}, // itanium
		{Compute: 1.0, Link: 0.08}, // xeon
		{Compute: 1.3, Link: 0.40}, // athlon-a
		{Compute: 1.3, Link: 0.40}, // athlon-b
	}}
	const W = 10000.0 // total load units

	fmt.Printf("star platform, %d workers, load %g\n", len(star.Workers), W)
	fmt.Printf("steady-state throughput bound: %.3f units/s\n\n", dlt.SteadyStateThroughput(star))

	fmt.Printf("%10s  %12s  %12s  %14s\n", "latency", "1 round", "10 rounds", "self-sched")
	for _, latency := range []float64{0, 1, 10, 100} {
		star.Latency = latency
		one, err := dlt.SingleRound(star, W)
		if err != nil {
			log.Fatal(err)
		}
		ten, err := dlt.MultiRound(star, W, 10)
		if err != nil {
			log.Fatal(err)
		}
		dyn, err := dlt.SelfSchedule(star, W, W/100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10g  %12.0f  %12.0f  %14.0f\n",
			latency, one.Makespan, ten.Makespan, dyn.Makespan)
	}

	fmt.Println("\nmulti-round overlaps communication with computation and wins at")
	fmt.Println("low latency; single round wins once per-message latency dominates —")
	fmt.Println("the §2.1 trade-off (NP-hard in general topologies, closed form here).")
}
