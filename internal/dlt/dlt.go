// Package dlt implements the Divisible Load model of §2.1 of the paper:
// an application is an arbitrarily-partitionable mass of independent
// fine-grain computation (the multi-parametric jobs of §5.2), distributed
// by a master to workers over a one-port network. The package provides
// the closed-form optimal single-round distribution on bus and star
// platforms (all participating workers finish simultaneously, links
// served by non-decreasing communication cost), fixed-R multi-round
// distribution, the dynamic self-scheduling ("work stealing") strategy,
// and the asymptotic steady-state throughput bound that the paper invokes
// for multi-parametric workloads.
package dlt

import (
	"fmt"
	"math"
	"slices"
)

// Worker is one compute resource of a star (or bus) platform.
// Compute is the time to process one unit of load; Link is the time to
// transfer one unit of load to this worker over its private link. On a
// bus platform all Link values are equal.
type Worker struct {
	Compute float64
	Link    float64
}

// Star is a master-worker platform under the one-port model: the master
// sends to one worker at a time. Latency is the fixed per-message cost
// (the affine communication model); zero gives the linear model with its
// clean closed forms.
type Star struct {
	Workers []Worker
	Latency float64
}

// Validate checks platform invariants.
func (s *Star) Validate() error {
	if len(s.Workers) == 0 {
		return fmt.Errorf("dlt: star with no workers")
	}
	if s.Latency < 0 {
		return fmt.Errorf("dlt: negative latency %v", s.Latency)
	}
	for i, w := range s.Workers {
		if w.Compute <= 0 {
			return fmt.Errorf("dlt: worker %d compute rate %v", i, w.Compute)
		}
		if w.Link < 0 {
			return fmt.Errorf("dlt: worker %d link rate %v", i, w.Link)
		}
	}
	return nil
}

// Bus builds a homogeneous-link platform: n workers with the given
// compute times and a shared link cost.
func Bus(computes []float64, link, latency float64) *Star {
	ws := make([]Worker, len(computes))
	for i, c := range computes {
		ws[i] = Worker{Compute: c, Link: link}
	}
	return &Star{Workers: ws, Latency: latency}
}

// Distribution is the outcome of a distribution policy.
type Distribution struct {
	// Alpha[i] is the load fraction given to worker i (same order as the
	// platform's worker list); zero for non-participating workers.
	Alpha []float64
	// Makespan is the completion time of the whole load.
	Makespan float64
	// Messages counts master sends (for overhead accounting).
	Messages int
}

// ordering returns worker indices sorted by non-decreasing link cost —
// the optimal service order for single-round distribution (faster links
// first dominate: a classical DLT exchange argument).
func ordering(s *Star) []int {
	idx := make([]int, len(s.Workers))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		wa, wb := s.Workers[a], s.Workers[b]
		ka, kb := wa.Compute, wb.Compute
		if wa.Link != wb.Link {
			ka, kb = wa.Link, wb.Link
		}
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	return idx
}

// SingleRound computes the optimal one-round distribution of load W on
// the platform: workers served in non-decreasing link cost, fractions
// chosen so all participants finish simultaneously. With non-zero latency
// some workers may be dropped (serving them costs more than they
// contribute); the best participating prefix is selected.
func SingleRound(s *Star, W float64) (*Distribution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if W <= 0 {
		return nil, fmt.Errorf("dlt: non-positive load %v", W)
	}
	order := ordering(s)
	best := (*Distribution)(nil)
	for k := 1; k <= len(order); k++ {
		d, ok := singleRoundPrefix(s, W, order[:k])
		if !ok {
			continue
		}
		if best == nil || d.Makespan < best.Makespan {
			best = d
		}
	}
	if best == nil {
		return nil, fmt.Errorf("dlt: no feasible single-round distribution")
	}
	return best, nil
}

// singleRoundPrefix solves the simultaneous-completion linear system for
// the given participating workers (in service order):
//
//	t_i   = t_{i-1} + L + α_i·c_i·W        (one-port sends)
//	T     = t_i + α_i·w_i·W                (all finish at T)
//
// which gives α_{i+1} = (α_i·w_i·W − L) / ((c_{i+1}+w_{i+1})·W), an
// affine recurrence α_i = A_i·α_1 + B_i closed by Σα = 1. Returns
// ok=false when the system forces a negative fraction (too many workers
// for the latency).
func singleRoundPrefix(s *Star, W float64, order []int) (*Distribution, bool) {
	n := len(order)
	A := make([]float64, n)
	B := make([]float64, n)
	A[0], B[0] = 1, 0
	for i := 0; i+1 < n; i++ {
		wi := s.Workers[order[i]]
		next := s.Workers[order[i+1]]
		den := (next.Link + next.Compute) * W
		A[i+1] = A[i] * wi.Compute * W / den
		B[i+1] = (B[i]*wi.Compute*W - s.Latency) / den
	}
	var sumA, sumB float64
	for i := 0; i < n; i++ {
		sumA += A[i]
		sumB += B[i]
	}
	if sumA <= 0 {
		return nil, false
	}
	alpha1 := (1 - sumB) / sumA
	alpha := make([]float64, len(s.Workers))
	for i := 0; i < n; i++ {
		a := A[i]*alpha1 + B[i]
		if a < -1e-12 {
			return nil, false
		}
		if a < 0 {
			a = 0
		}
		alpha[order[i]] = a
	}
	// Makespan from the first worker: T = L + α_1(c_1 + w_1)W.
	first := s.Workers[order[0]]
	T := s.Latency + alpha[order[0]]*(first.Link+first.Compute)*W
	return &Distribution{Alpha: alpha, Makespan: T, Messages: n}, true
}

// MultiRound distributes the load in R equal-size rounds, each split
// with the no-latency simultaneous-finish proportions, and simulates the
// one-port timeline exactly (a worker may still be computing the previous
// chunk when the next one lands; computation then queues). Overlapping
// communication with computation is what multi-round buys; per-message
// latency is what it pays (R·n messages).
func MultiRound(s *Star, W float64, R int) (*Distribution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if W <= 0 {
		return nil, fmt.Errorf("dlt: non-positive load %v", W)
	}
	if R <= 0 {
		return nil, fmt.Errorf("dlt: %d rounds", R)
	}
	order := ordering(s)
	// Intra-round proportions from the latency-free closed form over all
	// workers, which cannot fail: with L = 0 every B_i is 0, A_1 = 1 and
	// every A_i is positive, so no fraction is negative.
	base, _ := singleRoundPrefix(&Star{Workers: s.Workers}, W, order)
	alpha := base.Alpha

	clock := 0.0 // master port free time
	workerFree := make([]float64, len(s.Workers))
	finish := 0.0
	messages := 0
	perRound := W / float64(R)
	total := make([]float64, len(s.Workers))
	for r := 0; r < R; r++ {
		for _, wi := range order {
			load := alpha[wi] * perRound
			if load <= 0 {
				continue
			}
			w := s.Workers[wi]
			clock += s.Latency + load*w.Link // one-port send
			messages++
			start := math.Max(clock, workerFree[wi])
			workerFree[wi] = start + load*w.Compute
			if workerFree[wi] > finish {
				finish = workerFree[wi]
			}
			total[wi] += load
		}
	}
	for i := range total {
		total[i] /= W
	}
	return &Distribution{Alpha: total, Makespan: finish, Messages: messages}, nil
}

// SelfSchedule simulates the dynamic strategy of §2.1 ([3]-style work
// stealing flattened to master-worker self-scheduling): the load is cut
// into fixed-size chunks and idle workers fetch the next chunk over the
// one-port link. No sizing knowledge is needed — the baseline for
// comparing against the omniscient closed forms.
func SelfSchedule(s *Star, W float64, chunk float64) (*Distribution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if W <= 0 || chunk <= 0 {
		return nil, fmt.Errorf("dlt: load %v, chunk %v", W, chunk)
	}
	remaining := W
	clock := 0.0 // master port
	workerFree := make([]float64, len(s.Workers))
	total := make([]float64, len(s.Workers))
	finish := 0.0
	messages := 0
	for remaining > 1e-15 {
		load := math.Min(chunk, remaining)
		remaining -= load
		// Next worker to request: the one that frees earliest, with the
		// tie broken toward faster links (its request reaches the master
		// first).
		wi := 0
		bestReady := math.Inf(1)
		for i := range s.Workers {
			ready := workerFree[i]
			if ready < bestReady || (ready == bestReady && s.Workers[i].Link < s.Workers[wi].Link) {
				bestReady = ready
				wi = i
			}
		}
		w := s.Workers[wi]
		sendStart := math.Max(clock, 0)
		clock = sendStart + s.Latency + load*w.Link
		messages++
		start := math.Max(clock, workerFree[wi])
		workerFree[wi] = start + load*w.Compute
		total[wi] += load
		if workerFree[wi] > finish {
			finish = workerFree[wi]
		}
	}
	for i := range total {
		total[i] /= W
	}
	return &Distribution{Alpha: total, Makespan: finish, Messages: messages}, nil
}

// LowerBound returns a certified makespan lower bound for distributing
// load W on the platform: the pipelined bound max over k of the time for
// the k fastest-link workers to receive and compute everything
// (simplified to the two classical terms: pure compute with infinite
// bandwidth, and the master's port serialization on the cheapest link).
func LowerBound(s *Star, W float64) float64 {
	var invSum float64
	minLink := math.Inf(1)
	for _, w := range s.Workers {
		invSum += 1 / w.Compute
		if w.Link < minLink {
			minLink = w.Link
		}
	}
	compute := W / invSum // all workers crunching in parallel, no comm
	port := W * minLink   // master must push every unit through its port
	return math.Max(compute, port)
}

// SteadyStateThroughput returns the optimal asymptotic throughput (load
// units per time) for an endless supply of divisible work — the §5.2
// observation that multi-parametric jobs admit polynomial optimal
// steady-state solutions. Classical bandwidth-centric result: saturate
// workers in increasing link-cost order while the master port allows,
// i.e. maximize Σ x_i subject to x_i ≤ 1/w_i and Σ x_i·c_i ≤ 1.
func SteadyStateThroughput(s *Star) float64 {
	order := ordering(s)
	portBudget := 1.0
	var rate float64
	for _, wi := range order {
		w := s.Workers[wi]
		maxRate := 1 / w.Compute
		if w.Link <= 0 {
			rate += maxRate
			continue
		}
		affordable := portBudget / w.Link
		x := math.Min(maxRate, affordable)
		rate += x
		portBudget -= x * w.Link
		if portBudget <= 1e-15 {
			break
		}
	}
	return rate
}
