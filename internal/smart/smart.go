// Package smart implements the shelf-based algorithm of Schwiegelshohn,
// Ludwig, Wolf, Turek and Yu ("SMART bounds for weighted response time
// scheduling") cited in §4.3 of the paper: rigid Parallel Tasks are
// packed onto shelves whose heights are powers of two, shelves are filled
// first-fit, and the shelf order follows Smith's rule on aggregate shelf
// weight — giving constant performance ratios for ΣCi (8) and ΣωiCi
// (8.53). The paper uses it as the baseline that batch scheduling with
// better internal algorithms improves upon.
package smart

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sched"
	"repro/internal/workload"
)

// Fill selects the shelf-filling rule (the paper's version uses first
// fit; best fit is the ablation).
type Fill int

const (
	// FirstFit places each job on the first shelf of its class with room.
	FirstFit Fill = iota
	// BestFit places each job on the fullest shelf of its class with room.
	BestFit
)

// shelf is one power-of-two shelf under construction.
type shelf struct {
	height float64
	width  int
	weight float64
	jobs   []*workload.Job
}

// Schedule packs the rigid jobs and returns the shelf schedule ordered by
// Smith's rule, plus the shelf count (diagnostics). Moldable jobs are
// frozen at MinProcs.
func Schedule(jobs []*workload.Job, m int, fill Fill) (*sched.Schedule, int, error) {
	// Classify jobs by shelf class: smallest k with 2^k >= time.
	// Jobs are inserted in decreasing width within each class so first
	// fit packs tightly.
	type item struct {
		job   *workload.Job
		procs int
		time  float64
		class int
	}
	items := make([]item, 0, len(jobs))
	for _, j := range jobs {
		procs := j.MinProcs
		if procs > m {
			return nil, 0, fmt.Errorf("smart: job %d needs %d > %d procs", j.ID, procs, m)
		}
		t := j.TimeOn(procs)
		if t <= 0 {
			return nil, 0, fmt.Errorf("smart: job %d has non-positive time", j.ID)
		}
		// class = ceil(log2 t), with exact powers of two staying put.
		class := int(math.Ceil(math.Log2(t) - 1e-12))
		items = append(items, item{job: j, procs: procs, time: t, class: class})
	}
	slices.SortStableFunc(items, func(a, b item) int {
		return cmp.Or(
			cmp.Compare(a.class, b.class),
			cmp.Compare(b.procs, a.procs), // wider first
			cmp.Compare(a.job.ID, b.job.ID))
	})

	shelvesByClass := map[int][]*shelf{}
	var shelves []*shelf
	for _, it := range items {
		group := shelvesByClass[it.class]
		var target *shelf
		switch fill {
		case BestFit:
			bestRem := math.MaxInt32
			for _, sh := range group {
				rem := m - sh.width
				if rem >= it.procs && rem < bestRem {
					bestRem = rem
					target = sh
				}
			}
		default: // FirstFit
			for _, sh := range group {
				if sh.width+it.procs <= m {
					target = sh
					break
				}
			}
		}
		if target == nil {
			target = &shelf{height: math.Pow(2, float64(it.class))}
			shelvesByClass[it.class] = append(shelvesByClass[it.class], target)
			shelves = append(shelves, target)
		}
		target.jobs = append(target.jobs, it.job)
		target.width += it.procs
		target.weight += it.job.Weight
	}

	// Smith's rule over shelves: ascending height/weight. Shelves with
	// zero weight go last (they only delay others).
	smithBefore := func(a, b *shelf) bool {
		wa, wb := a.weight, b.weight
		switch {
		case wa > 0 && wb > 0:
			return a.height*wb < b.height*wa
		case wa > 0:
			return true
		case wb > 0:
			return false
		default:
			return a.height < b.height
		}
	}
	slices.SortStableFunc(shelves, func(a, b *shelf) int {
		switch {
		case smithBefore(a, b):
			return -1
		case smithBefore(b, a):
			return 1
		}
		return 0
	})

	s := sched.New(m)
	clock := 0.0
	for _, sh := range shelves {
		for _, j := range sh.jobs {
			s.Add(sched.Alloc{Job: j, Start: clock, Procs: j.MinProcs})
		}
		clock += sh.height
	}
	return s, len(shelves), nil
}

// RatioUnweighted is the proven §4.3 bound for ΣCi.
const RatioUnweighted = 8.0

// RatioWeighted is the proven §4.3 bound for ΣωiCi.
const RatioWeighted = 8.53
