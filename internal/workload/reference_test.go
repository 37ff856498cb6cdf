package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// The generators as they stood before a job was priced only over the
// allocations it can be given — every job gets a full clamped table from
// referenceMakeTable before the rigid draw, names go through fmt — kept
// verbatim as the reference of TestSourcesMatchGenerators. The product
// sources must draw the same RNG sequence and agree on every value a
// scheduler can read.

// referenceMakeTable is MakeTable's single interface loop.
func referenceMakeTable(model SpeedupModel, seq float64, maxProcs int) []float64 {
	table := make([]float64, maxProcs)
	best := math.Inf(1)
	for p := 1; p <= maxProcs; p++ {
		t := model.Time(seq, p)
		if t < best {
			best = t
		}
		table[p-1] = best
	}
	return table
}

func referenceSequential(cfg GenConfig) []*Job {
	cfg = cfg.fill()
	rng := stats.NewRNG(cfg.Seed)
	clock := 0.0
	jobs := make([]*Job, cfg.N)
	for i := range jobs {
		if cfg.ArrivalRate > 0 {
			clock += rng.Exp(cfg.ArrivalRate)
		}
		j := &Job{
			ID:       i,
			Name:     fmt.Sprintf("seq-%d", i),
			Class:    "sequential",
			Kind:     Rigid,
			Release:  clock,
			Weight:   weight(rng, cfg.Weighted),
			DueDate:  -1,
			SeqTime:  rng.LogNormal(cfg.SeqMu, cfg.SeqSigma),
			MinProcs: 1,
			MaxProcs: 1,
			Model:    Linear{},
		}
		setDueDate(j, rng, cfg.DueDateSlack)
		jobs[i] = j
	}
	return jobs
}

func referenceParallel(cfg GenConfig) []*Job {
	cfg = cfg.fill()
	rng := stats.NewRNG(cfg.Seed)
	clock := 0.0
	jobs := make([]*Job, cfg.N)
	for i := range jobs {
		if cfg.ArrivalRate > 0 {
			clock += rng.Exp(cfg.ArrivalRate)
		}
		seq := rng.LogNormal(cfg.SeqMu, cfg.SeqSigma)
		model := randomModel(rng)
		maxP := rng.IntRange(1, cfg.M)
		if cfg.MaxProcsCap > 0 && maxP > cfg.MaxProcsCap {
			maxP = cfg.MaxProcsCap
		}
		j := &Job{
			ID:       i,
			Name:     fmt.Sprintf("par-%d", i),
			Class:    "parallel",
			Kind:     Moldable,
			Release:  clock,
			Weight:   weight(rng, cfg.Weighted),
			DueDate:  -1,
			SeqTime:  seq,
			MinProcs: 1,
			MaxProcs: maxP,
			Model:    model,
			Times:    referenceMakeTable(model, seq, maxP),
		}
		if rng.Bool(cfg.RigidFraction) {
			p := rng.IntRange(1, maxP)
			j.Kind = Rigid
			j.MinProcs, j.MaxProcs = p, p
		}
		setDueDate(j, rng, cfg.DueDateSlack)
		jobs[i] = j
	}
	return jobs
}

func referenceMixed(cfg GenConfig) []*Job {
	if cfg.RigidFraction == 0 {
		cfg.RigidFraction = 0.3
	}
	return referenceParallel(cfg)
}

func referenceCommunities(mix []Community, n, m int, rate float64, seed uint64) []*Job {
	rng := stats.NewRNG(seed)
	shares := make([]float64, len(mix))
	for i, c := range mix {
		shares[i] = c.Share
	}
	clock := 0.0
	jobs := make([]*Job, n)
	for i := range jobs {
		if rate > 0 {
			clock += rng.Exp(rate)
		}
		c := mix[rng.Choice(shares)]
		seq := rng.LogNormal(c.SeqMu, c.SeqSigma)
		maxP := rng.IntRange(c.MaxProcsLo, c.MaxProcsHi)
		if maxP > m {
			maxP = m
		}
		model := SpeedupModel(Amdahl{Alpha: 0.05})
		j := &Job{
			ID:       i,
			Name:     fmt.Sprintf("%s-%d", c.Name, i),
			Class:    c.Name,
			Kind:     Moldable,
			Release:  clock,
			Weight:   c.Weight,
			DueDate:  -1,
			SeqTime:  seq,
			MinProcs: 1,
			MaxProcs: maxP,
			Model:    model,
			Times:    referenceMakeTable(model, seq, maxP),
		}
		if rng.Bool(c.RigidProb) {
			p := rng.IntRange(1, maxP)
			j.Kind = Rigid
			j.MinProcs, j.MaxProcs = p, p
		}
		jobs[i] = j
	}
	return jobs
}
