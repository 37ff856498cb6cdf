package workload

import (
	"strconv"

	"repro/internal/stats"
)

// Source is a pull iterator over a job stream. Next returns the next
// job until the stream is exhausted. Sources let simulations admit jobs
// lazily — peak memory tracks the jobs currently in flight, not the
// total stream length — which is what makes multi-million-job archive
// replays feasible.
//
// Sources that can fail mid-stream (e.g. trace readers) additionally
// implement Err() error; consumers check it after Next returns false.
// Streams are expected in non-decreasing Release order (every generator
// here and sorted SWF archives satisfy this); a consumer admitting
// lazily clamps any out-of-order release to its own current time.
//
// A consumer may drain a source ahead of need, from another goroutine,
// one call at a time (cluster.Sim.Stream reads a batch ahead). A source
// must therefore not read its consumer's state.
type Source interface {
	Next() (*Job, bool)
}

// SizeHinter is an optional Source extension: a known remaining stream
// length lets collectors preallocate.
type SizeHinter interface {
	SizeHint() int
}

// Collect drains a source into a slice (the materialized form the
// offline algorithms need).
func Collect(s Source) []*Job {
	var jobs []*Job
	if h, ok := s.(SizeHinter); ok {
		jobs = make([]*Job, 0, h.SizeHint())
	}
	for {
		j, ok := s.Next()
		if !ok {
			return jobs
		}
		jobs = append(jobs, j)
	}
}

// genSource backs the synthetic generators: gen produces job i, drawing
// from the captured RNG in exactly the order the eager generators did,
// so Collect(XxxSource(cfg)) is byte-identical to Xxx(cfg).
type genSource struct {
	n, i int
	gen  func(i int) *Job
}

func (g *genSource) Next() (*Job, bool) {
	if g.i >= g.n {
		return nil, false
	}
	j := g.gen(g.i)
	g.i++
	return j, true
}

func (g *genSource) SizeHint() int { return g.n - g.i }

// jobName returns prefix-i, the name of generated job i, assembled in a
// stack buffer: the string is the only allocation, and fmt stays off the
// per-job path.
func jobName(prefix string, i int) string {
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = append(b, '-')
	return string(strconv.AppendInt(b, int64(i), 10))
}

// price draws whether the moldable job j is frozen rigid (with
// probability rigidProb, at a uniform legal width) and then gives it
// the time table of the allocations it can be given: MakeTable over
// [1, MaxProcs] for a moldable job, the single entry Times[p-1] for a
// job frozen at p. That entry is Model.Time(SeqTime, p) itself: the
// generator models (Amdahl, PowerLaw) are non-increasing in p in floating
// point, so the running minimum MakeTable would have taken over [1, p]
// is its last element (TestGeneratorModelsNeverClamp). MakeTable draws
// nothing, so the RNG sees the order it always did.
func price(j *Job, rng *stats.RNG, rigidProb float64) {
	if !rng.Bool(rigidProb) {
		j.Times = MakeTable(j.Model, j.SeqTime, j.MaxProcs)
		return
	}
	p := rng.IntRange(1, j.MaxProcs)
	j.Kind = Rigid
	j.MinProcs, j.MaxProcs = p, p
	j.Times = make([]float64, p)
	j.Times[p-1] = j.Model.Time(j.SeqTime, p)
}

// SequentialSource streams the Sequential workload without
// materializing it.
func SequentialSource(cfg GenConfig) Source {
	cfg = cfg.fill()
	rng := stats.NewRNG(cfg.Seed)
	clock := 0.0
	return &genSource{n: cfg.N, gen: func(i int) *Job {
		if cfg.ArrivalRate > 0 {
			clock += rng.Exp(cfg.ArrivalRate)
		}
		j := &Job{
			ID:       i,
			Name:     jobName("seq", i),
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
		return j
	}}
}

// ParallelSource streams the Parallel workload without materializing it.
func ParallelSource(cfg GenConfig) Source {
	cfg = cfg.fill()
	rng := stats.NewRNG(cfg.Seed)
	clock := 0.0
	return &genSource{n: cfg.N, gen: func(i int) *Job {
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
			Name:     jobName("par", i),
			Class:    "parallel",
			Kind:     Moldable,
			Release:  clock,
			Weight:   weight(rng, cfg.Weighted),
			DueDate:  -1,
			SeqTime:  seq,
			MinProcs: 1,
			MaxProcs: maxP,
			Model:    model,
		}
		price(j, rng, cfg.RigidFraction)
		setDueDate(j, rng, cfg.DueDateSlack)
		return j
	}}
}

// MixedSource streams the Mixed (§5.1) workload without materializing it.
func MixedSource(cfg GenConfig) Source {
	if cfg.RigidFraction == 0 {
		cfg.RigidFraction = 0.3
	}
	return ParallelSource(cfg)
}

// communityModel prices every CIMENT community job; boxed once here
// rather than once per job.
var communityModel SpeedupModel = Amdahl{Alpha: 0.05}

// CommunitiesSource streams the Communities (§5.2) workload without
// materializing it.
func CommunitiesSource(mix []Community, n, m int, rate float64, seed uint64) Source {
	rng := stats.NewRNG(seed)
	shares := make([]float64, len(mix))
	for i, c := range mix {
		shares[i] = c.Share
	}
	clock := 0.0
	return &genSource{n: n, gen: func(i int) *Job {
		if rate > 0 {
			clock += rng.Exp(rate)
		}
		c := mix[rng.Choice(shares)]
		seq := rng.LogNormal(c.SeqMu, c.SeqSigma)
		maxP := rng.IntRange(c.MaxProcsLo, c.MaxProcsHi)
		if maxP > m {
			maxP = m
		}
		j := &Job{
			ID:       i,
			Name:     jobName(c.Name, i),
			Class:    c.Name,
			Kind:     Moldable,
			Release:  clock,
			Weight:   c.Weight,
			DueDate:  -1,
			SeqTime:  seq,
			MinProcs: 1,
			MaxProcs: maxP,
			Model:    communityModel,
		}
		price(j, rng, c.RigidProb)
		return j
	}}
}
