package workload

import (
	"math"
	"slices"
	"strconv"
	"strings"

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

// genSlab is the number of jobs genSource asks one slab allocation for.
const genSlab = 64

// genSource backs the synthetic generators: gen draws job i into a zero
// Job, from the captured RNG in exactly the order the eager generators
// did, so Collect(XxxSource(cfg)) is byte-identical to Xxx(cfg).
//
// Jobs are built in place a slab at a time and handed out as &slab[k],
// like trace.SWFJobSource: gen draws the whole slab first, so that its
// sizes are known, and fill then names, prices and dates each job. A
// slab costs at most three allocations: its []Job, of genSlab jobs or as
// many more as the allocation's size class holds (never past the end of
// the stream); one string that holds its names; and, when the source
// prices its jobs, one arena for its time tables, sized to what they
// need and rounded up to its size class. The next slab's tables go first
// into what that arena has left.
//
// gen leaves two things for fill in the fields they become: the prefix
// of the job's name in Name (the job is named prefix-ID), and the
// due-date slack in DueDate (-1: no due date), to be turned into a date
// once the job is priced.
type genSource struct {
	n, i   int
	gen    func(i int, j *Job)
	priced bool      // every job carries a table over [MinProcs, MaxProcs]
	slab   []Job     // the built jobs of the current slab not yet handed out
	spare  []float64 // what the last arena has left
}

func (g *genSource) Next() (*Job, bool) {
	if g.i >= g.n {
		return nil, false
	}
	if len(g.slab) == 0 {
		g.fill()
	}
	j := &g.slab[0]
	g.slab = g.slab[1:]
	g.i++
	return j, true
}

// fill builds the next slab: the jobs from g.i on, no more than the
// stream has left.
func (g *genSource) fill() {
	slab := slices.Grow([]Job(nil), min(genSlab, g.n-g.i))
	slab = slab[:min(cap(slab), g.n-g.i)]
	var digits [20]byte
	nameLen, tableLen := 0, 0
	for k := range slab {
		j := &slab[k]
		g.gen(g.i+k, j)
		nameLen += len(j.Name) + 1 + len(strconv.AppendInt(digits[:0], int64(j.ID), 10))
		if g.priced {
			tableLen += j.MaxProcs - j.MinProcs + 1
		}
	}
	// The builder never grows past its first buffer, so every String
	// views that one buffer, and each name is a substring of it.
	var names strings.Builder
	names.Grow(nameLen)
	arena, left := g.spare, tableLen
	for k := range slab {
		j := &slab[k]
		from := names.Len()
		names.WriteString(j.Name)
		names.WriteByte('-')
		names.Write(strconv.AppendInt(digits[:0], int64(j.ID), 10))
		j.Name = names.String()[from:]
		if g.priced {
			// Three indices: no table can grow into the next one.
			w := j.MaxProcs - j.MinProcs + 1
			if len(arena) < w {
				arena = slices.Grow([]float64(nil), left)
				arena = arena[:cap(arena)]
			}
			j.Times, arena, left = arena[:w:w], arena[w:], left-w
			price(j)
		}
		if slack := j.DueDate; slack >= 0 {
			j.DueDate = j.Release + slack*j.TimeOn(j.MinProcs)
		}
	}
	g.slab, g.spare = slab, arena
}

func (g *genSource) SizeHint() int { return g.n - g.i }

// drawRigid draws whether the moldable job j is frozen rigid, with
// probability rigidProb, at a uniform legal width.
func drawRigid(j *Job, rng *stats.RNG, rigidProb float64) {
	if rng.Bool(rigidProb) {
		p := rng.IntRange(1, j.MaxProcs)
		j.Kind = Rigid
		j.MinProcs, j.MaxProcs = p, p
	}
}

// price fills the table of the allocations the job can be given:
// MakeTable over [1, MaxProcs] for a moldable job, the one value
// Times[0] for a job frozen at p. That value is Model.Time(SeqTime, p)
// itself: the generator models (Amdahl, PowerLaw) are non-increasing in
// p in floating point, so the running minimum MakeTable would have taken
// over [1, p] is its last element (TestGeneratorModelsNeverClamp).
// Pricing draws nothing, so the RNG sees the order it always did.
func price(j *Job) {
	if j.Kind == Rigid {
		j.Times[0] = j.Model.Time(j.SeqTime, j.MinProcs)
		return
	}
	fillTable(j.Times, j.Model, j.SeqTime)
}

// dueSlack draws the due-date slack of a job, in [1, slackMax], or
// draws nothing and returns -1, no due date, when slackMax is not
// positive.
func dueSlack(rng *stats.RNG, slackMax float64) float64 {
	if slackMax <= 0 {
		return -1
	}
	return rng.Range(1, math.Max(slackMax, 1.0000001))
}

// The generators below fill each Job field by field rather than with a
// composite literal, which would build the whole Job in a temporary and
// copy it into the slab behind a bulk write barrier. Fields are drawn in
// the order the literals of the eager generators drew them.

// SequentialSource streams the Sequential workload without
// materializing it.
func SequentialSource(cfg GenConfig) Source {
	cfg = cfg.fill()
	rng := stats.NewRNG(cfg.Seed)
	clock := 0.0
	return &genSource{n: cfg.N, gen: func(i int, j *Job) {
		if cfg.ArrivalRate > 0 {
			clock += rng.Exp(cfg.ArrivalRate)
		}
		j.ID, j.Name, j.Class, j.Kind, j.Release = i, "seq", "sequential", Rigid, clock
		j.Weight = weight(rng, cfg.Weighted)
		j.SeqTime = rng.LogNormal(cfg.SeqMu, cfg.SeqSigma)
		j.MinProcs, j.MaxProcs, j.Model = 1, 1, Linear{}
		j.DueDate = dueSlack(rng, cfg.DueDateSlack)
	}}
}

// ParallelSource streams the Parallel workload without materializing it.
func ParallelSource(cfg GenConfig) Source {
	cfg = cfg.fill()
	rng := stats.NewRNG(cfg.Seed)
	clock := 0.0
	return &genSource{n: cfg.N, priced: true, gen: func(i int, j *Job) {
		if cfg.ArrivalRate > 0 {
			clock += rng.Exp(cfg.ArrivalRate)
		}
		seq := rng.LogNormal(cfg.SeqMu, cfg.SeqSigma)
		model := randomModel(rng)
		maxP := rng.IntRange(1, cfg.M)
		if cfg.MaxProcsCap > 0 && maxP > cfg.MaxProcsCap {
			maxP = cfg.MaxProcsCap
		}
		j.ID, j.Name, j.Class, j.Kind, j.Release = i, "par", "parallel", Moldable, clock
		j.Weight = weight(rng, cfg.Weighted)
		j.SeqTime, j.MinProcs, j.MaxProcs, j.Model = seq, 1, maxP, model
		drawRigid(j, rng, cfg.RigidFraction)
		j.DueDate = dueSlack(rng, cfg.DueDateSlack)
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
	return &genSource{n: n, priced: true, gen: func(i int, j *Job) {
		if rate > 0 {
			clock += rng.Exp(rate)
		}
		c := mix[rng.Choice(shares)]
		seq := rng.LogNormal(c.SeqMu, c.SeqSigma)
		maxP := rng.IntRange(c.MaxProcsLo, c.MaxProcsHi)
		if maxP > m {
			maxP = m
		}
		j.ID, j.Name, j.Class, j.Kind, j.Release = i, c.Name, c.Name, Moldable, clock
		j.Weight, j.DueDate = c.Weight, -1
		j.SeqTime, j.MinProcs, j.MaxProcs, j.Model = seq, 1, maxP, communityModel
		drawRigid(j, rng, c.RigidProb)
	}}
}
