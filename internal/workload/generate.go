package workload

import (
	"math"

	"repro/internal/stats"
)

// GenConfig parameterizes the synthetic workload generators. Zero values
// are replaced by the documented defaults in fill().
type GenConfig struct {
	// N is the number of jobs to generate.
	N int
	// M is the target platform width; MaxProcs never exceeds it.
	M int
	// Seed drives the deterministic RNG.
	Seed uint64

	// SeqMu, SeqSigma are the lognormal parameters of sequential times.
	SeqMu, SeqSigma float64
	// ArrivalRate is the Poisson arrival rate (jobs per second). Zero
	// means all jobs released at time 0 (the offline case).
	ArrivalRate float64
	// Weighted draws weights from {1..10} with a Zipf bias when true;
	// otherwise every weight is 1.
	Weighted bool
	// RigidFraction is the fraction of jobs forced rigid (their processor
	// count is frozen at a random legal value).
	RigidFraction float64
	// MaxProcsCap caps each job's MaxProcs below M (e.g. memory limits,
	// §2.2). Zero means no extra cap.
	MaxProcsCap int
	// DueDateSlack, when positive, assigns DueDate = Release +
	// slack * TimeOn(MinProcs) with slack drawn in [1, DueDateSlack].
	DueDateSlack float64
}

func (c GenConfig) fill() GenConfig {
	if c.N == 0 {
		c.N = 100
	}
	if c.M == 0 {
		c.M = 100
	}
	if c.SeqMu == 0 {
		c.SeqMu = 5 // median sequential time e^5 ≈ 148 s
	}
	if c.SeqSigma == 0 {
		c.SeqSigma = 1.2
	}
	return c
}

// Sequential generates non-parallel jobs (the "Non Parallel" series of
// Figure 2): rigid single-processor jobs with lognormal durations.
// It materializes SequentialSource; both forms draw the same stream.
func Sequential(cfg GenConfig) []*Job {
	return Collect(SequentialSource(cfg))
}

// Parallel generates moldable parallel jobs (the "Parallel" series of
// Figure 2): lognormal sequential times, mixed speedup models (Amdahl and
// power-law), MaxProcs drawn up to the platform width, an optional rigid
// fraction, all with frozen monotone time tables.
// It materializes ParallelSource; both forms draw the same stream.
func Parallel(cfg GenConfig) []*Job {
	return Collect(ParallelSource(cfg))
}

// Mixed generates the §5.1 scenario: a mix of rigid and moldable jobs on
// the same cluster, with RigidFraction of the jobs frozen.
func Mixed(cfg GenConfig) []*Job {
	return Collect(MixedSource(cfg))
}

// randomModel draws one of the moldable speedup models with workload-level
// diversity: half Amdahl with a small sequential fraction, half power-law.
func randomModel(rng *stats.RNG) SpeedupModel {
	if rng.Bool(0.5) {
		return Amdahl{Alpha: rng.Range(0.01, 0.25)}
	}
	return PowerLaw{Sigma: rng.Range(0.6, 1.0)}
}

func weight(rng *stats.RNG, weighted bool) float64 {
	if !weighted {
		return 1
	}
	return float64(rng.Zipf(1.1, 10))
}

func setDueDate(j *Job, rng *stats.RNG, slackMax float64) {
	if slackMax <= 0 {
		return
	}
	slack := rng.Range(1, math.Max(slackMax, 1.0000001))
	j.DueDate = j.Release + slack*j.TimeOn(j.MinProcs)
}

// Community describes one CIMENT user community (§5.2): its share of the
// job stream and the shape of its jobs.
type Community struct {
	Name string
	// Share is the relative frequency of this community's submissions.
	Share float64
	// SeqMu, SeqSigma shape the lognormal sequential time.
	SeqMu, SeqSigma float64
	// MaxProcsLo, MaxProcsHi bound the per-job MaxProcs draw.
	MaxProcsLo, MaxProcsHi int
	// RigidProb is the probability a job from this community is rigid.
	RigidProb float64
	// Weight is the fixed priority weight for this community's jobs.
	Weight float64
}

// CIMENTCommunities returns the community mix described in §5.2: numerical
// physicists submit long (up to weeks) sequential jobs; computer
// scientists submit short debug jobs; a third community submits mid-size
// parallel production jobs (astrophysics / medical imaging).
func CIMENTCommunities() []Community {
	return []Community{
		{
			Name: "physics", Share: 0.35,
			// median ~8h, heavy tail to multi-day
			SeqMu: math.Log(8 * 3600), SeqSigma: 1.4,
			MaxProcsLo: 1, MaxProcsHi: 1, RigidProb: 1, Weight: 1,
		},
		{
			Name: "cs-debug", Share: 0.45,
			// median ~3min
			SeqMu: math.Log(180), SeqSigma: 1.0,
			MaxProcsLo: 1, MaxProcsHi: 16, RigidProb: 0.5, Weight: 2,
		},
		{
			Name: "astro", Share: 0.20,
			// median ~1h parallel production runs
			SeqMu: math.Log(3600), SeqSigma: 1.1,
			MaxProcsLo: 4, MaxProcsHi: 64, RigidProb: 0.3, Weight: 1,
		},
	}
}

// Communities generates n jobs drawn from the given community mix with
// Poisson arrivals at the given rate (jobs/second). Jobs are clipped to
// the platform width m.
// It materializes CommunitiesSource; both forms draw the same stream.
func Communities(mix []Community, n, m int, rate float64, seed uint64) []*Job {
	return Collect(CommunitiesSource(mix, n, m, rate, seed))
}

// Bag is a multi-parametric job (§5.2): a large number of short
// independent runs of the same program with different parameters. It is
// the divisible-load application class of the paper and the payload of
// the CiGri best-effort grid.
type Bag struct {
	ID int
	// Runs is the number of elementary tasks in the campaign.
	Runs int
	// RunTime is the duration of one elementary task (≈ identical across
	// runs, as the paper notes).
	RunTime float64
}
