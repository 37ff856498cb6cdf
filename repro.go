// Package repro is the public facade of the reproduction of Dutot,
// Eyraud, Mounié and Trystram, "Models for scheduling on large scale
// platforms: which policy for which application?" (IPDPS 2004).
//
// It re-exports what the programs under examples/ call:
//
//   - application profiling and policy selection (the paper's title
//     question) — Profile, Recommend, Run;
//   - workload generation — GenConfig, ParallelJobs, CommunityJobs;
//   - lower bounds — CmaxLowerBound, WeightedCompletionLowerBound;
//   - Figure 2 — Fig2Config, Fig2Series, WriteFig2;
//   - divisible load (§2.1) — Star, Worker, SingleRound, MultiRound,
//     SelfSchedule, SteadyStateThroughput;
//   - the CiGri grid (§5.2) — CIMENT, CIMENTCommunities, GridMember,
//     Bag, EASY, NewCentralizedGrid.
//
// The §4 algorithm stack lives under its own names in the internal
// packages (moldable.MRT, batch.OnlineMoldable, smart.Schedule,
// bicriteria.Schedule). See the examples/ directory for end-to-end usage.
package repro

import (
	"repro/internal/bicriteria"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dlt"
	"repro/internal/grid"
	"repro/internal/lowerbound"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Profile classifies an application (rigid/moldable/divisible,
// online/offline, target criterion).
type Profile = core.Profile

// Criteria of §3.
const (
	Makespan           = core.Makespan
	WeightedCompletion = core.WeightedCompletion
	BiCriteria         = core.BiCriteria
)

var (
	// Recommend maps an application profile to the paper's policy choice.
	Recommend = core.Recommend
	// Run executes the recommended policy on a concrete instance.
	Run = core.Run
)

type (
	// GenConfig parameterizes the synthetic generators.
	GenConfig = workload.GenConfig
	// Bag is a multi-parametric campaign (§5.2).
	Bag = workload.Bag
)

var (
	// ParallelJobs generates the "Parallel" (moldable) family.
	ParallelJobs = workload.Parallel
	// CommunityJobs draws from a community mix with Poisson arrivals.
	CommunityJobs = workload.Communities
	// CIMENTCommunities is the §5.2 community mix.
	CIMENTCommunities = workload.CIMENTCommunities
	// CIMENT is the Figure 3 platform (4 clusters, 432 processors).
	CIMENT = platform.CIMENT
)

var (
	// CmaxLowerBound certifies a makespan lower bound.
	CmaxLowerBound = lowerbound.Cmax
	// WeightedCompletionLowerBound certifies a ΣωiCi lower bound.
	WeightedCompletionLowerBound = lowerbound.SumWeightedCompletion
)

// Fig2Config parameterizes the Figure 2 sweep.
type Fig2Config = bicriteria.Fig2Config

var (
	// Fig2Series regenerates one Figure 2 series.
	Fig2Series = bicriteria.Fig2Series
	// WriteFig2 renders both panels as text.
	WriteFig2 = bicriteria.WriteFig2
)

type (
	// Star is a one-port master-worker platform.
	Star = dlt.Star
	// Worker is one DLT compute resource.
	Worker = dlt.Worker
)

var (
	// SingleRound is the optimal one-round closed form.
	SingleRound = dlt.SingleRound
	// MultiRound distributes in R installments.
	MultiRound = dlt.MultiRound
	// SelfSchedule is the dynamic chunked strategy.
	SelfSchedule = dlt.SelfSchedule
	// SteadyStateThroughput is the §5.2 asymptotic bound.
	SteadyStateThroughput = dlt.SteadyStateThroughput
)

// GridMember is one cluster plus its local workload and policy.
type GridMember = grid.Member

var (
	// NewCentralizedGrid builds the CiGri design (§5.2).
	NewCentralizedGrid = grid.NewCentralized
	// EASY is aggressive backfilling.
	EASY = cluster.EASYPolicy{}
)
