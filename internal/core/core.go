// Package core answers the paper's title question — which policy for
// which application? — as an executable decision procedure. An
// application profile (§2's taxonomy: rigid / moldable / divisible,
// offline / online, which §3 criterion matters) maps to the algorithm
// the paper's analysis recommends, with its proven guarantee:
//
//	offline moldable, Cmax           → MRT dual approximation   (3/2 + ε, §4.1)
//	online  moldable, Cmax           → batches over MRT         (3 + ε,   §4.2)
//	rigid, ΣCi / ΣωiCi               → SMART shelves            (8 / 8.53, §4.3)
//	moldable, Cmax AND ΣωiCi         → doubling bi-criteria     (4ρ = 6,  §4.4)
//	offline rigid, Cmax              → strip packing (FFDH/list)           (§2.2)
//	online  rigid, Cmax              → conservative backfilling            (§5.2)
//	divisible (multi-parametric)     → DLT distribution / best-effort grid (§2.1, §5.2)
//
// Run executes the recommendation on a concrete instance and returns the
// schedule, so the decision table is continuously validated by tests.
package core

import (
	"fmt"

	"repro/internal/registry"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Criterion is the optimization objective (§3).
type Criterion int

const (
	// Makespan is Cmax.
	Makespan Criterion = iota
	// WeightedCompletion is ΣωiCi (ΣCi when all weights are 1).
	WeightedCompletion
	// BiCriteria optimizes Cmax and ΣωiCi simultaneously.
	BiCriteria
)

// Profile classifies an application per the paper's taxonomy.
type Profile struct {
	// Online means release dates are revealed over time (§4.2).
	Online bool
	// Moldable means jobs accept a processor-count choice (§2.2);
	// false = rigid.
	Moldable bool
	// Divisible means the workload is a fine-grain multi-parametric bag
	// (§2.1) — the DLT model applies instead of PT.
	Divisible bool
	// Criterion is the target objective.
	Criterion Criterion
}

// Recommendation names the policy the paper's analysis selects.
type Recommendation struct {
	// Policy is the policy's registry catalog name, or "dlt" for a
	// divisible load (which the catalog does not schedule).
	Policy    string
	Guarantee string
	Section   string
}

// Recommend maps a profile to the paper's answer.
func Recommend(p Profile) Recommendation {
	if p.Divisible {
		return Recommendation{
			Policy:    "dlt",
			Guarantee: "polynomial optimal single-round / asymptotically optimal steady state",
			Section:   "§2.1, §5.2",
		}
	}
	switch {
	case p.Criterion == BiCriteria:
		return Recommendation{
			Policy:    "bicriteria",
			Guarantee: "4ρ = 6 on both Cmax and ΣωiCi",
			Section:   "§4.4",
		}
	case p.Criterion == WeightedCompletion:
		return Recommendation{
			Policy:    "smart",
			Guarantee: "8 (ΣCi), 8.53 (ΣωiCi)",
			Section:   "§4.3",
		}
	case p.Moldable && p.Online:
		return Recommendation{
			Policy:    "batch",
			Guarantee: "3 + ε",
			Section:   "§4.2",
		}
	case p.Moldable:
		return Recommendation{
			Policy:    "mrt",
			Guarantee: "3/2 + ε",
			Section:   "§4.1",
		}
	case p.Online:
		return Recommendation{
			Policy:    "conservative",
			Guarantee: "heuristic (no constant ratio)",
			Section:   "§5.2",
		}
	default:
		return Recommendation{
			Policy:    "ffdh",
			Guarantee: "strip-packing constant (asymptotic 1.7·OPT + hmax for FFDH heights)",
			Section:   "§2.2",
		}
	}
}

// Run executes the recommended policy on the instance and returns the
// schedule. Divisible profiles are rejected — use the dlt package (the
// work there is a load mass, not discrete jobs).
func Run(jobs []*workload.Job, m int, p Profile) (*sched.Schedule, Recommendation, error) {
	rec := Recommend(p)
	if rec.Policy == "dlt" {
		return nil, rec, fmt.Errorf("core: divisible workloads are handled by the dlt package, not discrete scheduling")
	}
	e, err := registry.Get(rec.Policy)
	if err != nil {
		return nil, rec, err
	}
	s, err := e.Offline(jobs, m)
	if err != nil {
		return nil, rec, err
	}
	opts := sched.ValidateOptions{IgnoreReleases: !p.Online}
	if err := s.ValidateWith(opts); err != nil {
		return nil, rec, fmt.Errorf("core: policy %q produced invalid schedule: %w", rec.Policy, err)
	}
	return s, rec, nil
}
