// Package workload defines the job model of the paper (rigid, moldable and
// malleable Parallel Tasks, plus divisible multi-parametric bags), the
// speedup models used to price a moldable allocation, and synthetic
// workload generators shaped after the communities described in §5.2 of
// the paper (CIMENT: long sequential physics jobs, short computer-science
// debug jobs, large multi-parametric campaigns).
package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Kind classifies a Parallel Task following §2.2 of the paper.
type Kind int

const (
	// Rigid jobs request a fixed number of processors.
	Rigid Kind = iota
	// Moldable jobs accept any processor count in [MinProcs, MaxProcs],
	// decided before execution and fixed afterwards.
	Moldable
	// Malleable jobs may change processor count during execution. The
	// paper explicitly leaves malleability out of scope; the kind exists
	// so workloads can carry the flag and schedulers can reject it.
	Malleable
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Rigid:
		return "rigid"
	case Moldable:
		return "moldable"
	case Malleable:
		return "malleable"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Job is a Parallel Task. SeqTime is the sequential execution time on a
// reference processor; the actual execution time on p processors is given
// by the speedup model (or the explicit Times table when present).
//
// All times are in abstract seconds. Weight is the ΣωiCi priority weight
// (1 when the workload is unweighted). DueDate < 0 means "no due date".
type Job struct {
	ID      int
	Name    string
	Class   string // community / application tag ("physics", "cs", "bag", ...)
	Kind    Kind
	Release float64
	Weight  float64
	DueDate float64

	SeqTime  float64
	MinProcs int
	MaxProcs int

	// Model prices a moldable allocation. Ignored when Times is set.
	Model SpeedupModel
	// Times, when non-nil, gives the execution time on p processors at
	// Times[p-MinProcs]; len(Times) is at least MaxProcs-MinProcs+1.
	// Only the legal range [MinProcs, MaxProcs] is ever read (TimeOn
	// panics outside it, Cost and Validate stay inside it): there entries
	// must be positive and the table is expected to be monotone
	// non-increasing. Entries past MaxProcs carry no meaning. A rigid job
	// frozen at p carries one value, Times[0]; a moldable job with
	// MinProcs = 1 carries MakeTable's layout. Whoever narrows the range
	// narrows the table with it (moldable's freeze slices it).
	Times []float64
}

// Validate checks the structural invariants of the job. Of a time
// table it checks the length and the entries of the legal range
// [MinProcs, MaxProcs], the only ones a scheduler can read.
func (j *Job) Validate() error {
	// The comparisons are negated so that NaN fails them too.
	switch {
	case j.Times == nil && !(j.SeqTime > 0 && j.SeqTime < math.Inf(1)):
		return fmt.Errorf("job %d: sequential time %v not positive and finite", j.ID, j.SeqTime)
	case j.MinProcs <= 0:
		return fmt.Errorf("job %d: MinProcs = %d", j.ID, j.MinProcs)
	case j.MaxProcs < j.MinProcs:
		return fmt.Errorf("job %d: MaxProcs %d < MinProcs %d", j.ID, j.MaxProcs, j.MinProcs)
	case j.Kind == Rigid && j.MinProcs != j.MaxProcs:
		return fmt.Errorf("job %d: rigid job with MinProcs %d != MaxProcs %d", j.ID, j.MinProcs, j.MaxProcs)
	case !(j.Release >= 0 && j.Release < math.Inf(1)):
		return fmt.Errorf("job %d: release %v not non-negative and finite", j.ID, j.Release)
	case !(j.Weight >= 0 && j.Weight < math.Inf(1)):
		return fmt.Errorf("job %d: weight %v not non-negative and finite", j.ID, j.Weight)
	case j.Model == nil && j.Times == nil:
		return fmt.Errorf("job %d: no speedup model and no time table", j.ID)
	}
	if j.Times != nil {
		if width := j.MaxProcs - j.MinProcs + 1; len(j.Times) < width {
			return fmt.Errorf("job %d: time table of length %d shorter than the %d widths [%d, %d]",
				j.ID, len(j.Times), width, j.MinProcs, j.MaxProcs)
		}
		for p := j.MinProcs; p <= j.MaxProcs; p++ {
			if t := j.Times[p-j.MinProcs]; t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return fmt.Errorf("job %d: invalid time %v on %d procs", j.ID, t, p)
			}
		}
	}
	return nil
}

// TimeOn returns the execution time of the job on p processors. It panics
// if p is outside [MinProcs, MaxProcs]; use CanRunOn to test first.
func (j *Job) TimeOn(p int) float64 {
	if p < j.MinProcs || p > j.MaxProcs {
		panic(fmt.Sprintf("workload: job %d cannot run on %d procs (range [%d,%d])",
			j.ID, p, j.MinProcs, j.MaxProcs))
	}
	if j.Times != nil {
		return j.Times[p-j.MinProcs]
	}
	return j.Model.Time(j.SeqTime, p)
}

// CanRunOn reports whether p processors is a legal allocation.
func (j *Job) CanRunOn(p int) bool { return p >= j.MinProcs && p <= j.MaxProcs }

// WorkOn returns the work area p * TimeOn(p) of the allocation.
func (j *Job) WorkOn(p int) float64 { return float64(p) * j.TimeOn(p) }

// MinWork returns the minimum work over all legal allocations capped at m
// processors, and the processor count achieving it. For monotone jobs the
// minimum is at MinProcs, but we scan to stay correct for arbitrary
// tables. Returns (0, 0) if no allocation fits within m. Algorithms that
// ask more than once per job keep its Cost summary instead. A scan is
// O(MaxProcs): cluster.Sim runs one per queued job at admission and one
// at its start only while its queued-work tally is on (TallyQueuedWork),
// and one per queued job per Load otherwise.
func (j *Job) MinWork(m int) (work float64, procs int) {
	best := math.Inf(1)
	bestP := 0
	hi := j.MaxProcs
	if hi > m {
		hi = m
	}
	for p := j.MinProcs; p <= hi; p++ {
		if w := j.WorkOn(p); w < best {
			best = w
			bestP = p
		}
	}
	if bestP == 0 {
		return 0, 0
	}
	return best, bestP
}

// MinTime returns the minimum execution time over all legal allocations
// capped at m processors, and the processor count achieving it. Returns
// (+Inf, 0) if no allocation fits.
func (j *Job) MinTime(m int) (t float64, procs int) {
	best := math.Inf(1)
	bestP := 0
	hi := j.MaxProcs
	if hi > m {
		hi = m
	}
	for p := j.MinProcs; p <= hi; p++ {
		if tt := j.TimeOn(p); tt < best {
			best = tt
			bestP = p
		}
	}
	return best, bestP
}

// CompareRelease orders jobs by release date, then ID: submission order,
// the queue order of the on-line algorithms (for slices.SortStableFunc).
func CompareRelease(a, b *Job) int {
	if a.Release != b.Release {
		if a.Release < b.Release {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// Keyed is one entry of a job order whose key is computed once per job:
// the key the order's comparator would compute, the job's ID, and the
// job's position in the input.
type Keyed struct {
	Key float64
	ID  int
	Pos int
}

// SortKeyed sorts keys by Key, ascending or (desc) descending, then by
// ID, then by Pos. This is the order slices.SortStableFunc gives with
// the comparator on (Key, ID): a stable sort leaves elements that
// compare equal in input order, the Pos order, and with Pos as the last
// key no two elements compare equal, so pdqsort has only one answer.
// That holds while no key is NaN (Validate refuses NaN sequential
// times, releases, weights and table entries); -0 and +0 compare equal,
// as before.
func SortKeyed(keys []Keyed, desc bool) {
	slices.SortFunc(keys, func(a, b Keyed) int {
		ka, kb := a.Key, b.Key
		if desc {
			ka, kb = kb, ka
		}
		if ka != kb {
			if ka < kb {
				return -1
			}
			return 1
		}
		if a.ID != b.ID {
			return cmp.Compare(a.ID, b.ID)
		}
		return cmp.Compare(a.Pos, b.Pos)
	})
}

// Clone returns a deep copy of the job.
func (j *Job) Clone() *Job {
	c := *j
	if j.Times != nil {
		c.Times = append([]float64(nil), j.Times...)
	}
	return &c
}

// TotalMinWork sums the minimal work of each job (the area lower bound
// numerator used throughout the experiments).
func TotalMinWork(jobs []*Job, m int) float64 {
	var sum float64
	for _, j := range jobs {
		w, _ := j.MinWork(m)
		sum += w
	}
	return sum
}
