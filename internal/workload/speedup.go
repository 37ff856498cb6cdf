package workload

import "math"

// SpeedupModel prices the execution time of a task on p processors given
// its sequential time. Implementations must return positive times for
// p >= 1. The PT model of the paper folds all communication costs into
// this per-task penalty (§4: "communications are considered by a global
// penalty factor").
type SpeedupModel interface {
	// Time returns the execution time of a task of sequential duration
	// seq on p processors.
	Time(seq float64, p int) float64
}

// Linear is the ideal (communication-free) model: time = seq / p.
type Linear struct{}

// Time implements SpeedupModel.
func (Linear) Time(seq float64, p int) float64 { return seq / float64(p) }

// Amdahl is the classical Amdahl model with sequential fraction Alpha:
// time = seq * (Alpha + (1-Alpha)/p). Monotone for Alpha in [0, 1].
type Amdahl struct {
	Alpha float64
}

// Time implements SpeedupModel.
func (a Amdahl) Time(seq float64, p int) float64 {
	return seq * (a.Alpha + (1-a.Alpha)/float64(p))
}

// PowerLaw models sub-linear speedup: time = seq / p^Sigma with
// Sigma in (0, 1]. Sigma = 1 is linear speedup. Monotone for Sigma ≤ 1.
type PowerLaw struct {
	Sigma float64
}

// Time implements SpeedupModel.
func (m PowerLaw) Time(seq float64, p int) float64 {
	return seq / math.Pow(float64(p), m.Sigma)
}

// logP[p] is math.Log(p) for the widths powerLawTable prices with one
// math.Exp each.
var logP = func() (t [4097]float64) {
	for p := range t {
		t[p] = math.Log(float64(p))
	}
	return t
}()

// powerLawTable fills table[i] with m.Time(seq, i+1), bit for bit. For
// 0.5 < σ < 1, the pure-Go math.Pow (every GOARCH but s390x) computes
// Exp((σ-1)·Log p) times p's mantissa, then scales by p's power of two;
// that scaling is exact here, so p * Exp((σ-1)·logP[p]) is the same
// float64 with one Exp and no Log (TestPowerLawTableExact,
// FuzzPowerLawTable). p = 1, other σ (NaN included) and widths past logP
// keep math.Pow.
func powerLawTable(table []float64, m PowerLaw, seq float64) {
	i := 0 // table[:i] is priced
	if s := m.Sigma; s > 0.5 && s < 1 && len(table) > 1 {
		table[0] = m.Time(seq, 1)
		for i = 1; i < min(len(table), len(logP)-1); i++ {
			table[i] = seq / (float64(i+1) * math.Exp((s-1)*logP[i+1]))
		}
	}
	for ; i < len(table); i++ {
		table[i] = m.Time(seq, i+1)
	}
}

// MakeTable materializes the execution-time table of a model for
// p = 1..maxProcs, clamping to enforce time-monotony. The resulting table
// can be assigned to Job.Times to freeze the profile of a job with
// MinProcs = 1; a job whose range starts at k takes MakeTable(...)[k-1:],
// since a table is indexed from MinProcs.
//
// The two models the generators draw get a loop over the concrete type,
// so Time is a direct (inlined) call instead of an interface call per
// entry, and every other model takes the interface loop
// (TestMakeTableTypedMatchesGeneric). Amdahl evaluates the method's own
// expression; a power-law job with 0.5 < σ < 1 costs one math.Exp per
// entry up to 4 096 processors, the same bits math.Pow returns
// (powerLawTable).
func MakeTable(model SpeedupModel, seq float64, maxProcs int) []float64 {
	table := make([]float64, maxProcs)
	fillTable(table, model, seq)
	return table
}

// fillTable is MakeTable into a table the caller owns, of length
// maxProcs.
func fillTable(table []float64, model SpeedupModel, seq float64) {
	switch m := model.(type) {
	case Amdahl:
		for i := range table {
			table[i] = m.Time(seq, i+1)
		}
	case PowerLaw:
		powerLawTable(table, m, seq)
	default:
		for i := range table {
			table[i] = model.Time(seq, i+1)
		}
	}
	best := math.Inf(1)
	for i, t := range table {
		if t < best {
			best = t
		}
		table[i] = best
	}
}
