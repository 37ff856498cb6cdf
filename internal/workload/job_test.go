package workload

import (
	"math"
	"testing"
	"testing/quick"
)

// IsMonotone reports whether, up to m processors, execution time is
// non-increasing and work is non-decreasing in the processor count — the
// standard "monotone task" assumption of the moldable literature.
func (j *Job) IsMonotone(m int) bool {
	hi := j.MaxProcs
	if hi > m {
		hi = m
	}
	const eps = 1e-9
	for p := j.MinProcs + 1; p <= hi; p++ {
		if j.TimeOn(p) > j.TimeOn(p-1)*(1+eps) {
			return false
		}
		if j.WorkOn(p) < j.WorkOn(p-1)*(1-eps) {
			return false
		}
	}
	return true
}

func testJob(seq float64, minP, maxP int, m SpeedupModel) *Job {
	return &Job{
		ID: 1, Kind: Moldable, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: minP, MaxProcs: maxP, Model: m,
	}
}

// commPenalty is perfect parallelism plus a per-processor overhead,
// time = seq/p + overhead*(p-1): a model that is not time-monotone once
// the overhead dominates, which the monotone clamps must absorb.
type commPenalty struct{ overhead float64 }

func (c commPenalty) Time(seq float64, p int) float64 {
	return seq/float64(p) + c.overhead*float64(p-1)
}

func TestValidate(t *testing.T) {
	ok := testJob(10, 1, 4, Linear{})
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Job)
	}{
		{"zero seq", func(j *Job) { j.SeqTime = 0; j.Times = nil }},
		{"zero minprocs", func(j *Job) { j.MinProcs = 0 }},
		{"max<min", func(j *Job) { j.MaxProcs = 0 }},
		{"rigid range", func(j *Job) { j.Kind = Rigid }},
		{"neg release", func(j *Job) { j.Release = -1 }},
		{"neg weight", func(j *Job) { j.Weight = -1 }},
		{"no model", func(j *Job) { j.Model = nil }},
		{"short table", func(j *Job) { j.Times = []float64{5} }},
		{"bad table entry", func(j *Job) { j.Times = []float64{5, 3, -1, 2} }},
		{"bad entry at MinProcs", func(j *Job) { j.MinProcs, j.Times = 2, []float64{0, 2, 2} }},
		{"table short of its range", func(j *Job) { j.MinProcs, j.Times = 2, []float64{3, 2} }},
		{"bad entry at MaxProcs", func(j *Job) { j.Times = []float64{5, 3, 2, math.NaN()} }},
	}
	for _, c := range cases {
		j := testJob(10, 1, 4, Linear{})
		c.mut(j)
		if err := j.Validate(); err == nil {
			t.Errorf("%s: invalid job accepted", c.name)
		}
	}
	// Only the legal range is read, so only it is checked: a job frozen at
	// 3 carries one priced entry, Times[0], and what follows it is not read.
	frozen := testJob(10, 3, 3, Linear{})
	frozen.Kind, frozen.Times = Rigid, []float64{4, -1}
	if err := frozen.Validate(); err != nil {
		t.Errorf("entries outside [MinProcs, MaxProcs] checked: %v", err)
	}
}

// TestValidateRefusesNonFinite: a Model-only job with a NaN or +Inf
// sequential time, release or weight is refused. Each of the six passed
// the sign checks once, since every comparison with NaN is false.
func TestValidateRefusesNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		for name, set := range map[string]func(*Job){
			"seq":     func(j *Job) { j.SeqTime = v },
			"release": func(j *Job) { j.Release = v },
			"weight":  func(j *Job) { j.Weight = v },
		} {
			j := testJob(10, 1, 4, Linear{})
			set(j)
			if err := j.Validate(); err == nil {
				t.Errorf("%s %v: job accepted", name, v)
			}
		}
	}
}

func TestTimeOnLinear(t *testing.T) {
	j := testJob(12, 1, 4, Linear{})
	if got := j.TimeOn(3); math.Abs(got-4) > 1e-12 {
		t.Fatalf("TimeOn(3) = %v, want 4", got)
	}
}

func TestTimeOnTableOverridesModel(t *testing.T) {
	j := testJob(12, 1, 3, Linear{})
	j.Times = []float64{12, 7, 5}
	if got := j.TimeOn(2); got != 7 {
		t.Fatalf("TimeOn(2) = %v, want table value 7", got)
	}
}

func TestTimeOnPanicsOutOfRange(t *testing.T) {
	j := testJob(10, 2, 4, Linear{})
	defer func() {
		if recover() == nil {
			t.Fatal("TimeOn(1) below MinProcs did not panic")
		}
	}()
	j.TimeOn(1)
}

func TestGamma(t *testing.T) {
	j := testJob(12, 1, 6, Linear{})
	// TimeOn(p) = 12/p; Gamma(4) should be 3.
	c := j.Cost(6)
	if got := c.Gamma(4); got != 3 {
		t.Fatalf("Gamma(4) = %d, want 3", got)
	}
	// Unreachable deadline.
	if got := c.Gamma(1); got != 0 {
		t.Fatalf("Gamma(1) = %d, want 0", got)
	}
	// Cap by m.
	narrow := j.Cost(2)
	if got := narrow.Gamma(4); got != 0 {
		t.Fatalf("Gamma(4, m=2) = %d, want 0", got)
	}
	// Deadline exactly at boundary.
	if got := c.Gamma(12); got != 1 {
		t.Fatalf("Gamma(12) = %d, want 1", got)
	}
}

func TestMinWorkMinTime(t *testing.T) {
	j := testJob(10, 1, 4, Amdahl{Alpha: 0.2})
	w, p := j.MinWork(4)
	if p != 1 || math.Abs(w-10) > 1e-12 {
		t.Fatalf("MinWork = (%v, %d), want (10, 1)", w, p)
	}
	tm, pm := j.MinTime(4)
	if pm != 4 {
		t.Fatalf("MinTime procs = %d, want 4", pm)
	}
	want := 10 * (0.2 + 0.8/4)
	if math.Abs(tm-want) > 1e-12 {
		t.Fatalf("MinTime = %v, want %v", tm, want)
	}
}

func TestMinWorkNoFit(t *testing.T) {
	j := testJob(10, 4, 8, Linear{})
	if w, p := j.MinWork(2); w != 0 || p != 0 {
		t.Fatalf("MinWork below MinProcs = (%v,%d), want (0,0)", w, p)
	}
	if tm, p := j.MinTime(2); !math.IsInf(tm, 1) || p != 0 {
		t.Fatalf("MinTime below MinProcs = (%v,%d)", tm, p)
	}
}

func TestValidateAllDuplicateID(t *testing.T) {
	a := testJob(10, 1, 2, Linear{})
	b := testJob(10, 1, 2, Linear{})
	if err := validateAll([]*Job{a, b}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

func TestIsMonotone(t *testing.T) {
	if !testJob(10, 1, 16, Amdahl{Alpha: 0.1}).IsMonotone(16) {
		t.Fatal("Amdahl should be monotone")
	}
	if !testJob(10, 1, 16, PowerLaw{Sigma: 0.8}).IsMonotone(16) {
		t.Fatal("PowerLaw(0.8) should be monotone")
	}
	// A large communication overhead is not time-monotone.
	if testJob(10, 1, 32, commPenalty{overhead: 2}).IsMonotone(32) {
		t.Fatal("commpenalty(2) should not be monotone over 32 procs")
	}
}

func TestMakeTableMonotone(t *testing.T) {
	table := MakeTable(commPenalty{overhead: 5}, 100, 50)
	for p := 1; p < 50; p++ {
		if table[p] > table[p-1]+1e-12 {
			t.Fatalf("table increases at p=%d: %v -> %v", p, table[p-1], table[p])
		}
	}
}

func TestKindString(t *testing.T) {
	if Rigid.String() != "rigid" || Moldable.String() != "moldable" || Malleable.String() != "malleable" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestSpeedupModels(t *testing.T) {
	cases := []struct {
		m    SpeedupModel
		p    int
		want float64
	}{
		{Linear{}, 4, 25},
		{Amdahl{Alpha: 0.5}, 4, 100 * (0.5 + 0.5/4)},
		{PowerLaw{Sigma: 1}, 4, 25},
		{PowerLaw{Sigma: 0.5}, 4, 50},
	}
	for _, c := range cases {
		if got := c.m.Time(100, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%#v.Time(100,%d) = %v, want %v", c.m, c.p, got, c.want)
		}
	}
}

func TestTotalMinWork(t *testing.T) {
	jobs := []*Job{
		testJob(10, 1, 4, Linear{}),
		testJob(20, 1, 4, Linear{}),
	}
	jobs[1].ID = 2
	if got := TotalMinWork(jobs, 4); math.Abs(got-30) > 1e-12 {
		t.Fatalf("TotalMinWork = %v, want 30", got)
	}
}

// Property: for any monotonized table, Gamma returns the smallest feasible
// allotment and TimeOn(Gamma) meets the deadline.
func TestGammaProperty(t *testing.T) {
	f := func(seed uint64, seqRaw, deadlineRaw float64, maxPRaw uint8) bool {
		seq := 1 + math.Abs(math.Mod(seqRaw, 1000))
		maxP := int(maxPRaw%32) + 1
		j := testJob(seq, 1, maxP, Amdahl{Alpha: 0.1})
		j.Times = MakeTable(j.Model, seq, maxP)
		d := math.Abs(math.Mod(deadlineRaw, 2*seq)) + 1e-6
		c := j.Cost(maxP)
		g := c.Gamma(d)
		if g == 0 {
			// No allocation meets d: the fastest must exceed d.
			tm, _ := j.MinTime(maxP)
			return tm > d
		}
		if j.TimeOn(g) > d {
			return false
		}
		// Minimality.
		return g == 1 || j.TimeOn(g-1) > d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MakeTable output is always non-increasing.
func TestMakeTableProperty(t *testing.T) {
	f := func(alphaRaw, seqRaw float64, maxPRaw uint8) bool {
		alpha := math.Abs(math.Mod(alphaRaw, 1))
		seq := 1 + math.Abs(math.Mod(seqRaw, 1e6))
		maxP := int(maxPRaw%100) + 1
		table := MakeTable(Amdahl{Alpha: alpha}, seq, maxP)
		for p := 1; p < maxP; p++ {
			if table[p] > table[p-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
