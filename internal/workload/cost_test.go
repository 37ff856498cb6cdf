package workload

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// The scan references below are the O(m) bodies the kernel replaced,
// kept verbatim as the oracle of the differential test; for MinWork and
// MinTime the oracle is the one-shot scan Job still offers.

func refHi(j *Job, m int) int {
	hi := j.MaxProcs
	if hi > m {
		hi = m
	}
	return hi
}

func refGamma(j *Job, t float64, m int) int {
	for p := j.MinProcs; p <= refHi(j, m); p++ {
		if j.TimeOn(p) <= t {
			return p
		}
	}
	return 0
}

func refMinWorkUnder(j *Job, deadline float64, m int) float64 {
	best := math.Inf(1)
	for p := j.MinProcs; p <= refHi(j, m); p++ {
		if j.TimeOn(p) <= deadline {
			if w := j.WorkOn(p); w < best {
				best = w
			}
		}
	}
	return best
}

// randomCostJob draws one job of a shape the kernel must get right:
// clamped model tables (plateaus), strictly decreasing tables, tables
// with a flat work profile, non-monotone tables and Model-only jobs.
func randomCostJob(rng *stats.RNG, id int) *Job {
	maxP := rng.IntRange(1, 40)
	minP := 1
	if rng.Bool(0.3) {
		minP = rng.IntRange(1, maxP)
	}
	seq := rng.Range(1, 500)
	j := &Job{ID: id, Kind: Moldable, Weight: 1, DueDate: -1, SeqTime: seq, MinProcs: minP, MaxProcs: maxP}
	switch rng.Intn(6) {
	case 0: // what the generators emit
		j.Model = randomModel(rng)
		j.Times = MakeTable(j.Model, seq, maxP)
	case 1: // U-shaped model clamped by MakeTable: a long plateau
		j.Model = commPenalty{overhead: rng.Range(0.5, 5)}
		j.Times = MakeTable(j.Model, seq, maxP)
	case 2: // linear speedup: work is flat, ties everywhere for MinWork
		j.Model = Linear{}
		j.Times = MakeTable(j.Model, float64(rng.IntRange(1, 64)*720720), maxP)
	case 3: // arbitrary table
		j.Times = make([]float64, maxP)
		for p := range j.Times {
			j.Times[p] = rng.Range(1, 100)
		}
	case 4: // few distinct values: equal entries, non-monotone
		j.Times = make([]float64, maxP)
		for p := range j.Times {
			j.Times[p] = float64(rng.IntRange(1, 4))
		}
	default: // Model-only, including a non-monotone model
		if rng.Bool(0.5) {
			j.Model = commPenalty{overhead: rng.Range(0.1, 3)}
		} else {
			j.Model = randomModel(rng)
		}
	}
	if j.Times != nil {
		j.Times = j.Times[minP-1:] // priced over [1, maxP]; indexed from MinProcs
	}
	return j
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestCostMatchesScanReference(t *testing.T) {
	rng := stats.NewRNG(20240928)
	monotone := 0
	for id := 0; id < 3000; id++ {
		j := randomCostJob(rng, id)
		for _, m := range []int{j.MinProcs - 1, j.MinProcs, (j.MinProcs + j.MaxProcs) / 2, j.MaxProcs, j.MaxProcs + 7} {
			c := j.Cost(m)
			if c.mono {
				monotone++
			}
			w, wp := c.MinWork()
			if rw, rp := j.MinWork(m); !sameFloat(w, rw) || wp != rp {
				t.Fatalf("job %d m=%d: MinWork = (%v,%d), scan (%v,%d)", id, m, w, wp, rw, rp)
			}
			tm, tp := c.MinTime()
			if rt, rp := j.MinTime(m); !sameFloat(tm, rt) || tp != rp {
				t.Fatalf("job %d m=%d: MinTime = (%v,%d), scan (%v,%d)", id, m, tm, tp, rt, rp)
			}
			deadlines := []float64{0, -1, math.Inf(1), math.Inf(-1), math.NaN(), rng.Range(0, 600)}
			for p := j.MinProcs; p <= j.MaxProcs; p++ {
				// Exactly a table entry, and its two float neighbours.
				d := j.TimeOn(p)
				deadlines = append(deadlines, d, math.Nextafter(d, 0), math.Nextafter(d, math.Inf(1)))
			}
			for _, d := range deadlines {
				if g, rg := c.Gamma(d), refGamma(j, d, m); g != rg {
					t.Fatalf("job %d m=%d: Gamma(%v) = %d, scan %d (mono=%v, times %v)", id, m, d, g, rg, c.mono, j.Times)
				}
				if u, ru := c.MinWorkUnder(d), refMinWorkUnder(j, d, m); !sameFloat(u, ru) {
					t.Fatalf("job %d m=%d: MinWorkUnder(%v) = %v, scan %v (mono=%v, times %v)", id, m, d, u, ru, c.mono, j.Times)
				}
			}
		}
	}
	if monotone == 0 {
		t.Fatal("no job took the binary-search path")
	}
}

// The tolerance of IsMonotone must not leak into the kernel: a table
// that is monotone up to 1e-9 but not exactly takes the scan.
func TestCostExactMonotoneFlag(t *testing.T) {
	j := &Job{ID: 1, Kind: Moldable, MinProcs: 1, MaxProcs: 3, Times: []float64{10, 6, 6 * (1 + 1e-12)}}
	if !j.IsMonotone(3) {
		t.Fatal("table should pass the tolerant check")
	}
	c := j.Cost(3)
	if c.mono {
		t.Fatal("time rises by one part in 1e12: not exactly monotone")
	}
	if c = j.Cost(2); !c.mono {
		t.Fatal("the first two entries are exactly monotone")
	}
	// Work dipping (superlinear speedup) also clears the flag.
	j = &Job{ID: 2, Kind: Moldable, MinProcs: 1, MaxProcs: 2, Times: []float64{10, 4}}
	if c = j.Cost(2); c.mono {
		t.Fatal("work decreases from 10 to 8: not monotone")
	}
	// Model-only jobs never take the table search.
	j = &Job{ID: 3, Kind: Moldable, MinProcs: 1, MaxProcs: 4, SeqTime: 8, Model: Amdahl{Alpha: 0.1}}
	if c = j.Cost(4); c.mono {
		t.Fatal("Model-only job flagged as table-monotone")
	}
}

// First-p tie-breaking on a clamped plateau: the smallest processor
// count of the plateau is the canonical allotment and the MinTime width.
func TestCostPlateauTakesFirstIndex(t *testing.T) {
	j := &Job{ID: 1, Kind: Moldable, MinProcs: 1, MaxProcs: 6, Times: []float64{12, 8, 6, 6, 6, 6}}
	c := j.Cost(6)
	if !c.mono {
		t.Fatal("plateau table is exactly monotone")
	}
	if g := c.Gamma(6); g != 3 {
		t.Fatalf("Gamma(6) = %d, want 3 (first index of the plateau)", g)
	}
	if _, p := c.MinTime(); p != 3 {
		t.Fatalf("MinTime procs = %d, want 3", p)
	}
	if w := c.MinWorkUnder(6); w != 18 {
		t.Fatalf("MinWorkUnder(6) = %v, want 18", w)
	}
	if w, p := c.MinWork(); w != 12 || p != 1 {
		t.Fatalf("MinWork = (%v,%d), want (12,1)", w, p)
	}
}

// A summary belongs to the (job, m) it was built from: freezing a copy
// rewrites MinProcs/MaxProcs and narrows its table with them, and the
// copy's own summary must describe the frozen job, not the original.
func TestCostOfFrozenCloneIsFresh(t *testing.T) {
	rng := stats.NewRNG(7)
	for id := 0; id < 200; id++ {
		j := randomCostJob(rng, id)
		m := j.MaxProcs
		orig := j.Cost(m)
		_, p := orig.MinTime()
		c := *j
		c.Kind = Rigid
		c.MinProcs, c.MaxProcs = p, p
		if c.Times != nil {
			c.Times = c.Times[p-j.MinProcs:][:1]
		}
		frozen := c.Cost(m)
		if w, fp := frozen.MinWork(); fp != p || !sameFloat(w, j.WorkOn(p)) {
			t.Fatalf("job %d frozen at %d: MinWork = (%v,%d)", id, p, w, fp)
		}
		if g := frozen.Gamma(math.Inf(1)); g != p {
			t.Fatalf("job %d frozen at %d: Gamma(+Inf) = %d", id, p, g)
		}
		if again := j.Cost(m); again != orig {
			t.Fatalf("job %d: summary of the original changed after freezing a copy", id)
		}
	}
}
