package rigid

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// refReservation is one live reservation of the naive reference model.
type refReservation struct {
	start, end float64
	procs      int
}

// refAvail recomputes availability at t from first principles.
func refAvail(m int, live []refReservation, t float64) int {
	a := m
	for _, r := range live {
		if r.start <= t && t < r.end {
			a -= r.procs
		}
	}
	return a
}

// fits reports whether procs processors are free during [start, start+dur).
func (p *Profile) fits(start, dur float64, procs int) bool {
	end := start + dur
	for i := p.segmentAt(start); i < len(p.times); i++ {
		if p.times[i] >= end {
			break
		}
		if p.avail[i] < procs {
			return false
		}
	}
	return true
}

// referenceReserve is Reserve as it was before one walk both checked the
// window and found its end: fits, then a split at each edge.
func referenceReserve(p *Profile, start, dur float64, procs int) error {
	if procs == 0 || dur == 0 {
		return nil
	}
	if procs < 0 || dur < 0 || start < p.times[0] {
		return fmt.Errorf("rigid: invalid reservation start=%v dur=%v procs=%d", start, dur, procs)
	}
	if !p.fits(start, dur, procs) {
		return fmt.Errorf("rigid: reservation of %d procs at [%v,%v) exceeds availability",
			procs, start, start+dur)
	}
	i := p.split(start)
	j := p.split(start + dur)
	for k := i; k < j; k++ {
		p.avail[k] -= procs
	}
	p.coalesceAt(j)
	p.coalesceAt(i)
	return nil
}

// checkCanonical asserts no two adjacent segments share an availability
// (the coalescing invariant that bounds profile growth).
func checkCanonical(t *testing.T, p *Profile) {
	t.Helper()
	bp := p.Breakpoints()
	for i := 1; i < len(bp); i++ {
		if p.AvailableAt(bp[i]) == p.AvailableAt(bp[i-1]) {
			t.Fatalf("profile not coalesced: segments %d and %d both have %d free (breakpoints %v)",
				i-1, i, p.AvailableAt(bp[i]), bp)
		}
	}
}

// TestProfileCoalescesAdjacentReservations: butt-jointed reservations of
// the same width must not leave internal breakpoints behind.
func TestProfileCoalescesAdjacentReservations(t *testing.T) {
	p := NewProfile(8)
	for i := 0; i < 10; i++ {
		if err := p.Reserve(float64(i)*5, 5, 3); err != nil {
			t.Fatal(err)
		}
	}
	// One [0,50) block of 3 procs: exactly two breakpoints (0 and 50).
	if got := p.Segments(); got != 2 {
		t.Fatalf("segments = %d after adjacent reservations, want 2 (breakpoints %v)",
			got, p.Breakpoints())
	}
	checkCanonical(t, p)
	// Releasing it all restores the single all-free segment.
	for i := 0; i < 10; i++ {
		if err := p.Release(float64(i)*5, 5, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Segments(); got != 1 {
		t.Fatalf("segments = %d after full release, want 1", got)
	}
	if got := p.AvailableAt(25); got != 8 {
		t.Fatalf("AvailableAt(25) = %d after full release", got)
	}
}

// TestProfileReserveReleaseProperty: random interleaved reservations and
// releases must always agree with the from-first-principles reference
// and keep the representation canonical.
func TestProfileReserveReleaseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 32)
		p := NewProfile(m)
		var live []refReservation
		for op := 0; op < 80; op++ {
			if len(live) > 0 && rng.Range(0, 1) < 0.4 {
				// Release a random live reservation in full.
				k := rng.IntRange(0, len(live)-1)
				r := live[k]
				if err := p.Release(r.start, r.end-r.start, r.procs); err != nil {
					t.Logf("release of live reservation failed: %v", err)
					return false
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				start := rng.Range(0, 100)
				dur := rng.Range(0.5, 20)
				procs := rng.IntRange(1, m)
				err := p.Reserve(start, dur, procs)
				fits := true
				for _, bp := range append(p.Breakpoints(), start) {
					if bp >= start && bp < start+dur && refAvail(m, live, bp) < procs {
						fits = false
						break
					}
				}
				if (err == nil) != fits {
					t.Logf("seed %d: Reserve(%v,%v,%d) err=%v but reference fits=%v",
						seed, start, dur, procs, err, fits)
					return false
				}
				if err == nil {
					live = append(live, refReservation{start, start + dur, procs})
				}
			}
			// Cross-check availability at every breakpoint and at
			// midpoints between them.
			bp := p.Breakpoints()
			for i, t0 := range bp {
				if p.AvailableAt(t0) != refAvail(m, live, t0) {
					t.Logf("seed %d: avail(%v) = %d, reference %d",
						seed, t0, p.AvailableAt(t0), refAvail(m, live, t0))
					return false
				}
				if i+1 < len(bp) {
					mid := (t0 + bp[i+1]) / 2
					if p.AvailableAt(mid) != refAvail(m, live, mid) {
						return false
					}
				}
			}
			// Canonical representation, bounded growth.
			for i := 1; i < len(bp); i++ {
				if p.AvailableAt(bp[i]) == p.AvailableAt(bp[i-1]) {
					t.Logf("seed %d: not coalesced at %v", seed, bp[i])
					return false
				}
			}
			if p.Segments() > 2*len(live)+1 {
				t.Logf("seed %d: %d segments for %d live reservations", seed, p.Segments(), len(live))
				return false
			}
		}
		// Draining every reservation must restore the all-free profile.
		for _, r := range live {
			if err := p.Release(r.start, r.end-r.start, r.procs); err != nil {
				return false
			}
		}
		return p.Segments() == 1 && p.AvailableAt(0) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestProfileRollingWindowPattern exercises the incremental-simulation
// usage: reservations always start at the advancing clock, history is
// trimmed away, and the profile must stay equivalent to one rebuilt from
// the live reservations (sampled at segment midpoints — reservation ends
// rebuilt as now + (end-now) can sit one float ULP off the exact ends
// the incremental profile stores).
func TestProfileRollingWindowPattern(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 16)
		p := NewProfile(m)
		now := 0.0
		var live []refReservation
		for op := 0; op < 120; op++ {
			now += rng.Exp(1)
			var keep []refReservation
			used := 0
			for _, r := range live {
				if r.end > now {
					keep = append(keep, r)
					used += r.procs
				}
			}
			live = keep
			p.TrimBefore(now)
			if used < m && rng.Bool(0.7) {
				procs := rng.IntRange(1, m-used)
				dur := rng.Range(0.1, 10)
				if err := p.Reserve(now, dur, procs); err != nil {
					t.Logf("seed %d op %d: reserve at now failed: %v", seed, op, err)
					return false
				}
				live = append(live, refReservation{now, now + dur, procs})
			}
			if p.Start() != now {
				return false
			}
			if p.Segments() > len(live)+1 {
				t.Logf("seed %d: %d segments for %d live reservations", seed, p.Segments(), len(live))
				return false
			}
			bp := p.Breakpoints()
			for i, t0 := range bp {
				sample := t0 + 0.5
				if i+1 < len(bp) {
					sample = (t0 + bp[i+1]) / 2
				}
				if p.AvailableAt(sample) != refAvail(m, live, sample) {
					t.Logf("seed %d op %d: avail(%v) = %d, reference %d",
						seed, op, sample, p.AvailableAt(sample), refAvail(m, live, sample))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEarliestSlotMatchesBruteForce: the hinted sweep must return the
// same slot as probing every breakpoint in order.
func TestEarliestSlotMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 24)
		p := NewProfile(m)
		for i := 0; i < 30; i++ {
			_ = p.Reserve(rng.Range(0, 200), rng.Range(1, 30), rng.IntRange(1, m))
		}
		for q := 0; q < 20; q++ {
			ready := rng.Range(0, 150)
			dur := rng.Range(0.5, 40)
			procs := rng.IntRange(1, m)
			got, err := p.EarliestSlot(ready, dur, procs)
			if err != nil {
				return false // finite reservations: never saturated forever
			}
			// Brute force: candidates are ready plus later breakpoints.
			cands := []float64{ready}
			for _, bp := range p.Breakpoints() {
				if bp > ready {
					cands = append(cands, bp)
				}
			}
			want := math.Inf(1)
			for _, c := range cands {
				if p.fits(c, dur, procs) {
					want = c
					break
				}
			}
			if got != want {
				t.Logf("seed %d: EarliestSlot(%v,%v,%d) = %v, brute force %v",
					seed, ready, dur, procs, got, want)
				return false
			}
			if !p.fits(got, dur, procs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEarliestAvail(t *testing.T) {
	p := NewProfile(8)
	if err := p.Reserve(0, 10, 6); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(0, 20, 2); err != nil {
		t.Fatal(err)
	}
	// [0,10): 0 free; [10,20): 6 free; [20,∞): 8 free.
	if at, extra := p.EarliestAvail(0, 4); at != 10 || extra != 2 {
		t.Fatalf("EarliestAvail(0,4) = %v,%d; want 10,2", at, extra)
	}
	if at, extra := p.EarliestAvail(0, 8); at != 20 || extra != 0 {
		t.Fatalf("EarliestAvail(0,8) = %v,%d; want 20,0", at, extra)
	}
	// from inside a satisfying segment clamps to from.
	if at, extra := p.EarliestAvail(12, 4); at != 12 || extra != 2 {
		t.Fatalf("EarliestAvail(12,4) = %v,%d; want 12,2", at, extra)
	}
	// from below the profile start (e.g. after TrimBefore) clamps up
	// instead of indexing before the first segment.
	p.TrimBefore(5)
	if at, extra := p.EarliestAvail(0, 4); at != 10 || extra != 2 {
		t.Fatalf("EarliestAvail(0,4) after trim = %v,%d; want 10,2", at, extra)
	}
}

func TestTrimBefore(t *testing.T) {
	p := NewProfile(4)
	if err := p.Reserve(0, 10, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(5, 10, 1); err != nil {
		t.Fatal(err)
	}
	p.TrimBefore(7)
	if got := p.Start(); got != 7 {
		t.Fatalf("Start() = %v after TrimBefore(7)", got)
	}
	if got := p.AvailableAt(7); got != 1 {
		t.Fatalf("AvailableAt(7) = %d, want 1", got)
	}
	if got := p.AvailableAt(12); got != 3 {
		t.Fatalf("AvailableAt(12) = %d, want 3", got)
	}
	if got := p.AvailableAt(20); got != 4 {
		t.Fatalf("AvailableAt(20) = %d, want 4", got)
	}
	// Queries keep working on the trimmed timeline: 3 procs free from 10,
	// the full machine only from 15.
	if s, err := p.EarliestSlot(7, 2, 3); err != nil || s != 10 {
		t.Fatalf("EarliestSlot(7,2,3) after trim = %v, %v; want 10", s, err)
	}
	if s, err := p.EarliestSlot(7, 2, 4); err != nil || s != 15 {
		t.Fatalf("EarliestSlot(7,2,4) after trim = %v, %v; want 15", s, err)
	}
	checkCanonical(t, p)
}

func TestCloneRecycleIndependence(t *testing.T) {
	p := NewProfile(4)
	if err := p.Reserve(2, 6, 3); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if err := c.Reserve(2, 6, 1); err != nil {
		t.Fatal(err)
	}
	if got := p.AvailableAt(4); got != 1 {
		t.Fatalf("clone mutation leaked into original: %d", got)
	}
	if got := c.AvailableAt(4); got != 0 {
		t.Fatalf("clone AvailableAt(4) = %d", got)
	}
	c.Recycle()
	// A recycled clone's arrays may be reused by the next Clone; the
	// original must stay untouched.
	c2 := p.Clone()
	defer c2.Recycle()
	if got := c2.AvailableAt(4); got != 1 {
		t.Fatalf("fresh clone disagrees with original: %d", got)
	}
}

// TestProfileReset: a reset profile is a new profile in every field —
// lookup hint included — on the arrays it already had.
func TestProfileReset(t *testing.T) {
	p := NewProfile(8)
	for i := 0; i < 6; i++ {
		if err := p.Reserve(float64(i), 2.5, 1); err != nil {
			t.Fatal(err)
		}
	}
	if p.Segments() < 6 || p.hint == 0 {
		t.Fatalf("set-up left %d segments, hint %d: nothing to reset", p.Segments(), p.hint)
	}
	if a := testing.AllocsPerRun(10, func() { p.Reset(5) }); a != 0 {
		t.Errorf("Reset allocates %v times, want 0", a)
	}
	var zero Profile
	zero.Reset(5)
	for name, q := range map[string]*Profile{"used": p, "zero": &zero} {
		if q.m != 5 || q.hint != 0 || len(q.times) != 1 || q.times[0] != 0 || len(q.avail) != 1 || q.avail[0] != 5 {
			t.Errorf("%s profile after Reset(5): %+v, want NewProfile(5)", name, *q)
		}
		if start, err := q.EarliestSlot(0, 3, 5); err != nil || start != 0 {
			t.Errorf("%s profile after Reset(5): slot for all 5 processors at %v, %v", name, start, err)
		}
	}
}

// FuzzProfileReserve runs one program of profile operations on two
// profiles, Reserve on one and referenceReserve on the other, and
// requires equal breakpoints (bit for bit), availabilities, lookup hints,
// errors and query answers after every operation. A program is a list of
// four-byte operations: an opcode (Reserve, Release, TrimBefore,
// EarliestSlot, EarliestAvail, Clone), two value codes and a processor
// count. A value code below 200 is a multiple of 1/4, so ends often fall
// on breakpoints; the others are x, y, NaN, ±Inf, a duration far below
// the ulp of any start past 1e-280, and Start()−1. A NaN breakpoint
// leaves the profile unsorted, where no operation promises anything, so
// the program ends after the operation that made one.
func FuzzProfileReserve(f *testing.F) {
	op := func(code, a, b, procs byte) []byte { return []byte{code, a, b, procs} }
	prog := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	const vx, vy, nan, inf, ninf, tiny, before = 200, 201, 202, 203, 204, 205, 206
	f.Add(uint8(7), 3.0, 0.0, prog(op(0, 4, 40, 2), op(0, 1, nan, 1), op(0, 2, 8, 1)))
	f.Add(uint8(7), 3.0, 0.0, prog(op(0, 4, 40, 2), op(0, 8, inf, 1), op(3, 0, 4, 3), op(0, 4, ninf, 1)))
	f.Add(uint8(7), 1e6+0.5, 1e-300, prog(op(0, 4, 40, 2), op(0, vx, vy, 1), op(0, vx, tiny, 1), op(2, vx, 0, 0), op(0, vx, vy, 8)))
	f.Add(uint8(3), 0.0, 0.0, prog(op(0, 0, 8, 2), op(0, 8, 8, 2), op(0, 4, 4, 1), op(0, 2, 6, 1), op(1, 4, 4, 1), op(1, 2, 2, 3)))
	f.Add(uint8(5), 0.0, 0.0, prog(op(2, 9, 0, 0), op(0, before, 4, 1), op(0, 9, 4, 1), op(5, 0, 0, 0), op(4, 9, 0, 6), op(0, 13, 4, 5)))
	f.Fuzz(func(t *testing.T, mb uint8, x, y float64, code []byte) {
		m := 1 + int(mb%16)
		got, want := NewProfile(m), NewProfile(m)
		value := func(c byte) float64 {
			switch c {
			case vx:
				return x
			case vy:
				return y
			case nan:
				return math.NaN()
			case inf:
				return math.Inf(1)
			case ninf:
				return math.Inf(-1)
			case tiny:
				return 1e-300
			case before:
				return want.Start() - 1
			}
			return float64(c%200) / 4
		}
		for n := 0; len(code) >= 4 && n < 64; code, n = code[4:], n+1 {
			a, b, procs := value(code[1]), value(code[2]), int(code[3]%byte(m+2))
			var what string
			var gotErr, wantErr error
			switch code[0] % 6 {
			case 0:
				what = fmt.Sprintf("Reserve(%v, %v, %d)", a, b, procs)
				gotErr, wantErr = got.Reserve(a, b, procs), referenceReserve(want, a, b, procs)
			case 1:
				what = fmt.Sprintf("Release(%v, %v, %d)", a, b, procs)
				gotErr, wantErr = got.Release(a, b, procs), want.Release(a, b, procs)
			case 2:
				what = fmt.Sprintf("TrimBefore(%v)", a)
				got.TrimBefore(a)
				want.TrimBefore(a)
			case 3:
				what = fmt.Sprintf("EarliestSlot(%v, %v, %d)", a, b, procs)
				g, ge := got.EarliestSlot(a, b, procs)
				w, we := want.EarliestSlot(a, b, procs)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s = %v, reference profile %v", what, g, w)
				}
				gotErr, wantErr = ge, we
			case 4:
				what = fmt.Sprintf("EarliestAvail(%v, %d)", a, procs)
				g, gs := got.EarliestAvail(a, procs)
				w, ws := want.EarliestAvail(a, procs)
				if math.Float64bits(g) != math.Float64bits(w) || gs != ws {
					t.Fatalf("%s = %v, %d; reference profile %v, %d", what, g, gs, w, ws)
				}
			case 5:
				what = "Clone"
				gc, wc := got.Clone(), want.Clone()
				got.Recycle()
				want.Recycle()
				got, want = gc, wc
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
			}
			sameBits := slices.EqualFunc(got.times, want.times, func(g, w float64) bool {
				return math.Float64bits(g) == math.Float64bits(w)
			})
			if !sameBits || !slices.Equal(got.avail, want.avail) || got.hint != want.hint {
				t.Fatalf("after %s: breakpoints %v avail %v hint %d, reference %v avail %v hint %d",
					what, got.times, got.avail, got.hint, want.times, want.avail, want.hint)
			}
			if slices.ContainsFunc(got.times, math.IsNaN) {
				return
			}
		}
	})
}
