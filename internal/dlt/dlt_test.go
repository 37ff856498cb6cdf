package dlt

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func homogeneousBus(n int, compute, link float64) *Star {
	cs := make([]float64, n)
	for i := range cs {
		cs[i] = compute
	}
	return Bus(cs, link, 0)
}

func TestValidate(t *testing.T) {
	bad := []*Star{
		{},
		{Workers: []Worker{{Compute: 0, Link: 1}}},
		{Workers: []Worker{{Compute: 1, Link: -1}}},
		{Workers: []Worker{{Compute: 1, Link: 1}}, Latency: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad platform %d accepted", i)
		}
	}
}

func TestSingleRoundFractionsSumToOne(t *testing.T) {
	s := Bus([]float64{1, 2, 4}, 0.1, 0)
	d, err := SingleRound(s, 100)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range d.Alpha {
		if a < 0 {
			t.Fatalf("negative fraction %v", a)
		}
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
}

func TestSingleRoundSimultaneousCompletion(t *testing.T) {
	s := &Star{Workers: []Worker{
		{Compute: 1, Link: 0.1},
		{Compute: 2, Link: 0.3},
		{Compute: 3, Link: 0.2},
	}}
	W := 50.0
	d, err := SingleRound(s, W)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the one-port timeline in the service order (link ascending)
	// and verify all participants finish at the makespan.
	order := ordering(s)
	clock := 0.0
	for _, wi := range order {
		if d.Alpha[wi] == 0 {
			continue
		}
		w := s.Workers[wi]
		clock += d.Alpha[wi] * w.Link * W
		finish := clock + d.Alpha[wi]*w.Compute*W
		if math.Abs(finish-d.Makespan) > 1e-6*d.Makespan {
			t.Fatalf("worker %d finishes at %v, makespan %v", wi, finish, d.Makespan)
		}
	}
}

func TestSingleRoundHomogeneousBusFormula(t *testing.T) {
	// n identical workers (compute w, link c) on a bus: the closed form
	// gives α_{i+1} = α_i · w/(c+w). Verify against the recurrence.
	s := homogeneousBus(4, 2, 0.5)
	d, err := SingleRound(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	ratio := 2.0 / 2.5
	for i := 0; i+1 < 4; i++ {
		got := d.Alpha[i+1] / d.Alpha[i]
		if math.Abs(got-ratio) > 1e-9 {
			t.Fatalf("fraction ratio %v, want %v", got, ratio)
		}
	}
}

func TestSingleRoundBeatsLowerBound(t *testing.T) {
	s := Bus([]float64{1, 2, 3, 5}, 0.2, 0)
	W := 200.0
	d, err := SingleRound(s, W)
	if err != nil {
		t.Fatal(err)
	}
	if lb := LowerBound(s, W); d.Makespan < lb-1e-9 {
		t.Fatalf("makespan %v below lower bound %v", d.Makespan, lb)
	}
}

func TestSingleRoundDropsWorkersUnderLatency(t *testing.T) {
	// Huge per-message latency: using all 8 workers must be worse than a
	// subset; the solver should not return negative fractions.
	s := homogeneousBus(8, 1, 0.01)
	s.Latency = 50
	d, err := SingleRound(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, a := range d.Alpha {
		if a > 1e-12 {
			active++
		}
	}
	if active == 8 {
		t.Fatalf("all workers kept despite latency 50 (makespan %v)", d.Makespan)
	}
}

func TestSingleRoundFasterLinkServedFirstIsBetter(t *testing.T) {
	// The optimal order serves cheaper links first; verify the solver's
	// makespan is no worse than the reversed-order solution.
	s := &Star{Workers: []Worker{
		{Compute: 1, Link: 0.05},
		{Compute: 1, Link: 0.5},
	}}
	W := 30.0
	d, err := SingleRound(s, W)
	if err != nil {
		t.Fatal(err)
	}
	rev, ok := singleRoundPrefix(s, W, []int{1, 0})
	if ok && rev.Makespan < d.Makespan-1e-9 {
		t.Fatalf("reversed order better: %v < %v", rev.Makespan, d.Makespan)
	}
}

func TestMultiRoundOverlapsCommunication(t *testing.T) {
	// Comm-heavy platform, no latency: multi-round should beat one round
	// by overlapping sends with computation.
	s := homogeneousBus(4, 1, 0.5)
	W := 100.0
	one, err := SingleRound(s, W)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MultiRound(s, W, 10)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Makespan >= one.Makespan {
		t.Fatalf("10 rounds (%v) not better than 1 round (%v) on comm-heavy bus",
			multi.Makespan, one.Makespan)
	}
}

func TestMultiRoundLatencyCrossover(t *testing.T) {
	// With heavy latency, many rounds pay R·n messages and must lose to
	// one round — the T5 crossover.
	s := homogeneousBus(4, 1, 0.1)
	s.Latency = 20
	W := 100.0
	one, err := SingleRound(s, W)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MultiRound(s, W, 20)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Makespan <= one.Makespan {
		t.Fatalf("20 rounds (%v) beat 1 round (%v) despite latency 20",
			multi.Makespan, one.Makespan)
	}
}

func TestMultiRoundConservesLoad(t *testing.T) {
	s := Bus([]float64{1, 3}, 0.2, 0.5)
	d, err := MultiRound(s, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range d.Alpha {
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("distributed fractions sum to %v", sum)
	}
	if d.Messages == 0 {
		t.Fatalf("messages bookkeeping: %+v", d)
	}
}

func TestSelfScheduleCompletes(t *testing.T) {
	s := Bus([]float64{1, 2, 4}, 0.1, 0.2)
	d, err := SelfSchedule(s, 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, a := range d.Alpha {
		sum += a
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
	if d.Makespan < LowerBound(s, 60)-1e-9 {
		t.Fatal("self-schedule beat the lower bound")
	}
}

func TestSelfScheduleFasterWorkerGetsMore(t *testing.T) {
	s := &Star{Workers: []Worker{
		{Compute: 1, Link: 0.01},
		{Compute: 10, Link: 0.01},
	}}
	d, err := SelfSchedule(s, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Alpha[0] <= d.Alpha[1] {
		t.Fatalf("fast worker got %v, slow got %v", d.Alpha[0], d.Alpha[1])
	}
}

func TestSelfScheduleChunkTradeoff(t *testing.T) {
	// With latency, tiny chunks pay per-message overhead; huge chunks
	// lose balance. A mid chunk should beat a tiny chunk here.
	s := homogeneousBus(4, 1, 0.05)
	s.Latency = 1
	W := 200.0
	tiny, err := SelfSchedule(s, W, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := SelfSchedule(s, W, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Makespan >= tiny.Makespan {
		t.Fatalf("chunk 10 (%v) not better than chunk 0.5 (%v) under latency",
			mid.Makespan, tiny.Makespan)
	}
}

func TestSteadyStateThroughputBusSaturation(t *testing.T) {
	// Two workers, compute 1 (rate 1 each), links 0.25: port allows
	// 1/0.25 = 4 units/s; workers cap at 2. Throughput = 2.
	s := Bus([]float64{1, 1}, 0.25, 0)
	if got := SteadyStateThroughput(s); math.Abs(got-2) > 1e-9 {
		t.Fatalf("throughput %v, want 2 (compute-bound)", got)
	}
	// Expensive links: port 1/c = 0.5 caps below compute 2.
	s2 := Bus([]float64{1, 1}, 2, 0)
	if got := SteadyStateThroughput(s2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("throughput %v, want 0.5 (port-bound)", got)
	}
}

func TestSteadyStatePrefersCheapLinks(t *testing.T) {
	// Cheap-link slow worker plus expensive-link fast worker: the
	// bandwidth-centric rule saturates the cheap link first, then spends
	// the remaining port budget on the expensive one.
	s := &Star{Workers: []Worker{
		{Compute: 2, Link: 0.1}, // rate ≤ 0.5, port cost 0.1/unit
		{Compute: 0.5, Link: 1}, // rate ≤ 2, port cost 1/unit
	}}
	// Cheap worker: x0 = 0.5 uses 0.05 port. Remaining 0.95 port allows
	// x1 = 0.95 < 2. Total 1.45.
	if got := SteadyStateThroughput(s); math.Abs(got-1.45) > 1e-9 {
		t.Fatalf("throughput %v, want 1.45", got)
	}
}

func TestLowerBoundTerms(t *testing.T) {
	s := Bus([]float64{1, 1}, 3, 0)
	// compute bound: W / (1+1) = 0.5W; port bound: 3W → port dominates.
	if got := LowerBound(s, 10); math.Abs(got-30) > 1e-9 {
		t.Fatalf("LowerBound = %v, want 30", got)
	}
	s2 := Bus([]float64{4, 4}, 0.1, 0)
	// compute: 10/(0.5) = 20; port: 1 → compute dominates.
	if got := LowerBound(s2, 10); math.Abs(got-20) > 1e-9 {
		t.Fatalf("LowerBound = %v, want 20", got)
	}
}

func TestBadInputs(t *testing.T) {
	s := homogeneousBus(2, 1, 0.1)
	if _, err := SingleRound(s, 0); err == nil {
		t.Fatal("W=0 accepted by SingleRound")
	}
	if _, err := MultiRound(s, 10, 0); err == nil {
		t.Fatal("R=0 accepted by MultiRound")
	}
	if _, err := SelfSchedule(s, 10, 0); err == nil {
		t.Fatal("chunk=0 accepted by SelfSchedule")
	}
}

// Property: all policies conserve load, respect the lower bound, and the
// omniscient single round is never beaten by self-scheduling with the
// same platform at zero latency (it is the optimal one-round schedule,
// and chunked self-scheduling is a feasible... NOTE: multi-round CAN beat
// single round, so only self-schedule with huge chunk (≈ single round
// without simultaneity) is compared).
func TestPoliciesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		n := rng.IntRange(1, 8)
		ws := make([]Worker, n)
		for i := range ws {
			ws[i] = Worker{Compute: rng.Range(0.5, 5), Link: rng.Range(0.01, 1)}
		}
		s := &Star{Workers: ws, Latency: rng.Range(0, 2)}
		W := rng.Range(10, 500)
		lb := LowerBound(s, W)

		check := func(d *Distribution, err error) bool {
			if err != nil {
				return false
			}
			var sum float64
			for _, a := range d.Alpha {
				if a < -1e-12 {
					return false
				}
				sum += a
			}
			return math.Abs(sum-1) < 1e-6 && d.Makespan >= lb*(1-1e-9)
		}
		if !check(SingleRound(s, W)) {
			return false
		}
		if !check(MultiRound(s, W, rng.IntRange(1, 10))) {
			return false
		}
		return check(SelfSchedule(s, W, W/float64(rng.IntRange(2, 50))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
