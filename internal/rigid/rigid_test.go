package rigid

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func rjob(id int, dur float64, procs int) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: dur * float64(procs), MinProcs: procs, MaxProcs: procs,
		Model: workload.Linear{}, // TimeOn(procs) = dur
	}
}

func TestProfileBasics(t *testing.T) {
	p := NewProfile(4)
	if p.AvailableAt(0) != 4 {
		t.Fatal("fresh profile not fully free")
	}
	if err := p.Reserve(10, 5, 3); err != nil {
		t.Fatal(err)
	}
	if got := p.AvailableAt(12); got != 1 {
		t.Fatalf("AvailableAt(12) = %d", got)
	}
	if got := p.AvailableAt(15); got != 4 {
		t.Fatalf("AvailableAt(15) = %d (half-open end)", got)
	}
	if got := p.AvailableAt(9.99); got != 4 {
		t.Fatalf("AvailableAt(9.99) = %d", got)
	}
}

func TestProfileOverReserve(t *testing.T) {
	p := NewProfile(2)
	if err := p.Reserve(0, 10, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(5, 10, 1); err == nil {
		t.Fatal("over-reservation accepted")
	}
}

func TestProfileRelease(t *testing.T) {
	p := NewProfile(4)
	if err := p.Reserve(0, 10, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(2, 3, 2); err != nil {
		t.Fatal(err)
	}
	if got := p.AvailableAt(3); got != 3 {
		t.Fatalf("AvailableAt(3) after release = %d", got)
	}
	if err := p.Release(0, 1, 4); err == nil {
		t.Fatal("over-release accepted")
	}
}

func TestEarliestSlotFindsHole(t *testing.T) {
	p := NewProfile(4)
	// Block 3 procs during [0, 10): a 1-proc job fits at 0, a 2-proc at 10.
	if err := p.Reserve(0, 10, 3); err != nil {
		t.Fatal(err)
	}
	if s, err := p.EarliestSlot(0, 5, 1); err != nil || s != 0 {
		t.Fatalf("1-proc slot = %v, %v", s, err)
	}
	if s, err := p.EarliestSlot(0, 5, 2); err != nil || s != 10 {
		t.Fatalf("2-proc slot = %v, %v", s, err)
	}
}

func TestEarliestSlotSpanningSegments(t *testing.T) {
	p := NewProfile(4)
	// Two gaps: [0,5) has 1 free, [5,8) has 4 free, [8,12) has 1 free.
	if err := p.Reserve(0, 5, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Reserve(8, 4, 3); err != nil {
		t.Fatal(err)
	}
	// A 2-proc job of length 4 does not fit in [5,8); earliest is 12.
	if s, err := p.EarliestSlot(0, 4, 2); err != nil || s != 12 {
		t.Fatalf("slot = %v, %v; want 12", s, err)
	}
	// Length 3 fits exactly at 5.
	if s, err := p.EarliestSlot(0, 3, 2); err != nil || s != 5 {
		t.Fatalf("slot = %v, %v; want 5", s, err)
	}
}

func TestEarliestSlotTooWide(t *testing.T) {
	p := NewProfile(2)
	if _, err := p.EarliestSlot(0, 1, 3); err == nil {
		t.Fatal("slot wider than platform accepted")
	}
}

func TestProfileFromCalendar(t *testing.T) {
	cal, err := platform.NewCalendar(4, []platform.Reservation{
		{Name: "r", Start: 5, End: 10, Procs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfileFromCalendar(cal)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.AvailableAt(7); got != 2 {
		t.Fatalf("AvailableAt(7) = %d", got)
	}
}

func TestFCFSOrder(t *testing.T) {
	// Queue: wide job then narrow job. FCFS must not let the narrow job
	// start before the wide one.
	jobs := []*workload.Job{
		rjob(1, 10, 4), // released 0
		rjob(2, 1, 1),  // released 0, queued after
	}
	s, err := FCFSWithCalendar(jobs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	starts := map[int]float64{}
	for _, a := range s.Allocs {
		starts[a.Job.ID] = a.Start
	}
	if starts[2] < starts[1] {
		t.Fatalf("FCFS reordered: job2 at %v before job1 at %v", starts[2], starts[1])
	}
}

func TestConservativeBackfills(t *testing.T) {
	// Job1 holds 3/4 procs for 10s; job2 (queued 2nd) needs 2 procs →
	// waits; job3 needs 1 proc for 2s → backfills at t=0 without delaying
	// job2.
	jobs := []*workload.Job{
		rjob(1, 10, 3),
		rjob(2, 5, 2),
		rjob(3, 2, 1),
	}
	s, err := Conservative(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	starts := map[int]float64{}
	for _, a := range s.Allocs {
		starts[a.Job.ID] = a.Start
	}
	if starts[3] != 0 {
		t.Fatalf("job3 should backfill at 0, got %v", starts[3])
	}
	if starts[2] != 10 {
		t.Fatalf("job2 should start at 10, got %v", starts[2])
	}
}

func TestConservativeRespectsReleases(t *testing.T) {
	j := rjob(1, 5, 1)
	j.Release = 42
	s, err := Conservative([]*workload.Job{j}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Allocs[0].Start != 42 {
		t.Fatalf("start = %v, want release 42", s.Allocs[0].Start)
	}
}

func TestListLPTBetterOrEqualFCFSOnCmax(t *testing.T) {
	rng := stats.NewRNG(5)
	var jobs []*workload.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, rjob(i, rng.Range(1, 20), rng.IntRange(1, 8)))
	}
	lpt, err := List(jobs, nil, 8, ByLPT)
	if err != nil {
		t.Fatal(err)
	}
	if err := lpt.Validate(); err != nil {
		t.Fatal(err)
	}
	// LPT list scheduling should stay within 2x of the lower bound here.
	lb := lowerbound.Cmax(jobs, 8)
	if lpt.Makespan() > 2.5*lb {
		t.Fatalf("LPT makespan %v vs bound %v", lpt.Makespan(), lb)
	}
}

func TestFCFSWithCalendarAvoidsReservation(t *testing.T) {
	cal, err := platform.NewCalendar(4, []platform.Reservation{
		{Name: "res", Start: 0, End: 10, Procs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := FCFSWithCalendar([]*workload.Job{rjob(1, 5, 2)}, 4, cal)
	if err != nil {
		t.Fatal(err)
	}
	if s.Allocs[0].Start != 10 {
		t.Fatalf("job started at %v inside full reservation", s.Allocs[0].Start)
	}
}

func TestCalendarWidthMismatch(t *testing.T) {
	cal, _ := platform.NewCalendar(8, nil)
	if _, err := FCFSWithCalendar([]*workload.Job{rjob(1, 1, 1)}, 4, cal); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

// TestProfileFromHairlineCalendar: NewCalendar's tie rule accepts
// reservations [0, 0.1+0.2) and [0.3, 1) on one processor, but a profile
// reserves exactly, so it refuses the ulp they overlap by.
func TestProfileFromHairlineCalendar(t *testing.T) {
	tenth, fifth := 0.1, 0.2
	cal, err := platform.NewCalendar(1, []platform.Reservation{
		{Name: "a", Start: 0, End: tenth + fifth, Procs: 1},
		{Name: "b", Start: 0.3, End: 1, Procs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProfileFromCalendar(cal); err == nil {
		t.Fatal("a profile reserved one processor twice over [0.3, 0.1+0.2)")
	}
}

func TestFFDHFillsEarlierShelves(t *testing.T) {
	// Heights 10, 9, 1 with widths 2, 3, 1 on m=4: job 2 opens shelf 2,
	// and FFDH packs job 3 back onto shelf 1.
	jobs := []*workload.Job{
		rjob(1, 10, 2), rjob(2, 9, 3), rjob(3, 1, 1),
	}
	ff, err := FFDH(jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := ShelvesToSchedule(ff, 4)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 19 {
		t.Fatalf("FFDH makespan = %v, want 19 (job3 on first shelf)", got)
	}
}

func TestShelvesRejectOversizedJob(t *testing.T) {
	if _, err := FFDH([]*workload.Job{rjob(1, 1, 9)}, 4); err == nil {
		t.Fatal("oversized job accepted by FFDH")
	}
}

// Property: all rigid policies emit valid schedules covering all jobs, and
// conservative backfilling never exceeds FCFS on makespan.
func TestPoliciesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 16)
		n := rng.IntRange(1, 30)
		var jobs []*workload.Job
		clock := 0.0
		for i := 0; i < n; i++ {
			j := rjob(i, rng.Range(0.5, 20), rng.IntRange(1, m))
			clock += rng.Exp(0.5)
			j.Release = clock
			jobs = append(jobs, j)
		}
		fcfs, err := FCFSWithCalendar(jobs, m, nil)
		if err != nil || fcfs.Validate() != nil || fcfs.Covers(jobs) != nil {
			return false
		}
		cons, err := Conservative(jobs, m)
		if err != nil || cons.Validate() != nil || cons.Covers(jobs) != nil {
			return false
		}
		lpt, err := List(jobs, nil, m, ByLPT)
		if err != nil || lpt.Validate() != nil {
			return false
		}
		// Conservative dominates FCFS start-time-wise per job, hence also
		// on makespan.
		return cons.Makespan() <= fcfs.Makespan()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: FFDH schedules are valid and within the classical 3x of the
// lower bound for offline jobs (FFDH's asymptotic bound is 1.7·OPT +
// hmax; 3x is a safe envelope that catches gross packing bugs).
func TestShelfQualityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 16)
		n := rng.IntRange(1, 40)
		var jobs []*workload.Job
		for i := 0; i < n; i++ {
			jobs = append(jobs, rjob(i, rng.Range(0.5, 20), rng.IntRange(1, m)))
		}
		lb := lowerbound.Cmax(jobs, m)
		shelves, err := FFDH(jobs, m)
		if err != nil {
			return false
		}
		s := ShelvesToSchedule(shelves, m)
		return s.Validate() == nil && s.Covers(jobs) == nil && s.Makespan() <= 3*lb+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSortJobsOrders(t *testing.T) {
	first := func(jobs []*workload.Job, ord Order, procs []int) int {
		return jobs[sortJobs(jobs, procs, ord)[0].Pos].ID
	}
	jobs := []*workload.Job{rjob(1, 5, 1), rjob(2, 10, 2), rjob(3, 1, 4)}
	if lpt := sortJobs(jobs, nil, ByLPT); jobs[lpt[0].Pos].ID != 2 || jobs[lpt[2].Pos].ID != 3 {
		t.Fatal("ByLPT wrong")
	}
	if first(jobs, BySPT, nil) != 3 {
		t.Fatal("BySPT wrong")
	}
	if first(jobs, ByArea, nil) != 2 { // 20 > 5 ≥ 4
		t.Fatal("ByArea wrong")
	}
	// Widths price the order: job 1 at 1 proc (5) outlasts job 2 pinned
	// where it takes 1 and job 3 where it takes 0.25.
	mold := func(id int, seq float64, maxP int) *workload.Job {
		return &workload.Job{ID: id, Kind: workload.Moldable, Weight: 1, DueDate: -1,
			SeqTime: seq, MinProcs: 1, MaxProcs: maxP, Model: workload.Linear{}}
	}
	molds := []*workload.Job{rjob(1, 5, 1), mold(2, 10, 10), mold(3, 1, 4)}
	if first(molds, ByLPT, []int{1, 10, 4}) != 1 || first(molds, ByLPT, nil) != 2 {
		t.Fatal("ByLPT does not price the given widths")
	}
}

// TestListRunsTheGivenWidths: List runs job i on procs[i] and names the
// job itself, and refuses a width the job does not allow or a width
// slice of another length.
func TestListRunsTheGivenWidths(t *testing.T) {
	jobs := []*workload.Job{rjob(1, 5, 1),
		{ID: 2, Kind: workload.Moldable, Weight: 1, SeqTime: 10, MinProcs: 1, MaxProcs: 10, Model: workload.Linear{}}}
	procs := []int{1, 4}
	s, err := List(jobs, procs, 8, ByLPT)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, a := range s.Allocs {
		i := slices.Index(jobs, a.Job)
		if i < 0 || a.Procs != procs[i] || a.Job.TimeOn(a.Procs) != []float64{5, 2.5}[i] {
			t.Fatalf("allocation %+v, want job %d on %v", a, a.Job.ID, procs)
		}
	}
	if _, err := List(jobs, []int{1, 11}, 16, ByLPT); err == nil {
		t.Fatal("a width outside the job's range was accepted")
	}
	if _, err := List(jobs, []int{1}, 8, ByLPT); err == nil {
		t.Fatal("one width for two jobs was accepted")
	}
}

func TestCompactImprovesShelfSchedule(t *testing.T) {
	// A shelf schedule leaves idle steps at the top of each shelf;
	// compaction must reclaim some without breaking validity.
	rng := stats.NewRNG(21)
	var jobs []*workload.Job
	for i := 0; i < 50; i++ {
		jobs = append(jobs, rjob(i, rng.Range(1, 20), rng.IntRange(1, 8)))
	}
	shelves, err := FFDH(jobs, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := ShelvesToSchedule(shelves, 8)
	compacted, err := Compact(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := compacted.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		t.Fatal(err)
	}
	if compacted.Makespan() > s.Makespan()+1e-9 {
		t.Fatalf("compaction worsened makespan: %v -> %v", s.Makespan(), compacted.Makespan())
	}
	if compacted.Makespan() >= s.Makespan() {
		t.Skip("no idle steps to reclaim on this draw")
	}
}

// Property: compaction never delays any job, never breaks validity, and
// preserves the job set.
func TestCompactProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 12)
		n := rng.IntRange(1, 30)
		var jobs []*workload.Job
		clock := 0.0
		for i := 0; i < n; i++ {
			clock += rng.Exp(0.5)
			j := rjob(i, rng.Range(0.5, 15), rng.IntRange(1, m))
			j.Release = clock
			jobs = append(jobs, j)
		}
		base, err := FCFSWithCalendar(jobs, m, nil)
		if err != nil {
			return false
		}
		compacted, err := Compact(base)
		if err != nil {
			return false
		}
		if compacted.Validate() != nil || compacted.Covers(jobs) != nil {
			return false
		}
		starts := map[int]float64{}
		for _, a := range base.Allocs {
			starts[a.Job.ID] = a.Start
		}
		for _, a := range compacted.Allocs {
			if a.Start > starts[a.Job.ID]+1e-9 {
				return false // compaction delayed a job
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
