package cluster

// Differential tests for the queue index: EASYPolicy and GreedyFitPolicy
// searching the index must decide, at every decision point, exactly what
// the walk down the whole queue they replaced decides — the same jobs by
// pointer, in the same order — and a lane must answer every search the
// way a linear scan of its entries does.

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/workload"
)

// walkEASY is EASYPolicy.Decide as shipped before the index: after the
// heads that fit, it tests every job behind the blocked head in queue
// order. It never looks at v.Index.
func walkEASY(v View) []Decision {
	if len(v.Queue) == 0 {
		return nil
	}
	var out []Decision
	avail := v.Avail
	queue := v.Queue
	profile, ok := v.planProfile()
	if !ok {
		return nil
	}
	defer profile.Recycle()
	for len(queue) > 0 {
		head := queue[0]
		p := procsFor(head)
		if p > avail {
			break
		}
		out = append(out, Decision{Job: head, Procs: p})
		avail -= p
		if err := profile.Reserve(v.Now, v.Duration(head, p), p); err != nil {
			return out
		}
		queue = queue[1:]
	}
	if len(queue) == 0 {
		return out
	}
	shadow, extra := profile.EarliestAvail(v.Now, procsFor(queue[0]))
	if extra < 0 {
		extra = 0
	}
	for _, j := range queue[1:] {
		if avail <= 0 {
			break
		}
		p := procsFor(j)
		if p > avail {
			continue
		}
		end := v.Now + v.Duration(j, p)
		fitsBefore := end <= shadow+1e-12
		fitsBeside := p <= extra
		if fitsBefore || fitsBeside {
			out = append(out, Decision{Job: j, Procs: p})
			avail -= p
			if !fitsBefore {
				extra -= p
			}
		}
	}
	return out
}

// walkGreedyFit is GreedyFitPolicy.Decide as shipped before the index.
func walkGreedyFit(v View) []Decision {
	var out []Decision
	avail := v.Avail
	for _, j := range v.Queue {
		if avail <= 0 {
			break
		}
		p := procsFor(j)
		if p <= avail {
			out = append(out, Decision{Job: j, Procs: p})
			avail -= p
		}
	}
	return out
}

// sameKey compares two tree keys, NaN equal to NaN.
func sameKey(a, b float64) bool { return a == b || (a != a && b != b) }

// checkLane verifies a lane's own invariants: entries by strictly
// increasing arrival number, a leaf row with each live entry's key and
// NaN everywhere else, and every inner node the minKey of its children.
func checkLane(t *testing.T, l *lane) {
	t.Helper()
	n := len(l.tree) / 2
	if n < minLaneCap || n&(n-1) != 0 || len(l.tree) != 2*n {
		t.Fatalf("lane %d: tree of %d nodes", l.width, len(l.tree))
	}
	if len(l.jobs) != len(l.seqs) || len(l.jobs) > n || cap(l.jobs) != n || cap(l.seqs) != n {
		t.Fatalf("lane %d: %d jobs (cap %d), %d arrival numbers (cap %d) under %d leaves",
			l.width, len(l.jobs), cap(l.jobs), len(l.seqs), cap(l.seqs), n)
	}
	live := 0
	for i := 0; i < n; i++ {
		dead := i >= len(l.jobs) || l.jobs[i] == nil
		if key := l.tree[n+i]; dead != (key != key) {
			t.Fatalf("lane %d: entry %d of %d has key %v (removed or unused: %v)", l.width, i, len(l.jobs), key, dead)
		}
		if !dead {
			live++
		}
		if i > 0 && i < len(l.seqs) && l.seqs[i] <= l.seqs[i-1] {
			t.Fatalf("lane %d: arrival numbers %d, %d at entries %d, %d", l.width, l.seqs[i-1], l.seqs[i], i-1, i)
		}
	}
	if live != l.live {
		t.Fatalf("lane %d: %d live entries, counted %d", l.width, live, l.live)
	}
	for k := n - 1; k >= 1; k-- {
		if want := minKey(l.tree[2*k], l.tree[2*k+1]); !sameKey(l.tree[k], want) {
			t.Fatalf("lane %d: node %d is %v, its children %v and %v", l.width, k, l.tree[k], l.tree[2*k], l.tree[2*k+1])
		}
	}
	for _, j := range l.jobs[len(l.jobs):cap(l.jobs)] {
		if j != nil {
			t.Fatalf("lane %d: job %d kept past the last entry", l.width, j.ID)
		}
	}
}

// checkIndex verifies that v.Index is in step with v.Queue: the indexed
// jobs are a prefix of the queue, numbered in queue order; each sits,
// live, in the lane of its width under its arrival number and its
// duration on this cluster; the lanes hold nothing else.
func checkIndex(t *testing.T, v View) {
	t.Helper()
	ix := v.Index
	if len(ix.seqs) > len(v.Queue) {
		t.Fatalf("t=%v: %d jobs indexed, %d queued", v.Now, len(ix.seqs), len(v.Queue))
	}
	live := 0
	for i := range ix.lanes {
		l := &ix.lanes[i]
		if i > 0 && l.width <= ix.lanes[i-1].width {
			t.Fatalf("t=%v: lanes of width %d, %d in that order", v.Now, ix.lanes[i-1].width, l.width)
		}
		checkLane(t, l)
		live += l.live
	}
	if live != len(ix.seqs) {
		t.Fatalf("t=%v: lanes hold %d jobs, %d are indexed", v.Now, live, len(ix.seqs))
	}
	for i, seq := range ix.seqs {
		j := v.Queue[i]
		if seq > ix.last || (i > 0 && seq <= ix.seqs[i-1]) {
			t.Fatalf("t=%v: queue position %d has arrival number %d after %d (last handed out: %d)",
				v.Now, i, seq, ix.seqs[max(i, 1)-1], ix.last)
		}
		p := procsFor(j)
		li := slices.IndexFunc(ix.lanes, func(l lane) bool { return l.width == p })
		if li < 0 {
			t.Fatalf("t=%v: job %d is indexed and there is no lane %d", v.Now, j.ID, p)
		}
		l := &ix.lanes[li]
		k, found := slices.BinarySearch(l.seqs, seq)
		if !found || l.jobs[k] != j {
			t.Fatalf("t=%v: job %d (queue position %d, arrival number %d) is not in lane %d", v.Now, j.ID, i, seq, p)
		}
		want := v.Duration(j, p)
		if want != want {
			want = math.Inf(1)
		}
		if key := l.tree[len(l.tree)/2+k]; key != want {
			t.Fatalf("t=%v: job %d indexed under duration %v, runs for %v", v.Now, j.ID, key, want)
		}
	}
}

// indexAudit runs an index-searching policy with the walk it replaced
// beside it at every decision.
type indexAudit struct {
	t     *testing.T
	inner Policy
	walk  func(View) []Decision
	// hog makes every third non-empty decision start with a wide job of
	// the audit's own choosing, so that the Sim refuses, for want of
	// processors, some of the starts that follow it.
	hog bool

	decisions, returned int
	// searches counts the decisions that went on to search the index, by
	// how many jobs the search took: none, one, several.
	searches [3]int
}

func (p *indexAudit) Name() string { return p.inner.Name() }

func (p *indexAudit) Decide(v View) []Decision {
	t := p.t
	p.decisions++
	if v.Index == nil {
		t.Fatal("view missing the queue index")
	}
	checkIndex(t, v) // as the Sim's starts, steals and requeues left it
	want := p.walk(v)
	got := p.inner.Decide(v)
	sameDecisions(t, v.Now, got, want)
	checkIndex(t, v)
	// A decision consumes nothing: asked again, the policy says the same.
	sameDecisions(t, v.Now, p.inner.Decide(v), want)
	checkIndex(t, v)

	// A decision searched if it stopped at a blocked head with processors
	// left and every queued job is indexed. (EASY gives up before that on
	// a view whose profile has fewer processors free than Avail says,
	// which a repair under a pinned SetAvailability can produce.)
	heads, avail := 0, v.Avail
	for heads < len(got) && got[heads].Job == v.Queue[heads] {
		avail -= got[heads].Procs
		heads++
	}
	if heads < len(v.Queue) && avail > 0 && len(v.Index.seqs) == len(v.Queue) {
		p.searches[min(len(got)-heads, 2)]++
	}

	if p.hog && len(got) > 0 && p.decisions%3 == 0 {
		var wide *workload.Job
		for _, j := range v.Queue {
			if procsFor(j) <= v.Avail && (wide == nil || procsFor(j) > procsFor(wide)) {
				wide = j
			}
		}
		got = append([]Decision{{wide, procsFor(wide)}}, got...)
	}
	p.returned += len(got)
	return got
}

// churnAudited runs churnTwoClusters with an indexAudit on each cluster
// and returns the audits, the clusters and the number of starts made.
func churnAudited(t *testing.T, seed uint64, inner Policy, walk func(View) []Decision, hog bool) (audits [2]*indexAudit, sims [2]*Sim, started int, ok bool) {
	t.Helper()
	for c := range audits {
		audits[c] = &indexAudit{t: t, inner: inner, walk: walk, hog: hog}
	}
	sims, ok = churnTwoClusters(t, seed, [2]Policy{audits[0], audits[1]}, func(s *Sim) {
		s.OnLocalStart = func(*workload.Job, int, float64) { started++ }
	})
	return audits, sims, started, ok
}

// testIndexMatchesWalk runs churnAudited over random seeds and requires
// that searches taking no, one and several jobs all occurred.
func testIndexMatchesWalk(t *testing.T, inner Policy, walk func(View) []Decision) {
	decisions := 0
	var searches [3]int
	f := func(seed uint64) bool {
		defer logFailingSeed(t, seed)
		audits, _, _, ok := churnAudited(t, seed, inner, walk, false)
		for _, a := range audits {
			decisions += a.decisions
			for k, n := range a.searches {
				searches[k] += n
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1.5}); err != nil {
		t.Fatal(err)
	}
	if searches[0] == 0 || searches[1] == 0 || searches[2] == 0 {
		t.Fatalf("searches that took no, one, several jobs: %v — all three must be exercised", searches)
	}
	t.Logf("%d decisions; searches that took no, one, several jobs: %v", decisions, searches)
}

// TestEASYIndexMatchesWalk: EASY backfilling off the index against the
// walk, on the harness of TestConservativePlanMatchesReplan.
func TestEASYIndexMatchesWalk(t *testing.T) { testIndexMatchesWalk(t, EASYPolicy{}, walkEASY) }

// TestGreedyFitIndexMatchesWalk is the same for GreedyFitPolicy.
func TestGreedyFitIndexMatchesWalk(t *testing.T) {
	testIndexMatchesWalk(t, GreedyFitPolicy{}, walkGreedyFit)
}

// TestIndexSurvivesRefusedStarts: a decided job whose start the Sim
// refuses — the processors it counted on went to a start made before it,
// or it was decided twice — stays queued and stays indexed, and the next
// decision still matches the walk. (indexAudit also decides twice on
// every view, which must change nothing.)
func TestIndexSurvivesRefusedStarts(t *testing.T) {
	returned, started := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		audits, _, n, ok := churnAudited(t, seed, EASYPolicy{}, walkEASY, true)
		if !ok {
			t.Fatalf("seed %d: not every job completed", seed)
		}
		started += n
		returned += audits[0].returned + audits[1].returned
	}
	if returned <= started {
		t.Fatalf("%d starts decided, %d made: none refused", returned, started)
	}
	t.Logf("%d of %d decided starts refused", returned-started, returned)
}

// held counts the pointers left in a slice's backing array, all the way
// to its capacity.
func held[T any](s []*T) int {
	n := 0
	for _, p := range s[:cap(s)] {
		if p != nil {
			n++
		}
	}
	return n
}

// decisionsHeld counts the decisions left in a slice's backing array, all
// the way to its capacity.
func decisionsHeld(s []Decision) int {
	n := 0
	for _, d := range s[:cap(s)] {
		if d != (Decision{}) {
			n++
		}
	}
	return n
}

// TestDrainedSimRetainsNothing: a finished job (and its time table), a
// finished best-effort task and a repaired outage must not stay reachable
// from the simulator — an order-keeping removal by append leaves a copy
// of the old last element behind the slice's end, a recycled run record
// or a lent decision slice the job it last held. Looks at every backing
// array up to its capacity once the clusters have run dry.
func TestDrainedSimRetainsNothing(t *testing.T) {
	for _, policy := range []Policy{EASYPolicy{}, GreedyFitPolicy{}, ConservativePolicy{}, FCFSPolicy{}} {
		for seed := uint64(1); seed <= 10; seed++ {
			sims, ok := churnTwoClusters(t, seed, [2]Policy{policy, policy}, nil)
			if !ok {
				t.Fatalf("%s, seed %d: not every job completed", policy.Name(), seed)
			}
			for _, s := range sims {
				queued := held(s.queue) + held(s.plan.jobs) + len(s.index.seqs)
				for _, l := range s.index.lanes {
					queued += held(l.jobs)
				}
				// Every record ever made is back in the free list, once, with
				// no job in it.
				recycled, free := 0, map[*localRunning]bool{}
				for _, r := range s.runFree {
					if r.job != nil || free[r] {
						recycled++
					}
					free[r] = true
				}
				// At most one per job running at once, and one per kill whose
				// stale event was still to come.
				if limit := s.M + s.faultStats.Requeues; len(free) == 0 || len(free) > limit {
					t.Fatalf("%s, seed %d: %d run records made, at most %d could be in use at once", policy.Name(), seed, len(free), limit)
				}
				for what, n := range map[string]int{
					"queued jobs": queued, "running jobs": held(s.running),
					"best-effort tasks": held(s.beActive), "outages": held(s.outages),
					"decisions in the scratch": decisionsHeld(s.decisions), "jobs in free run records (or records twice free)": recycled,
				} {
					if n > 0 {
						t.Fatalf("%s, seed %d: %d %s still referenced after the drain", policy.Name(), seed, n, what)
					}
				}
			}
		}
	}
}

// TestIndexMatchesWalkOnHandBuiltViews: random decision points built by
// hand — jobs wider than the machine or zero wide, NaN, infinite and
// zero durations, a shadow time that never comes, more processors
// promised than the running set leaves — decided through a one-shot index
// (View.Index nil) and through a kept one, twice; and, for EASY, on a
// view that carries the running set as a Profile, which the decision
// must read (cloning it only if it has to) and never write.
func TestIndexMatchesWalkOnHandBuiltViews(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), 0, 1e-300, 1e300}
	f := func(seed uint64) bool {
		defer logFailingSeed(t, seed)
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 24)
		v := View{Now: rng.Range(0, 100), M: m, Speed: 1 + 0.37*float64(rng.Intn(2))}
		used := 0
		for used < m && rng.Bool(0.8) {
			procs := rng.IntRange(1, m-used)
			// Whole numbers often, so that jobs end exactly at the shadow time.
			v.Running = append(v.Running, RunningInfo{End: v.Now + math.Ceil(rng.Range(0, 20)), Procs: procs})
			used += procs
		}
		v.Avail = m - used
		if rng.Bool(0.15) {
			v.Avail = min(m, v.Avail+rng.IntRange(1, 3)) // an inconsistent view
		}
		for i, n := 0, rng.Intn(40); i < n; i++ {
			p := rng.IntRange(1, m/2)
			switch {
			case rng.Bool(0.05):
				p = rng.IntRange(m+1, m+3)
			case rng.Bool(0.03):
				p = 0
			}
			j := rjob(i, math.Ceil(rng.Range(0, 20))/v.Speed, p, 0)
			switch {
			case rng.Bool(0.3):
				j = rjob(i, rng.Range(0.1, 20), p, 0)
			case rng.Bool(0.15) && p > 0:
				j.Times = make([]float64, p)
				j.Times[p-1] = odd[rng.Intn(len(odd))]
			}
			v.Queue = append(v.Queue, j)
		}
		for _, c := range []struct {
			inner Policy
			walk  func(View) []Decision
		}{{EASYPolicy{}, walkEASY}, {GreedyFitPolicy{}, walkGreedyFit}} {
			want := c.walk(v)
			sameDecisions(t, v.Now, c.inner.Decide(v), want)
			kept := v
			kept.Index = new(QueueIndex)
			for round := 0; round < 2; round++ {
				sameDecisions(t, v.Now, c.inner.Decide(kept), want)
				checkIndex(t, kept)
			}
		}
		profiled := v
		profiled.Profile, _ = v.planProfile()
		before := profiled.Profile.Clone()
		sameDecisions(t, v.Now, EASYPolicy{}.Decide(profiled), walkEASY(v))
		sameAvailability(t, v.Now, profiled.Profile, before, 0, "View.Profile after the decision", "before")
		if profiled.Profile.Segments() != before.Segments() {
			t.Fatalf("t=%v: the decision left View.Profile with %d segments for %d", v.Now, profiled.Profile.Segments(), before.Segments())
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 5}); err != nil {
		t.Fatal(err)
	}
}

// Palettes of the lane tests: few values, so that equal durations and
// equal end times are common, and the extremes among them.
var (
	laneDurs = []float64{0, 1, 2, 3, 0.1, 0.2, 0.1 + 0.2, 0.3, 1e-9, 1e9, 1e300, math.MaxFloat64,
		5e-324, -1, math.Inf(1), math.NaN()}
	laneNows = []float64{0, 1, 0.1, 123.456, 1e9, 1e-9}
)

// runLaneOps drives one lane and a linear-scan model of it through the
// operations encoded in ops — push, remove, rebuild (which compacts,
// grows or shrinks) and search — and requires the same answer to every
// search and the lane's invariants after every step. Search bounds sit
// exactly at now+duration of some entry, one ULP below it and one ULP
// above, where a pruning test that was not the entry's own expression
// would show.
func runLaneOps(t *testing.T, ops []byte) {
	t.Helper()
	type entry struct {
		seq  uint64
		key  float64
		live bool
	}
	var (
		l     = lane{width: 1}
		model []entry
		live  int
		seq   uint64
	)
	take := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	for len(ops) > 0 {
		switch op := take() % 8; op {
		case 0, 1, 2:
			seq += uint64(1 + take()%3) // other lanes take the numbers between
			dur := laneDurs[take()%len(laneDurs)]
			l.push(&workload.Job{ID: int(seq)}, seq, dur)
			if dur != dur {
				dur = math.Inf(1)
			}
			model = append(model, entry{seq, dur, true})
			live++
		case 3, 4:
			if live == 0 {
				continue
			}
			k := take() % live
			for i := range model {
				if model[i].live {
					if k == 0 {
						l.remove(model[i].seq)
						model[i].live = false
						live--
						break
					}
					k--
				}
			}
		case 5:
			l.rebuild()
		default:
			if len(model) == 0 {
				continue // a lane exists from its first push on
			}
			after := uint64(0)
			switch pick := model[take()%len(model)].seq; take() % 4 {
			case 0:
				after = pick
			case 1:
				after = pick - 1
			case 2:
				after = seq
			}
			now := laneNows[take()%len(laneNows)]
			bound := now + model[take()%len(model)].key
			switch take() % 8 {
			case 0:
				bound = math.Nextafter(bound, math.Inf(-1))
			case 1:
				bound = math.Nextafter(bound, math.Inf(1))
			case 2:
				bound = math.Inf(1)
			case 3:
				bound = math.NaN()
			case 4:
				bound = math.Inf(-1)
			}
			want := int64(-1)
			for _, e := range model {
				if e.live && e.seq > after && now+e.key <= bound {
					want = int64(e.seq)
					break
				}
			}
			got := int64(-1)
			if k := l.first(after, now, bound); k >= 0 {
				got = int64(l.seqs[k])
			}
			if got != want {
				t.Fatalf("first job after %d with %v+duration <= %v: lane says %d, linear scan %d", after, now, bound, got, want)
			}
		}
		if l.tree != nil {
			checkLane(t, &l)
		}
		if l.live != live {
			t.Fatalf("lane holds %d live entries, model %d", l.live, live)
		}
	}
}

// TestLaneMatchesLinearScan is runLaneOps over random operation strings.
func TestLaneMatchesLinearScan(t *testing.T) {
	f := func(seed uint64) bool {
		defer logFailingSeed(t, seed)
		rng := stats.NewRNG(seed)
		ops := make([]byte, rng.IntRange(50, 3000))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runLaneOps(t, ops)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzLaneOps is runLaneOps under the fuzzer.
func FuzzLaneOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 4, 6, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 14, 1, 2, 15, 2, 0, 11, 7, 1, 2, 4, 2, 2, 3, 0, 5, 6, 0, 3, 5, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 5, 7, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) { runLaneOps(t, ops) })
}
