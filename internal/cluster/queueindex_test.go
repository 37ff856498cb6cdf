package cluster

// Tests for the queue index: the index must stay in step with the queue
// (checkIndex, which TestSimMatchesReference runs around every decision),
// EASYPolicy and GreedyFitPolicy searching it must decide what the
// reference's walks down the whole queue decide, and a lane must answer
// every search the way a linear scan of its entries does.

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/workload"
)

// laneOf returns ix's lane of the given width, or nil if it has none.
func laneOf(ix *QueueIndex, width int) *lane {
	if k := slices.IndexFunc(ix.lanes, func(l lane) bool { return l.width == width }); k >= 0 {
		return &ix.lanes[k]
	}
	return nil
}

// sameKey compares two tree keys, NaN equal to NaN.
func sameKey(a, b float64) bool { return a == b || (a != a && b != b) }

// checkLane verifies a lane's own invariants: entries by strictly
// increasing slot number, a leaf row with each live entry's key and
// NaN everywhere else, and every inner node the minKey of its children.
func checkLane(t *testing.T, l *lane) {
	t.Helper()
	n := len(l.tree) / 2
	if n < minLaneCap || n&(n-1) != 0 || len(l.tree) != 2*n {
		t.Fatalf("lane %d: tree of %d nodes", l.width, len(l.tree))
	}
	if len(l.jobs) != len(l.slots) || len(l.jobs) > n || cap(l.jobs) != n || cap(l.slots) != n {
		t.Fatalf("lane %d: %d jobs (cap %d), %d slot numbers (cap %d) under %d leaves",
			l.width, len(l.jobs), cap(l.jobs), len(l.slots), cap(l.slots), n)
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
		if i > 0 && i < len(l.slots) && l.slots[i] <= l.slots[i-1] {
			t.Fatalf("lane %d: slot numbers %d, %d at entries %d, %d", l.width, l.slots[i-1], l.slots[i], i-1, i)
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

// checkIndex verifies that v.Index is in step with v.Queue: the index's
// end lies at most at the queue's, so that an arrival is indexed at the
// next search; each job queued in a slot numbered below that end sits,
// live, in the lane of its width under its slot number and its duration
// on this cluster; the lanes hold nothing else.
func checkIndex(t *testing.T, v View) {
	t.Helper()
	ix := v.Index
	if end := v.base + len(v.Queue); ix.end > end {
		t.Fatalf("t=%v: the index counts slots up to %d indexed, the queue ends at %d", v.Now, ix.end, end)
	}
	live := 0
	for i := range ix.lanes {
		l := &ix.lanes[i]
		if i > 0 && l.width <= ix.lanes[i-1].width {
			t.Fatalf("t=%v: lanes of width %d, %d in that order", v.Now, ix.lanes[i-1].width, l.width)
		}
		if l.width >= 0 && (l.width >= len(ix.at) || ix.at[l.width] != int32(i+1)) {
			t.Fatalf("t=%v: lane %d is not found by its width", v.Now, l.width)
		}
		checkLane(t, l)
		live += l.live
	}
	indexed := 0
	for i, j := range v.Queue {
		slot := v.base + i
		if j == nil || slot >= ix.end {
			continue
		}
		indexed++
		p := procsFor(j)
		l := laneOf(ix, p)
		if l == nil {
			t.Fatalf("t=%v: job %d is indexed and there is no lane %d", v.Now, j.ID, p)
		}
		k, found := slices.BinarySearch(l.slots, slot)
		if !found || l.jobs[k] != j {
			t.Fatalf("t=%v: job %d (queue position %d, slot number %d) is not in lane %d", v.Now, j.ID, i, slot, p)
		}
		want := v.Duration(j, p)
		if want != want {
			want = math.Inf(1)
		}
		if key := l.tree[len(l.tree)/2+k]; key != want {
			t.Fatalf("t=%v: job %d indexed under duration %v, runs for %v", v.Now, j.ID, key, want)
		}
	}
	if live != indexed {
		t.Fatalf("t=%v: lanes hold %d jobs, %d queued jobs are indexed", v.Now, live, indexed)
	}
}

// held counts the non-zero elements left in a slice's backing array, all
// the way to its capacity.
func held[T comparable](s []T) int {
	var zero T
	n := 0
	for _, e := range s[:cap(s)] {
		if e != zero {
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
			sims, ok := churnTwoClusters(t, seed, [2]Policy{policy, policy}, map[string]int{}, nil)
			if !ok {
				t.Fatalf("%s, seed %d: not every job completed", policy.Name(), seed)
			}
			for _, s := range sims {
				queued := held(s.queue.jobs)
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
					"decisions in the scratch": held(s.decisions), "jobs in free run records (or records twice free)": recycled,
				} {
					if n > 0 {
						t.Fatalf("%s, seed %d: %d %s still referenced after the drain", policy.Name(), seed, n, what)
					}
				}
			}
		}
	}
}

// TestIndexMatchesWalkOnHandBuiltViews: random decision points from
// testView — holes anywhere in the queue, jobs wider than the machine or
// zero wide, NaN, infinite and zero durations, a shadow time that never
// comes, more processors promised than the running set leaves — decided
// twice through the kept index, against the reference's walks, which
// skip the holes, every decision naming its job's slot. The decision
// must read View.Profile (cloning it only if it has to) and never write
// it.
func TestIndexMatchesWalkOnHandBuiltViews(t *testing.T) {
	odd := []float64{math.NaN(), math.Inf(1), 0, 1e-300, 1e300}
	checkSeeds(t, &quick.Config{MaxCountScale: 5}, func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 24)
		now, speed := rng.Range(0, 100), 1+0.37*float64(rng.Intn(2))
		var running []busy
		used := 0
		for used < m && rng.Bool(0.8) {
			procs := rng.IntRange(1, m-used)
			// Whole numbers often, so that jobs end exactly at the shadow time.
			running = append(running, busy{now + math.Ceil(rng.Range(0, 20)), procs})
			used += procs
		}
		avail := m - used
		if rng.Bool(0.15) {
			avail = min(m, avail+rng.IntRange(1, 3)) // an inconsistent view
		}
		var queue []*workload.Job
		for i, n := 0, rng.Intn(40); i < n; i++ {
			if rng.Bool(0.2) {
				queue = append(queue, nil)
				continue
			}
			p := rng.IntRange(1, m/2)
			switch {
			case rng.Bool(0.05):
				p = rng.IntRange(m+1, m+3)
			case rng.Bool(0.03):
				p = 0
			}
			j := rjob(i, math.Ceil(rng.Range(0, 20))/speed, p, 0)
			switch {
			case rng.Bool(0.3):
				j = rjob(i, rng.Range(0.1, 20), p, 0)
			case rng.Bool(0.15) && p > 0:
				j.Times = []float64{odd[rng.Intn(len(odd))]}
			}
			queue = append(queue, j)
		}
		for _, c := range []struct {
			inner Policy
			walk  func(point) []Decision
		}{{EASYPolicy{}, point.easy}, {GreedyFitPolicy{}, point.greedyFit}} {
			v := testView(now, m, speed, avail, queue, running...)
			want := c.walk(pointOf(v))
			before := v.Profile().Clone()
			for round := 0; round < 2; round++ {
				got := c.inner.Decide(v)
				sameDecisions(t, now, got, want)
				requirePositions(t, v, got)
				checkIndex(t, v)
			}
			sameProfile(t, now, v.Profile(), before, "View.Profile after the decisions", "before")
		}
		return true
	})
}

// Palettes of the lane tests: few values, so that equal durations and
// equal end times are common, and the extremes among them.
var (
	laneDurs = []float64{0, 1, 2, 3, 0.1, 0.2, 0.1 + 0.2, 0.3, 1e-9, 1e9, 1e300, math.MaxFloat64,
		5e-324, -1, math.Inf(1), math.NaN()}
	laneNows = []float64{0, 1, 0.1, 123.456, 1e9, 1e-9}
)

// runLaneOps drives a queue index over a hand-built queue and a linear
// scan of that queue, holes skipped, through the operations encoded in
// ops — queue a job (1 or 2 wide, so that lane 1's slot numbers skip
// some), remove one (a hole, and out of the index if it is indexed, by
// Sim.dequeue), tidy the queue by Sim.tidy (a tail trim frees numbers
// that the next arrivals take again; a compaction renumbers the slots
// and renames the index's entries), rebuild lane 1 (which compacts, grows
// or shrinks it), search lane 1 after indexing what is new, and search it
// and remove the job found by the position the search handed over, as a
// start does — at once, or after a rebuild of lane 1 or a tidy of the
// queue, which may leave the position stale — and requires the same
// answer to every search, and the index in step with the queue after
// every step. Search bounds sit exactly at now+duration of some palette
// duration, one ULP below it and one ULP above, where a pruning test that
// was not the entry's own expression would show.
func runLaneOps(t *testing.T, ops []byte) {
	t.Helper()
	var s Sim // only its queue, index and plan, for tidy and dequeue
	q, ix := &s.queue, &s.index
	view := func() View { return View{Speed: 1, Queue: q.jobs, base: q.base, Index: ix} }
	take := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	key := func(d float64) float64 {
		if d != d {
			return math.Inf(1)
		}
		return d
	}
	for id := 1; len(ops) > 0; {
		switch op := take() % 8; op {
		case 0, 1, 2:
			width := 1 + take()%3/2
			times := []float64{laneDurs[take()%len(laneDurs)]}
			q.push(&workload.Job{ID: id, MinProcs: width, MaxProcs: width, Times: times})
			id++
		case 3, 4:
			if q.live == 0 {
				continue
			}
			i := nextLive(q.jobs, 0)
			for k := take() % q.live; k > 0; k-- {
				i = nextLive(q.jobs, i+1)
			}
			s.dequeue(i, 0)
		case 5:
			if l := laneOf(ix, 1); l != nil && take()%2 == 0 {
				l.rebuild(nil)
			} else {
				s.tidy()
			}
		default:
			ix.sync(view())
			l := laneOf(ix, 1) // a lane exists from its first indexed job on
			if l == nil || len(q.jobs) == 0 {
				continue
			}
			after := -1
			switch pick := q.base + take()%len(q.jobs); take() % 4 {
			case 0:
				after = pick
			case 1:
				after = pick - 1
			case 2:
				after = q.base + len(q.jobs) - 1
			}
			now := laneNows[take()%len(laneNows)]
			bound := now + key(laneDurs[take()%len(laneDurs)])
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
			want := -1
			for i, j := range q.jobs {
				if j != nil && j.MinProcs == 1 && q.base+i > after && now+key(j.Times[0]) <= bound {
					want = q.base + i
					break
				}
			}
			got := -1
			k := l.first(after, now, bound)
			if k >= 0 {
				got = l.slots[k]
			}
			if got != want {
				t.Fatalf("first job after %d with %v+duration <= %v: lane says %d, linear scan %d", after, now, bound, got, want)
			}
			if op == 7 && k >= 0 {
				j := l.jobs[k]
				switch take() % 3 {
				case 1:
					l.rebuild(nil)
				case 2:
					s.tidy()
				}
				s.dequeue(slices.Index(q.jobs, j), k+1)
			}
		}
		checkIndex(t, view())
	}
}

// TestLaneMatchesLinearScan is runLaneOps over random operation strings.
func TestLaneMatchesLinearScan(t *testing.T) {
	checkSeeds(t, nil, func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ops := make([]byte, rng.IntRange(50, 3000))
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		runLaneOps(t, ops)
		return true
	})
}

// FuzzLaneOps is runLaneOps under the fuzzer.
func FuzzLaneOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 4, 6, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 14, 1, 2, 15, 2, 0, 11, 7, 1, 2, 4, 2, 2, 3, 0, 5, 6, 0, 3, 5, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 5, 7, 0, 0, 0, 0, 1})
	// Three jobs queued, then two searches, each removing the job it found
	// by the position it handed over, at once.
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 7, 0, 3, 0, 1, 2, 0, 7, 0, 3, 0, 1, 2, 0})
	// Three jobs queued and indexed, the first removed, then a search whose
	// job is removed after a rebuild has moved it: a stale position.
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 6, 0, 3, 0, 1, 2, 3, 0, 7, 0, 3, 0, 1, 2, 1})
	// Two jobs of one width queued and indexed, the tail one removed, a tidy
	// that trims it and frees its number, a job queued under that number
	// again, then a search, which indexes it behind the freed entry.
	f.Add([]byte{0, 0, 1, 0, 0, 1, 6, 0, 3, 0, 2, 5, 3, 1, 5, 1, 0, 0, 1, 6, 0, 3, 0, 2, 5})
	f.Fuzz(func(t *testing.T, ops []byte) { runLaneOps(t, ops) })
}
