package moldable

import (
	"slices"

	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Builder is the workspace of the single-guess construction. Preparing
// a guess λ over a job list costs each job's two canonical allotments
// and one knapsack table; after that the construction of ANY prefix of
// the list is read off the same table in O(prefix) plus the packing,
// because row k of the table depends on candidates 0..k only and not on
// the capacity it is finally cut at. The binary search of MRT prepares
// one guess after another on one Builder; the §4.4 batch step prepares
// a deadline once and walks the prefixes down (LargestPrefixForDeadline).
//
// All scratch — per-job options, prefix sums, knapsack rows, the shelf-2
// buffer, the allocation buffer and the availability profile — is kept
// between calls, and a construction returns the Builder's own schedule
// over its allocation buffer, valid until the next construction: once
// warm, a Builder allocates nothing. The zero Builder is ready to use; a
// Builder must not be shared between goroutines.
type Builder struct {
	m      int
	lambda float64

	// opts[i] prices costs[i] at γ(λ) and γ(λ/2); it stops at the first
	// job that cannot meet λ at all, so len(opts) is the longest prefix
	// that can be feasible (-1 marks λ ≤ 0, when not even the empty one
	// is).
	opts     []option
	feasible int
	// pre[n] sums costs[:n] in job order: forced shelf-1 width, knapsack
	// candidates seen, and the work if every optional job sits on shelf
	// 2 (a float accumulated left to right, as a from-scratch selection
	// of that prefix would).
	pre []prefix
	// 0/1 knapsack candidates in job order: moving an optional job to
	// shelf 1 saves (w2 - w1) ≥ 0 work (monotone jobs) but consumes q1 of
	// the shelf-1 width budget. Jobs whose two options coincide (q1 ==
	// q2) stay on shelf 2 — identical cost, no width consumed.
	cands []cand
	// take is one bitset of len(cands) rows, stride words each: bit w of
	// row k says candidate k improved the best saving at width w.
	take   []uint64
	stride int
	dp     []float64
	taken  []int // candidates of the current prefix on shelf 1, last first

	allot   []Allotment
	shelf2  []Allotment
	keys    []workload.Keyed // shelf 2's order
	allocs  []sched.Alloc
	out     sched.Schedule // pack's result, over allocs
	profile rigid.Profile
}

type option struct {
	job    *workload.Job
	q1, q2 int     // γ(λ), γ(λ/2); q2 == 0 ⇒ forced shelf 1
	t1, t2 float64 // execution times on q1, q2
}

type prefix struct {
	forced, cands int
	base          float64
}

type cand struct {
	idx    int
	width  int
	saving float64
}

// prepare readies the workspace for guess lambda over costs on m
// processors. Afterwards construct(n) answers for every lo ≤ n ≤
// len(costs): the knapsack table is cut at the capacity the shortest
// prefix asked for leaves, m minus its forced width, which every longer
// prefix fits under.
func (b *Builder) prepare(costs []workload.Cost, m int, lambda float64, lo int) {
	b.m, b.lambda = m, lambda
	b.opts = slices.Grow(b.opts[:0], len(costs))
	b.cands = slices.Grow(b.cands[:0], len(costs))
	b.pre = append(slices.Grow(b.pre[:0], len(costs)+1), prefix{})
	if lambda <= 0 {
		b.feasible = -1
		return
	}
	var p prefix
	for i := range costs {
		c := &costs[i]
		q1 := c.Gamma(lambda)
		if q1 == 0 {
			break // job cannot meet the deadline at all
		}
		o := option{job: c.Job, q1: q1, q2: c.Gamma(lambda / 2)}
		o.t1 = c.Job.TimeOn(q1)
		w1 := float64(q1) * o.t1
		if o.q2 == 0 {
			p.forced += q1
			p.base += w1
		} else {
			o.t2 = c.Job.TimeOn(o.q2)
			w2 := float64(o.q2) * o.t2
			p.base += w2
			if q1 != o.q2 {
				saving := w2 - w1
				if saving < 0 {
					saving = 0 // non-monotone profile; shelf 1 never pays off
				}
				b.cands = append(b.cands, cand{idx: i, width: q1, saving: saving})
				p.cands++
			}
		}
		b.opts = append(b.opts, o)
		b.pre = append(b.pre, p)
	}
	b.feasible = len(b.opts)
	if lo > b.feasible || b.pre[lo].forced > m {
		return // no prefix that will be asked for can pass; no table needed
	}

	// Maximize savings within the remaining capacity.
	capacity := m - b.pre[lo].forced
	b.stride = capacity/64 + 1
	b.dp = slices.Grow(b.dp[:0], capacity+1)[:capacity+1]
	b.take = slices.Grow(b.take[:0], len(b.cands)*b.stride)[:len(b.cands)*b.stride]
	clear(b.dp)
	clear(b.take)
	dp := b.dp
	for k, c := range b.cands {
		row := b.take[k*b.stride : (k+1)*b.stride]
		for w := capacity; w >= c.width; w-- {
			if v := dp[w-c.width] + c.saving; v > dp[w] {
				dp[w] = v
				row[w/64] |= 1 << (w % 64)
			}
		}
	}
}

// selectPrefix runs the §4.1 feasibility test for costs[:n] at the
// prepared guess and, when it passes, leaves the n allotments in
// b.allot.
func (b *Builder) selectPrefix(n int) bool {
	if n > b.feasible || b.pre[n].forced > b.m {
		return false
	}
	if b.minWork(n) > b.lambda*float64(b.m)*(1+1e-12) {
		return false
	}
	b.allot = slices.Grow(b.allot[:0], n)
	next := len(b.taken) - 1 // taken runs last candidate first
	for i, o := range b.opts[:n] {
		shelf1 := o.q2 == 0
		if next >= 0 && b.cands[b.taken[next]].idx == i {
			shelf1 = true
			next--
		}
		if shelf1 {
			b.allot = append(b.allot, Allotment{Job: o.job, Procs: o.q1, Time: o.t1, Shelf: 1})
		} else {
			b.allot = append(b.allot, Allotment{Job: o.job, Procs: o.q2, Time: o.t2, Shelf: 2})
		}
	}
	return true
}

// minWork returns the least total work of costs[:n] under the shelf-1
// width constraint and leaves the candidates that buy it in b.taken.
// The choices are walked back from the table at the prefix's own
// capacity, m minus its forced width; their savings summed
// first-candidate-first give the table's value there bit for bit (each
// cell is its predecessor plus one saving), so no value row needs
// keeping. The prefix must be one prepare cut the table for.
func (b *Builder) minWork(n int) float64 {
	p := b.pre[n]
	b.taken = b.taken[:0]
	w := b.m - p.forced
	for k := p.cands - 1; k >= 0; k-- {
		if b.take[k*b.stride+w/64]&(1<<(w%64)) != 0 {
			b.taken = append(b.taken, k)
			w -= b.cands[k].width
		}
	}
	var saved float64
	for i := len(b.taken) - 1; i >= 0; i-- {
		saved += b.cands[b.taken[i]].saving
	}
	return p.base - saved
}

// pack attempts to build a schedule of the allotments for guess λ within
// the 3λ/2 two-shelf envelope. Shelf-1 jobs (time in (λ/2, λ]) all start
// at 0; shelf-2 jobs are folded into the remaining capacity by first-fit
// decreasing time over the availability profile (this subsumes both the
// paper's second shelf at t=λ and its insert-under-shelf-1
// transformations). Packing fails if the resulting makespan exceeds
// 3λ/2, which keeps the accepted-guess invariant of the dual
// approximation. It is the one packing routine: every selector's
// allotments end here, on the Builder's reused profile and buffers, and
// the schedule it returns is the Builder's own, valid until its next
// construction.
func (b *Builder) pack(allot []Allotment, m int, lambda float64) (*sched.Schedule, bool) {
	b.profile.Reset(m)
	b.allocs = slices.Grow(b.allocs[:0], len(allot))
	b.shelf2 = slices.Grow(b.shelf2[:0], len(allot))
	// Shelf 1: all at time 0, width fits by the knapsack constraint (the
	// greedy ablation may overflow here — then the guess fails).
	for _, a := range allot {
		if a.Shelf != 1 {
			b.shelf2 = append(b.shelf2, a)
			continue
		}
		if err := b.profile.Reserve(0, a.Time, a.Procs); err != nil {
			return nil, false
		}
		b.allocs = append(b.allocs, sched.Alloc{Job: a.Job, Start: 0, Procs: a.Procs})
	}
	// Shelf 2: first-fit decreasing time into the profile, ties by job ID.
	b.keys = slices.Grow(b.keys[:0], len(b.shelf2))
	for i, a := range b.shelf2 {
		b.keys = append(b.keys, workload.Keyed{Key: a.Time, ID: a.Job.ID, Pos: i})
	}
	workload.SortKeyed(b.keys, true)
	limit := 1.5 * lambda * (1 + 1e-9)
	for _, k := range b.keys {
		a := b.shelf2[k.Pos]
		start, err := b.profile.EarliestSlot(0, a.Time, a.Procs)
		if err != nil || start+a.Time > limit {
			return nil, false
		}
		if err := b.profile.Reserve(start, a.Time, a.Procs); err != nil {
			return nil, false
		}
		b.allocs = append(b.allocs, sched.Alloc{Job: a.Job, Start: start, Procs: a.Procs})
	}
	b.out = sched.Schedule{M: m, Allocs: b.allocs}
	return &b.out, true
}

// construct selects and packs costs[:n] at the prepared guess.
func (b *Builder) construct(n int) (*sched.Schedule, bool) {
	if !b.selectPrefix(n) {
		return nil, false
	}
	return b.pack(b.allot, b.m, b.lambda)
}

// LargestPrefixForDeadline is the deadline procedure of §4.4 (ACmax with
// ρCmax = 3/2) over a list in eviction order: it returns the longest
// prefix costs[:n] — trying len(costs) first and dropping one job from
// the tail at a time — that the single-guess construction schedules
// within 3d/2 using guess d, with that schedule; (nil, 0) if not even
// the first job alone constructs. The schedule is the Builder's own: the
// caller copies what it keeps past the Builder's next call.
func (b *Builder) LargestPrefixForDeadline(costs []workload.Cost, m int, d float64) (*sched.Schedule, int) {
	b.prepare(costs, m, d, 1)
	for n := b.feasible; n > 0; n-- {
		if s, ok := b.construct(n); ok {
			return s, n
		}
	}
	return nil, 0
}
