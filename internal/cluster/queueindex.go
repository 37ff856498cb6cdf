package cluster

import (
	"math"
	"slices"
	"sort"

	"repro/internal/workload"
)

// QueueIndex finds backfill candidates in a waiting queue without
// walking it. EASYPolicy and GreedyFitPolicy used to test every queued
// job at every decision; on a saturated cluster that is thousands of
// jobs per event to start, usually, none. The index answers the walk's
// question — which is the next job, in queue order, narrow enough for
// the free processors and short enough for the shadow time? — in
// O(log n) per lane searched.
//
// A job is indexed under the arrival number its queue slot carries
// (View.Queue): the queue only ever grows at its tail and a job keeps its
// number wherever compaction moves its slot, so comparing arrival
// numbers is comparing queue positions. One lane per processor width
// holds that width's jobs by arrival number under a tournament tree of
// their durations.
//
// Jobs are indexed lazily, when a search first needs them (sync): a job
// that starts as the queue head the moment it arrives — every job of an
// unsaturated cluster — is never indexed, and FCFS and conservative
// backfilling never search, so they never pay.
//
// The zero value is an empty index. An index belongs to one evolving
// queue and one cluster speed: its owner removes a job from the index
// whenever it removes one from the queue (see View.Index). It is not
// safe for concurrent use.
type QueueIndex struct {
	// last is the highest arrival number indexed: every job queued under
	// a number up to it is in its lane, and none behind it is.
	last uint64
	// lanes is sorted by width; a lane appears with the first indexed job
	// of its width, so nothing depends on the cluster size.
	lanes []lane
}

// sync indexes the jobs of v.Queue that are not indexed yet: those
// appended since the last search, holes skipped. Idempotent.
func (ix *QueueIndex) sync(v View) {
	for i := behind(v.seqs, ix.last); i < len(v.Queue); i++ {
		if j := v.Queue[i]; j != nil {
			p := procsFor(j)
			ix.lane(p).push(j, v.seqs[i], v.Duration(j, p))
		}
	}
	if n := len(v.seqs); n > 0 {
		ix.last = max(ix.last, v.seqs[n-1])
	}
}

// lane returns the lane of the given width, creating it if need be. The
// pointer is good until the next call.
func (ix *QueueIndex) lane(width int) *lane {
	i := sort.Search(len(ix.lanes), func(i int) bool { return ix.lanes[i].width >= width })
	if i == len(ix.lanes) || ix.lanes[i].width != width {
		ix.lanes = slices.Insert(ix.lanes, i, lane{width: width})
	}
	return &ix.lanes[i]
}

// remove takes j, queued under arrival number seq, out of the index;
// the caller removes it from the queue. A job not indexed yet costs
// nothing.
func (ix *QueueIndex) remove(seq uint64, j *workload.Job) {
	if seq <= ix.last {
		ix.lane(procsFor(j)).remove(seq)
	}
}

// next returns, with its arrival number, the first indexed job behind
// arrival number after that the backfill test lets start: at most avail
// wide, and either at most extra wide or short enough that
// now+duration <= bound. It returns nil when there is none. A job with
// a NaN duration may be returned although it fails the test; callers
// that care re-check (and must anyway, to tell which clause held).
func (ix *QueueIndex) next(after uint64, avail, extra int, now, bound float64) (*workload.Job, uint64) {
	var job *workload.Job
	best := uint64(math.MaxUint64)
	for i := range ix.lanes {
		l := &ix.lanes[i]
		if l.width > avail {
			break
		}
		lnow, lbound := now, bound
		if l.width <= extra {
			// Any length fits: 0+key <= +Inf holds for every live key.
			lnow, lbound = 0, math.Inf(1)
		}
		if k := l.first(after, lnow, lbound); k >= 0 && l.seqs[k] < best {
			job, best = l.jobs[k], l.seqs[k]
		}
	}
	return job, best
}

// lane holds the indexed jobs of one width in arrival order.
type lane struct {
	width int
	// jobs and seqs are the entries and their arrival numbers (strictly
	// increasing); a removed entry keeps its slot, with a nil job, until
	// the lane is rebuilt. Both have the capacity of the tree's leaf row.
	jobs []*workload.Job
	seqs []uint64
	// tree is a tournament tree over the entries' keys: with n =
	// len(tree)/2 leaves, tree[n+i] is the key of entry i and tree[k] the
	// smaller of tree[2k] and tree[2k+1]. The key of an entry is its
	// duration (+Inf for a NaN duration); removed entries and unused
	// leaves hold NaN, which minKey ignores and no bound admits.
	tree []float64
	live int
}

const minLaneCap = 8

// minKey is the smaller of two keys, NaN standing for no key at all.
func minKey(a, b float64) float64 {
	if b < a || a != a {
		return b
	}
	return a
}

// push appends an entry; seq must exceed every arrival number in the lane.
func (l *lane) push(j *workload.Job, seq uint64, dur float64) {
	if len(l.jobs) == len(l.tree)/2 {
		l.rebuild()
	}
	if dur != dur {
		dur = math.Inf(1) // live, but admitted only by an infinite bound
	}
	l.jobs = append(l.jobs, j)
	l.seqs = append(l.seqs, seq)
	l.live++
	l.set(len(l.jobs)-1, dur)
}

// remove drops the entry with the given arrival number.
func (l *lane) remove(seq uint64) {
	i, found := slices.BinarySearch(l.seqs, seq)
	if !found || l.jobs[i] == nil {
		panic("cluster: queue index out of step with the queue")
	}
	l.jobs[i] = nil
	l.live--
	l.set(i, math.NaN())
}

// set stores the key of entry i and replays the matches above it.
func (l *lane) set(i int, key float64) {
	k := len(l.tree)/2 + i
	l.tree[k] = key
	for k >>= 1; k >= 1; k >>= 1 {
		l.tree[k] = minKey(l.tree[2*k], l.tree[2*k+1])
	}
}

// rebuild makes room in a full lane: the live entries move to the front
// of a lane sized for twice their number — larger, the same or smaller
// than before — so a lane's memory follows the jobs queued now, not the
// jobs ever queued, and a rebuild is paid for by the pushes and removals
// since the last one.
func (l *lane) rebuild() {
	n, c := len(l.tree)/2, minLaneCap
	for c < 2*l.live {
		c *= 2
	}
	jobs, seqs, tree := l.jobs[:0], l.seqs[:0], l.tree
	if c != n {
		jobs, seqs, tree = make([]*workload.Job, 0, c), make([]uint64, 0, c), make([]float64, 2*c)
	}
	for i, j := range l.jobs {
		if j != nil {
			tree[c+len(jobs)] = l.tree[n+i] // in place this copies leftwards
			jobs, seqs = append(jobs, j), append(seqs, l.seqs[i])
		}
	}
	clear(l.jobs[len(jobs):]) // in place: drop the moved entries' old slots
	for k := c + len(jobs); k < 2*c; k++ {
		tree[k] = math.NaN()
	}
	for k := c - 1; k >= 1; k-- {
		tree[k] = minKey(tree[2*k], tree[2*k+1])
	}
	l.jobs, l.seqs, l.tree = jobs, seqs, tree
}

// first returns the position of the first live entry behind arrival
// number after whose key passes now+key <= bound, or -1.
//
// A subtree is skipped when its smallest key fails that same expression.
// That loses nothing: floating-point addition is monotone (a <= b
// implies now+a <= now+b after rounding, for finite now), so if the
// shortest job of a subtree ends past the bound every job in it does;
// and a subtree whose smallest key passes holds that key in a leaf, so
// the descent always arrives.
func (l *lane) first(after uint64, now, bound float64) int {
	if !(now+l.tree[1] <= bound) {
		return -1 // nothing in the whole lane: the common case, O(1)
	}
	lo, _ := slices.BinarySearch(l.seqs, after+1)
	if lo == len(l.seqs) {
		return -1
	}
	n := len(l.tree) / 2
	for k := n + lo; ; {
		for k&1 == 0 {
			k >>= 1 // a left child's parent starts at the same leaf
		}
		if now+l.tree[k] <= bound {
			for k < n {
				k <<= 1
				if !(now+l.tree[k] <= bound) {
					k++
				}
			}
			return k - n
		}
		k++ // the next subtree to the right
		if k&(k-1) == 0 {
			return -1 // wrapped around: that was the last one
		}
	}
}
