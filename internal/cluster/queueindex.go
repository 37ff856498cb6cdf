package cluster

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/workload"
)

// QueueIndex finds, for EASYPolicy and GreedyFitPolicy, the next job in
// queue order narrow enough for the free processors and short enough for
// the shadow time, without walking the queue. A job sits in the lane of
// its width under its slot number (see waitQueue), beneath a tournament
// tree of durations; a search first indexes the jobs queued since the
// last one (sync), so a job that starts as a head never is.
//
// Worst cases, for lanes of at most n entries: a next call visits each
// lane no wider than the free processors, O(1) if none of its jobs
// passes, else a descent from the root, O(log n), then, unless that lands
// behind after (98 % of lane searches on the deep stream), a binary
// search and a climb, O(log n) each. A removal replays O(log n) tree
// nodes, plus a binary search if no search handed its position over (a
// head, a steal). Pushes: O(log n). A compaction rebuilds every lane.
//
// The zero value is empty. An index serves one queue at one cluster
// speed, whose owner keeps it in step with the queue (see View.Index and
// Sim.tidy). It is not safe for concurrent use.
type QueueIndex struct {
	// end is the lowest slot number not indexed; every job below it is.
	end int
	// lanes is sorted by width, a lane made with the first job of its
	// width; at[w] is 1 + the index in lanes of the lane of width w, or 0.
	lanes []lane
	at    []int32
}

// sync indexes the jobs of v.Queue that are not indexed yet: those
// appended since the last search, holes skipped. Idempotent.
func (ix *QueueIndex) sync(v View) {
	for i := max(ix.end-v.base, 0); i < len(v.Queue); i++ {
		if j := v.Queue[i]; j != nil {
			ix.lane(procsFor(j)).push(j, v.base+i, v.Duration(j, procsFor(j)))
		}
	}
	ix.end = v.base + len(v.Queue)
}

// lane returns the lane of the given width, made if need be; the pointer
// is good until the next call.
func (ix *QueueIndex) lane(width int) *lane {
	if uint(width) < uint(len(ix.at)) && ix.at[width] > 0 {
		return &ix.lanes[ix.at[width]-1]
	}
	i, found := slices.BinarySearchFunc(ix.lanes, width, func(l lane, w int) int { return cmp.Compare(l.width, w) })
	if !found {
		ix.lanes = slices.Insert(ix.lanes, i, lane{width: width})
		ix.at = append(ix.at, make([]int32, max(0, width+1-len(ix.at)))...)
		for k, l := range ix.lanes[i:] {
			if l.width >= 0 { // a negative width is searched for
				ix.at[l.width] = int32(i + k + 1)
			}
		}
	}
	return &ix.lanes[i]
}

// next returns the lane and position of the first indexed job behind
// slot number after that is at most avail wide and either at most
// extra wide or short enough that now+duration <= bound, or a nil lane.
// A NaN duration keys as +Inf and may pass: callers re-check.
func (ix *QueueIndex) next(after, avail, extra int, now, bound float64) (*lane, int) {
	var best *lane
	pos := 0
	for i := range ix.lanes {
		l := &ix.lanes[i]
		if l.width > avail {
			break
		}
		lnow, lbound := now, bound
		if l.width <= extra {
			lnow, lbound = 0, math.Inf(1) // any length fits: 0+key <= +Inf
		}
		if k := l.first(after, lnow, lbound); k >= 0 && (best == nil || l.slots[k] < best.slots[pos]) {
			best, pos = l, k
		}
	}
	return best, pos
}

// lane holds the indexed jobs of one width in queue order.
type lane struct {
	width int
	// jobs and slots are the entries and their strictly increasing slot
	// numbers, with the leaf row's capacity; a removed entry keeps its
	// place, with a nil job, until a rebuild or a push drops it.
	jobs  []*workload.Job
	slots []int
	// tree[n+i], n = len(tree)/2, is the key of entry i — its duration,
	// +Inf for NaN; NaN, which no bound admits, once removed or unused —
	// and tree[k] the minKey of tree[2k] and tree[2k+1].
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

// key returns the key of entry i.
func (l *lane) key(i int) float64 { return l.tree[len(l.tree)/2+i] }

// push appends an entry numbered slot. The entries numbered slot or more
// can only be removed jobs' whose numbers a tail trim freed: they go.
func (l *lane) push(j *workload.Job, slot int, dur float64) {
	n := len(l.slots)
	for ; n > 0 && l.slots[n-1] >= slot; n-- {
		if l.jobs[n-1] != nil {
			panic("cluster: queue index out of step with the queue")
		}
	}
	if l.jobs, l.slots = l.jobs[:n], l.slots[:n]; n == len(l.tree)/2 {
		l.rebuild(nil)
	}
	if dur != dur {
		dur = math.Inf(1) // live, but admitted only by an infinite bound
	}
	l.jobs, l.slots = append(l.jobs, j), append(l.slots, slot)
	l.live++
	l.set(len(l.jobs)-1, dur)
}

// remove drops the entry of j, slot number slot: entry i, the position a
// search handed over, or else the one a binary search finds.
func (l *lane) remove(slot int, j *workload.Job, i int) {
	if uint(i) >= uint(len(l.slots)) || l.slots[i] != slot || l.jobs[i] != j {
		var found bool
		if i, found = slices.BinarySearch(l.slots, slot); !found || l.jobs[i] == nil {
			panic("cluster: queue index out of step with the queue")
		}
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
// of a lane sized for twice their number, which later pushes pay for.
// Given q, it renames them by q's last compaction and keeps the room.
func (l *lane) rebuild(q *waitQueue) {
	n, c := len(l.tree)/2, minLaneCap
	for c < 2*l.live || q != nil && c < n {
		c *= 2
	}
	jobs, slots, tree := l.jobs[:0], l.slots[:0], l.tree
	if c != n {
		jobs, slots, tree = make([]*workload.Job, 0, c), make([]int, 0, c), make([]float64, 2*c)
	}
	for i, j := range l.jobs {
		if j != nil {
			tree[c+len(jobs)] = l.tree[n+i] // in place this copies leftwards
			jobs, slots = append(jobs, j), append(slots, q.renamed(l.slots[i]))
		}
	}
	clear(l.jobs[len(jobs):]) // in place: drop the moved entries' old slots
	for k := c + len(jobs); k < 2*c; k++ {
		tree[k] = math.NaN()
	}
	for k := c - 1; k >= 1; k-- {
		tree[k] = minKey(tree[2*k], tree[2*k+1])
	}
	l.jobs, l.slots, l.tree = jobs, slots, tree
}

// first returns the position of the first live entry behind slot number
// after whose key passes now+key <= bound, or -1: the leftmost
// one that passes, found from the root, unless it is not behind after.
// A subtree whose smallest key fails that expression is skipped, which
// loses nothing: addition is monotone (a <= b implies now+a <= now+b,
// for finite now), and a descent always arrives at the smallest key.
func (l *lane) first(after int, now, bound float64) int {
	if !(now+l.tree[1] <= bound) {
		return -1 // nothing in the whole lane: the common case, O(1)
	}
	n := len(l.tree) / 2
	if i := l.descend(1, now, bound) - n; l.slots[i] > after {
		return i
	}
	lo, _ := slices.BinarySearch(l.slots, after+1)
	for k := n + lo; lo < len(l.slots); k++ { // k++: the next subtree right
		for k&1 == 0 {
			k >>= 1 // a left child's parent starts at the same leaf
		}
		if now+l.tree[k] <= bound {
			return l.descend(k, now, bound) - n
		}
		if (k+1)&k == 0 {
			break // the rightmost subtree of its level: nothing is left
		}
	}
	return -1
}

// descend returns the leftmost passing leaf under node k, which passes.
func (l *lane) descend(k int, now, bound float64) int {
	for n := len(l.tree) / 2; k < n; {
		k <<= 1
		if !(now+l.tree[k] <= bound) {
			k++
		}
	}
	return k
}
