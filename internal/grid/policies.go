// Online grid policies: the routing decisions of the §5.2 multi-cluster
// designs, extracted into small policy types shared between the offline
// driver of this package (Routed, which runs every table's grid) and the
// live broker of internal/gridservice. A Router sees only per-cluster
// LoadInfo, so the same decision code runs in the offline tables and in
// the broker's loop, both through Fleet.
package grid

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Move is one queued-job migration proposal: steal up to N waiting jobs
// from cluster Src and resubmit them on cluster Dst.
type Move struct {
	Src, Dst, N int
}

// Router is an online grid policy: it places local job submissions and
// distributes campaign (best-effort) tasks from the central stock; a
// Router that also rebalances queues is an Exchanger. Implementations
// keep private state (round-robin cursors, RNGs) and are not safe for
// concurrent use — the broker serializes calls, the offline sims are
// single-threaded anyway.
type Router interface {
	Name() string
	// Route returns the index of the cluster that should receive a local
	// job needing minProcs processors, or -1 when no cluster fits.
	Route(minProcs int, loads []cluster.LoadInfo) int
	// Grants distributes up to stock campaign tasks: grants[i] tasks go
	// to cluster i this round; the rest stays in the central stock.
	Grants(loads []cluster.LoadInfo, stock int) []int
}

// Exchanger is a Router with a load-exchange protocol. Fleet.Migrate
// runs its rounds one Move at a time; routers that are not Exchangers
// never move a queued job, so no round is run for them.
type Exchanger interface {
	// Begin opens a round on the fleet's loads, which are the
	// exchanger's to keep and change until the round ends.
	Begin(loads []cluster.LoadInfo)
	// Next proposes the round's next Move, or ok=false to end the round.
	Next() (mv Move, ok bool)
	// Moved reports what became of mv before the next Next: how many
	// jobs were stolen from mv.Src and which of them reached mv.Dst
	// (none when the driver dropped the Move).
	Moved(mv Move, stolen int, moved []*workload.Job)
}

// RouterOptions tunes the routing policies (zero values select the
// defaults of the offline simulations).
type RouterOptions struct {
	// Seed drives the weighted-random router.
	Seed uint64
	// Threshold is the decentralized push imbalance ratio (default 1.5).
	Threshold float64
	// MaxMove caps migrations per exchange round (default 4).
	MaxMove int
}

func (o RouterOptions) fill() RouterOptions {
	if o.Threshold <= 1 {
		o.Threshold = 1.5
	}
	if o.MaxMove <= 0 {
		o.MaxMove = 4
	}
	return o
}

// CentralizedFill is the CiGri server's hole-filling rule: top up each
// cluster's on-site best-effort queue to at most its free capacity, in
// cluster order, keeping the remainder central so killed work can drift
// to whichever cluster has holes next.
type CentralizedFill struct{}

// TopUp returns how many stock tasks to hand one cluster with the given
// free processors and already-queued best-effort tasks.
func (CentralizedFill) TopUp(free, beQueued, stock int) int {
	n := free - beQueued
	if n > stock {
		n = stock
	}
	if n < 0 {
		n = 0
	}
	return n
}

// Grants applies TopUp across the fleet against a shared stock.
func (f CentralizedFill) Grants(loads []cluster.LoadInfo, stock int) []int {
	grants := make([]int, len(loads))
	for i, ld := range loads {
		if stock == 0 {
			break
		}
		n := f.TopUp(ld.Free, ld.BEQueued, stock)
		grants[i] = n
		stock -= n
	}
	return grants
}

// pushPick selects the (src, dst) pair for one sender-initiated transfer
// over normalized loads, or ok=false when the imbalance is below the
// threshold (the §5.2 decentralized push protocol step).
func pushPick(loads []float64, threshold float64) (src, dst int, ok bool) {
	src, dst = argmax(loads), argmin(loads)
	if src == dst || loads[src] <= threshold*math.Max(loads[dst], 1e-12) {
		return 0, 0, false
	}
	return src, dst, true
}

// pullPick selects the source an idle cluster i steals from (the
// receiver-initiated work-stealing step), or ok=false when nothing is
// worth stealing.
func pullPick(loads []float64, i int) (src int, ok bool) {
	src = argmax(loads)
	if src == i || loads[src] <= 0 {
		return 0, false
	}
	return src, true
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func argmin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// roundRobinRoute advances cursor over the clusters wide enough for the
// job; -1 when none fits.
func roundRobinRoute(cursor *int, minProcs int, loads []cluster.LoadInfo) int {
	n := len(loads)
	if n == 0 {
		return -1
	}
	for k := 0; k < n; k++ {
		i := (*cursor + k) % n
		if loads[i].M >= minProcs {
			*cursor = (i + 1) % n
			return i
		}
	}
	return -1
}

// normLoads extracts the normalized queued loads.
func normLoads(loads []cluster.LoadInfo) []float64 {
	out := make([]float64, len(loads))
	for i, ld := range loads {
		out[i] = ld.NormLoad()
	}
	return out
}

// CentralizedRouter is the online CiGri design: local jobs stay on their
// home cluster (round-robin when the submission names none) and campaign
// tasks fill scheduling holes via the central server's top-up rule.
type CentralizedRouter struct {
	fill CentralizedFill
	rr   int
}

// NewCentralizedRouter builds the online CiGri policy.
func NewCentralizedRouter(RouterOptions) Router { return &CentralizedRouter{} }

func (r *CentralizedRouter) Name() string { return "centralized" }

func (r *CentralizedRouter) Route(minProcs int, loads []cluster.LoadInfo) int {
	return roundRobinRoute(&r.rr, minProcs, loads)
}

func (r *CentralizedRouter) Grants(loads []cluster.LoadInfo, stock int) []int {
	return r.fill.Grants(loads, stock)
}

// DecentralizedRouter is the online §5.2 decentralized vision: jobs are
// dealt to home clusters, campaign tasks are split across the fleet by
// capacity (there is no central server to hold them), and a periodic
// push exchange migrates queued jobs from overloaded to underloaded
// clusters.
type DecentralizedRouter struct {
	opt  RouterOptions
	rr   int
	move Move // the round's one proposal, until Next hands it out
}

// NewDecentralizedRouter builds the online load-exchange policy.
func NewDecentralizedRouter(opt RouterOptions) Router {
	return &DecentralizedRouter{opt: opt.fill()}
}

func (r *DecentralizedRouter) Name() string { return "decentralized" }

func (r *DecentralizedRouter) Route(minProcs int, loads []cluster.LoadInfo) int {
	return roundRobinRoute(&r.rr, minProcs, loads)
}

// Grants spreads the whole stock proportionally to cluster capacity
// (largest remainder in cluster order), leaving nothing central.
func (r *DecentralizedRouter) Grants(loads []cluster.LoadInfo, stock int) []int {
	grants := make([]int, len(loads))
	if len(loads) == 0 || stock <= 0 {
		return grants
	}
	var total float64
	for _, ld := range loads {
		total += float64(ld.M) * ld.Speed
	}
	if total <= 0 {
		return grants
	}
	given := 0
	for i, ld := range loads {
		grants[i] = int(float64(stock) * float64(ld.M) * ld.Speed / total)
		given += grants[i]
	}
	for i := 0; given < stock; i = (i + 1) % len(grants) {
		grants[i]++
		given++
	}
	return grants
}

// Begin plans the round's one push: up to MaxMove jobs, no more than
// the source queues, from the most to the least loaded cluster when
// their normalized loads differ by more than the threshold.
func (r *DecentralizedRouter) Begin(loads []cluster.LoadInfo) {
	r.move = Move{}
	if src, dst, ok := pushPick(normLoads(loads), r.opt.Threshold); ok {
		r.move = Move{Src: src, Dst: dst, N: min(r.opt.MaxMove, loads[src].Queued)}
	}
}

func (r *DecentralizedRouter) Next() (Move, bool) {
	mv := r.move
	r.move = Move{}
	return mv, mv.N > 0
}

// Moved has nothing to update: the round ends after its one Move.
func (r *DecentralizedRouter) Moved(Move, int, []*workload.Job) {}

// jobExchange is experiment T7's load exchange: one job per Move, and
// the normalized loads of the round's start moved with every job
// rather than read again. It routes and grants like DecentralizedRouter.
type jobExchange struct {
	DecentralizedRouter
	pull  bool
	loads []cluster.LoadInfo // the round's view; pull keeps Queued live
	load  []float64          // normalized queued loads
	i     int                // pull: the cluster whose turn it is
	moved int                // jobs moved this round (push) or in cluster i's turn (pull)
}

// NewPushExchange builds T7's sender-initiated exchange: a round moves
// up to MaxMove jobs one at a time from the most to the least loaded
// cluster while their loads differ by more than the threshold,
// re-picking both after every job, and ends at the first job that does
// not move.
func NewPushExchange(opt RouterOptions) Router {
	return &jobExchange{DecentralizedRouter: DecentralizedRouter{opt: opt.fill()}}
}

// NewPullExchange builds T7's receiver-initiated exchange (work
// stealing, in the spirit of the paper's [3]): in cluster order, every
// idle cluster (empty queue, free processors) steals up to MaxMove jobs
// one at a time from the most loaded cluster, regardless of the ratio,
// until one does not move.
func NewPullExchange(opt RouterOptions) Router {
	return &jobExchange{DecentralizedRouter: DecentralizedRouter{opt: opt.fill()}, pull: true}
}

func (x *jobExchange) Name() string {
	if x.pull {
		return "pull"
	}
	return "push"
}

func (x *jobExchange) Begin(loads []cluster.LoadInfo) {
	x.loads, x.load = loads, x.load[:0]
	for _, ld := range loads {
		x.load = append(x.load, ld.NormLoad())
	}
	x.i, x.moved = 0, 0
}

func (x *jobExchange) Next() (Move, bool) {
	if !x.pull {
		if x.moved >= x.opt.MaxMove {
			return Move{}, false
		}
		src, dst, ok := pushPick(x.load, x.opt.Threshold)
		return Move{Src: src, Dst: dst, N: 1}, ok
	}
	for ; x.i < len(x.loads); x.i, x.moved = x.i+1, 0 {
		// Queued is live: a source emptied earlier in the round may steal.
		if ld := x.loads[x.i]; ld.Queued > 0 || ld.Free == 0 || x.moved >= x.opt.MaxMove {
			continue
		}
		if src, ok := pullPick(x.load, x.i); ok {
			return Move{Src: src, Dst: x.i, N: 1}, true
		}
	}
	return Move{}, false
}

// Moved shifts a moved job's work from the source's load to the
// destination's. A Move that moved nothing spends the budget: it ends
// a push round, and cluster i's turn in a pull round.
func (x *jobExchange) Moved(mv Move, stolen int, moved []*workload.Job) {
	x.loads[mv.Src].Queued -= stolen
	if len(moved) == 0 {
		x.moved = x.opt.MaxMove
		return
	}
	src, dst := x.loads[mv.Src], x.loads[mv.Dst]
	for _, j := range moved {
		w, _ := j.MinWork(src.M)
		x.load[mv.Src] -= w / (float64(src.M) * src.Speed)
		x.load[mv.Dst] += w / (float64(dst.M) * dst.Speed)
		x.moved++
	}
}

// LeastLoadedRouter routes every job to the cluster with the smallest
// normalized queued load (ties broken by free processors, then index);
// campaign tasks use the CiGri top-up rule.
type LeastLoadedRouter struct {
	fill CentralizedFill
}

// NewLeastLoadedRouter builds the greedy load-aware policy.
func NewLeastLoadedRouter(RouterOptions) Router { return &LeastLoadedRouter{} }

func (r *LeastLoadedRouter) Name() string { return "least-loaded" }

func (r *LeastLoadedRouter) Route(minProcs int, loads []cluster.LoadInfo) int {
	best := -1
	for i, ld := range loads {
		if ld.M < minProcs {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := loads[best]
		switch li, lb := ld.NormLoad(), b.NormLoad(); {
		case li < lb:
			best = i
		case li == lb && ld.Free > b.Free:
			best = i
		}
	}
	return best
}

func (r *LeastLoadedRouter) Grants(loads []cluster.LoadInfo, stock int) []int {
	return r.fill.Grants(loads, stock)
}

// WeightedRandomRouter routes jobs randomly with probability proportional
// to cluster capacity (M × Speed) over the clusters that fit, from a
// seeded deterministic RNG; campaign tasks use the CiGri top-up rule.
type WeightedRandomRouter struct {
	fill CentralizedFill
	rng  *stats.RNG
}

// NewWeightedRandomRouter builds the capacity-weighted random policy.
func NewWeightedRandomRouter(opt RouterOptions) Router {
	return &WeightedRandomRouter{rng: stats.NewRNG(opt.Seed)}
}

func (r *WeightedRandomRouter) Name() string { return "weighted-random" }

func (r *WeightedRandomRouter) Route(minProcs int, loads []cluster.LoadInfo) int {
	w := make([]float64, len(loads))
	any := false
	for i, ld := range loads {
		if ld.M >= minProcs {
			w[i] = float64(ld.M) * ld.Speed
			any = any || w[i] > 0
		}
	}
	if !any {
		return -1
	}
	return r.rng.Choice(w)
}

func (r *WeightedRandomRouter) Grants(loads []cluster.LoadInfo, stock int) []int {
	return r.fill.Grants(loads, stock)
}
