// Online grid policies: the routing decisions of the §5.2 multi-cluster
// designs, extracted into small policy types shared between the offline
// grid simulations (Routed and Decentralized in this package) and the
// live broker of internal/gridservice. A Router sees only per-cluster
// LoadInfo, so the same decision code runs in the offline tables and in
// the broker's loop, both through Fleet.
package grid

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/stats"
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
// runs its rounds; routers that are not Exchangers never move a queued
// job, so no round is run for them.
type Exchanger interface {
	// Moves proposes queued-job migrations for this round (nil when
	// the fleet is balanced).
	Moves(loads []cluster.LoadInfo) []Move
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

// PushPick selects the (src, dst) pair for one sender-initiated transfer
// over normalized loads, or ok=false when the imbalance is below the
// threshold (the §5.2 decentralized push protocol step).
func PushPick(loads []float64, threshold float64) (src, dst int, ok bool) {
	src, dst = argmax(loads), argmin(loads)
	if src == dst || loads[src] <= threshold*math.Max(loads[dst], 1e-12) {
		return 0, 0, false
	}
	return src, dst, true
}

// PullPick selects the source an idle cluster i steals from (the
// receiver-initiated work-stealing step), or ok=false when nothing is
// worth stealing.
func PullPick(loads []float64, i int) (src int, ok bool) {
	src = argmax(loads)
	if src == i || loads[src] <= 0 {
		return 0, false
	}
	return src, true
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
	opt RouterOptions
	rr  int
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

func (r *DecentralizedRouter) Moves(loads []cluster.LoadInfo) []Move {
	src, dst, ok := PushPick(normLoads(loads), r.opt.Threshold)
	if !ok {
		return nil
	}
	n := r.opt.MaxMove
	if q := loads[src].Queued; n > q {
		n = q
	}
	if n <= 0 {
		return nil
	}
	return []Move{{Src: src, Dst: dst, N: n}}
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
