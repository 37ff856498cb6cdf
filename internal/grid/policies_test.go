package grid

import (
	"testing"

	"repro/internal/cluster"
)

func loads4() []cluster.LoadInfo {
	return []cluster.LoadInfo{
		{M: 32, Speed: 1, Free: 4, Queued: 3, QueuedWork: 960},
		{M: 64, Speed: 1, Free: 64, Queued: 0, QueuedWork: 0},
		{M: 16, Speed: 2, Free: 0, Queued: 1, QueuedWork: 64},
		{M: 64, Speed: 0.5, Free: 10, Queued: 2, QueuedWork: 32, BEQueued: 6},
	}
}

func TestCentralizedFillGrants(t *testing.T) {
	var f CentralizedFill
	// Free-BEQueued per cluster: 4, 64, 0, 4 → stock 10 goes 4,6,0,0.
	got := f.Grants(loads4(), 10)
	want := []int{4, 6, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
	}
	// Plenty of stock: every hole topped up, remainder stays central.
	got = f.Grants(loads4(), 1000)
	want = []int{4, 64, 0, 4}
	total := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
		total += got[i]
	}
	if total != 72 {
		t.Fatalf("granted %d", total)
	}
	if n := f.TopUp(2, 5, 100); n != 0 {
		t.Fatalf("over-queued cluster granted %d", n)
	}
}

func TestRoundRobinRouteSkipsNarrowClusters(t *testing.T) {
	r := NewCentralizedRouter(RouterOptions{})
	ld := loads4()
	seen := map[int]int{}
	for i := 0; i < 8; i++ {
		idx := r.Route(1, ld)
		if idx < 0 {
			t.Fatal("route failed")
		}
		seen[idx]++
	}
	for i := 0; i < 4; i++ {
		if seen[i] != 2 {
			t.Fatalf("round-robin distribution %v", seen)
		}
	}
	// A 48-proc job only fits clusters 1 and 3 (M=64).
	for i := 0; i < 4; i++ {
		idx := r.Route(48, ld)
		if idx != 1 && idx != 3 {
			t.Fatalf("48-proc job routed to cluster %d", idx)
		}
	}
	if idx := r.Route(100, ld); idx != -1 {
		t.Fatalf("oversized job routed to %d", idx)
	}
}

func TestLeastLoadedRoute(t *testing.T) {
	r := NewLeastLoadedRouter(RouterOptions{})
	ld := loads4()
	// Cluster 1 has zero queued work and the most free procs.
	if idx := r.Route(1, ld); idx != 1 {
		t.Fatalf("least-loaded routed to %d", idx)
	}
	// Only clusters 0,1,3 fit 20 procs; 1 still least loaded.
	if idx := r.Route(20, ld); idx != 1 {
		t.Fatalf("least-loaded 20-proc routed to %d", idx)
	}
}

func TestWeightedRandomRouteDeterministicAndEligible(t *testing.T) {
	a := NewWeightedRandomRouter(RouterOptions{Seed: 9})
	b := NewWeightedRandomRouter(RouterOptions{Seed: 9})
	ld := loads4()
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		x, y := a.Route(40, ld), b.Route(40, ld)
		if x != y {
			t.Fatalf("same seed diverged: %d vs %d at step %d", x, y, i)
		}
		if x != 1 && x != 3 {
			t.Fatalf("40-proc job routed to narrow cluster %d", x)
		}
		counts[x]++
	}
	// Capacity 64 vs 32: both must be hit, cluster 1 more often.
	if counts[1] == 0 || counts[3] == 0 || counts[1] <= counts[3] {
		t.Fatalf("weighted-random counts %v", counts)
	}
}

func TestDecentralizedRouterGrantsSpreadByCapacity(t *testing.T) {
	r := NewDecentralizedRouter(RouterOptions{})
	ld := loads4() // capacities 32, 64, 32, 32 → total 160
	got := r.Grants(ld, 160)
	want := []int{32, 64, 32, 32}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
	}
	// Remainder distribution keeps the exact total.
	got = r.Grants(ld, 7)
	total := 0
	for _, n := range got {
		total += n
	}
	if total != 7 {
		t.Fatalf("grants %v sum %d, want 7", got, total)
	}
}

func TestDecentralizedRouterMoves(t *testing.T) {
	r := NewDecentralizedRouter(RouterOptions{Threshold: 1.5, MaxMove: 4}).(Exchanger)
	ld := loads4()
	moves := roundMoves(r, ld)
	if len(moves) != 1 {
		t.Fatalf("moves %v", moves)
	}
	// Cluster 0 has norm load 30, cluster 1 has 0: push 0 → 1.
	mv := moves[0]
	if mv.Src != 0 || mv.Dst != 1 {
		t.Fatalf("move %+v", mv)
	}
	if mv.N != 3 { // capped by the source's queue length
		t.Fatalf("move count %d", mv.N)
	}
	// Balanced fleet: no moves.
	bal := []cluster.LoadInfo{
		{M: 32, Speed: 1, Queued: 2, QueuedWork: 100},
		{M: 32, Speed: 1, Queued: 2, QueuedWork: 100},
	}
	if mv := roundMoves(r, bal); mv != nil {
		t.Fatalf("balanced fleet moved %v", mv)
	}
}

// roundMoves runs one exchange round with no fleet behind it: every
// proposed Move is reported as dropped.
func roundMoves(ex Exchanger, loads []cluster.LoadInfo) []Move {
	var moves []Move
	ex.Begin(loads)
	for mv, ok := ex.Next(); ok; mv, ok = ex.Next() {
		moves = append(moves, mv)
		ex.Moved(mv, 0, nil)
	}
	return moves
}

func TestPushPullPicks(t *testing.T) {
	if _, _, ok := pushPick([]float64{1, 1.2}, 1.5); ok {
		t.Fatal("push below threshold")
	}
	src, dst, ok := pushPick([]float64{10, 1}, 1.5)
	if !ok || src != 0 || dst != 1 {
		t.Fatalf("push pick %d→%d ok=%v", src, dst, ok)
	}
	if _, ok := pullPick([]float64{0, 0}, 1); ok {
		t.Fatal("pull with no load")
	}
	src, ok = pullPick([]float64{5, 0}, 1)
	if !ok || src != 0 {
		t.Fatalf("pull pick %d ok=%v", src, ok)
	}
}
