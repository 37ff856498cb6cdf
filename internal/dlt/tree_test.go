package dlt

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestTreeLeafEqualsSingleWorker(t *testing.T) {
	leaf := &TreeNode{Name: "solo", Compute: 2}
	d, err := TreeSingleRound(leaf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Makespan-20) > 1e-9 {
		t.Fatalf("makespan %v, want 20", d.Makespan)
	}
	if math.Abs(d.Load["solo"]-10) > 1e-9 {
		t.Fatalf("load %v, want all at the leaf", d.Load["solo"])
	}
}

func TestTreeDepthOneMatchesStar(t *testing.T) {
	// Root with compute + 2 children == star with a zero-link master
	// worker: cross-check against the flat solver.
	root := &TreeNode{Name: "r", Compute: 1, Children: []*TreeNode{
		{Name: "a", Compute: 2, LinkToParent: 0.1},
		{Name: "b", Compute: 3, LinkToParent: 0.3},
	}}
	td, err := TreeSingleRound(root, 50)
	if err != nil {
		t.Fatal(err)
	}
	flat := &Star{Workers: []Worker{
		{Compute: 1, Link: 0},
		{Compute: 2, Link: 0.1},
		{Compute: 3, Link: 0.3},
	}}
	fd, err := SingleRound(flat, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(td.Makespan-fd.Makespan) > 1e-6*fd.Makespan {
		t.Fatalf("tree %v vs star %v", td.Makespan, fd.Makespan)
	}
}

func TestTreeLoadConservation(t *testing.T) {
	root := &TreeNode{Name: "r", Compute: 1, Children: []*TreeNode{
		{Name: "a", Compute: 1, LinkToParent: 0.2, Children: []*TreeNode{
			{Name: "aa", Compute: 1, LinkToParent: 0.3},
			{Name: "ab", Compute: 2, LinkToParent: 0.1},
		}},
		{Name: "b", Compute: 1.5, LinkToParent: 0.4},
	}}
	W := 100.0
	d, err := TreeSingleRound(root, W)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range d.Load {
		if v < -1e-9 {
			t.Fatalf("negative load %v", v)
		}
		sum += v
	}
	if math.Abs(sum-W) > 1e-6 {
		t.Fatalf("loads sum to %v, want %v", sum, W)
	}
	if len(d.Load) != root.Size() {
		t.Fatalf("%d load entries for %d nodes", len(d.Load), root.Size())
	}
}

func TestTreeBeatsSingleNode(t *testing.T) {
	// Adding children with finite links must not hurt: the collapse
	// should use them and beat the root alone.
	root := &TreeNode{Name: "r", Compute: 1, Children: []*TreeNode{
		{Name: "a", Compute: 1, LinkToParent: 0.05},
		{Name: "b", Compute: 1, LinkToParent: 0.05},
	}}
	d, err := TreeSingleRound(root, 90)
	if err != nil {
		t.Fatal(err)
	}
	aloneMakespan := 90.0 * 1
	if d.Makespan >= aloneMakespan {
		t.Fatalf("tree makespan %v not better than root alone %v", d.Makespan, aloneMakespan)
	}
	if d.Makespan < TreeLowerBound(root, 90)-1e-9 {
		t.Fatal("tree beat its lower bound")
	}
}

func TestChainCollapse(t *testing.T) {
	// A depth-3 chain: deeper nodes help less (store-and-forward), so
	// the equivalent time must decrease with each added level but stay
	// above the compute-saturation bound.
	prev := math.Inf(1)
	for depth := 0; depth <= 3; depth++ {
		c := Chain(depth, 1, 0.2)
		d, err := TreeSingleRound(c, 10)
		if err != nil {
			t.Fatal(err)
		}
		if d.Makespan >= prev {
			t.Fatalf("depth %d makespan %v did not improve on %v", depth, d.Makespan, prev)
		}
		prev = d.Makespan
		if lb := TreeLowerBound(c, 10); d.Makespan < lb-1e-9 {
			t.Fatalf("depth %d: makespan %v below bound %v", depth, d.Makespan, lb)
		}
	}
}

func TestTreeValidation(t *testing.T) {
	bad := &TreeNode{Name: "r", Compute: 0}
	if _, err := TreeSingleRound(bad, 10); err == nil {
		t.Fatal("zero-compute node accepted")
	}
	ok := &TreeNode{Name: "r", Compute: 1}
	if _, err := TreeSingleRound(ok, 0); err == nil {
		t.Fatal("zero load accepted")
	}
	dup := &TreeNode{Name: "x", Compute: 1, Children: []*TreeNode{
		{Name: "x", Compute: 1, LinkToParent: 0.1},
	}}
	if _, err := TreeSingleRound(dup, 10); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

// Property: random trees conserve load, respect the lower bound, and the
// root's equivalent time is no worse than the root's own compute time.
func TestTreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		id := 0
		var build func(depth int) *TreeNode
		build = func(depth int) *TreeNode {
			n := &TreeNode{
				Name:         fmt.Sprintf("n%d", id),
				Compute:      rng.Range(0.5, 4),
				LinkToParent: rng.Range(0.01, 1),
			}
			id++
			if depth > 0 {
				kids := rng.Intn(3)
				for k := 0; k < kids; k++ {
					n.Children = append(n.Children, build(depth-1))
				}
			}
			return n
		}
		root := build(3)
		W := rng.Range(10, 1000)
		d, err := TreeSingleRound(root, W)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range d.Load {
			if v < -1e-9 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-W) > 1e-6*W {
			return false
		}
		if d.Makespan < TreeLowerBound(root, W)*(1-1e-9) {
			return false
		}
		// The tree can never be slower than the root computing alone.
		return d.Makespan <= root.Compute*W*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeSingleRound(b *testing.B) {
	// Balanced ternary tree of depth 4 (121 nodes).
	id := 0
	var build func(depth int) *TreeNode
	build = func(depth int) *TreeNode {
		n := &TreeNode{
			Name: fmt.Sprintf("n%d", id), Compute: 1 + float64(id%3)*0.5,
			LinkToParent: 0.05 + float64(id%5)*0.02,
		}
		id++
		if depth > 0 {
			for k := 0; k < 3; k++ {
				n.Children = append(n.Children, build(depth-1))
			}
		}
		return n
	}
	root := build(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TreeSingleRound(root, 1e5); err != nil {
			b.Fatal(err)
		}
	}
}
