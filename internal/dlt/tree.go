package dlt

import (
	"fmt"
	"math"
)

// TreeNode is a node of a tree network in the sense of the paper's
// reference [4] (Cheng & Robertazzi, "Distributed computation for a tree
// network with communication delays"): the root holds the load, every
// node can compute, and each edge has a per-unit transfer cost. The
// one-port model applies at every node (a node sends to one child at a
// time, after its own receive completes — store-and-forward).
type TreeNode struct {
	Name string
	// Compute is the time to process one unit of load at this node.
	Compute float64
	// LinkToParent is the per-unit transfer cost of the edge above this
	// node (ignored at the root).
	LinkToParent float64
	Children     []*TreeNode
}

// Validate checks the subtree.
func (n *TreeNode) Validate() error {
	if n.Compute <= 0 {
		return fmt.Errorf("dlt: node %q compute %v", n.Name, n.Compute)
	}
	if n.LinkToParent < 0 {
		return fmt.Errorf("dlt: node %q link %v", n.Name, n.LinkToParent)
	}
	for _, c := range n.Children {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Size returns the number of nodes in the subtree.
func (n *TreeNode) Size() int {
	s := 1
	for _, c := range n.Children {
		s += c.Size()
	}
	return s
}

// Chain builds a linear chain (daisy chain) of depth d below a root —
// the classic degenerate tree used to sanity-check collapse formulas.
func Chain(depth int, compute, link float64) *TreeNode {
	root := &TreeNode{Name: "n0", Compute: compute}
	cur := root
	for i := 1; i <= depth; i++ {
		child := &TreeNode{
			Name: fmt.Sprintf("n%d", i), Compute: compute, LinkToParent: link,
		}
		cur.Children = []*TreeNode{child}
		cur = child
	}
	return root
}

// equivalent returns the per-unit-load completion time F of the subtree
// under optimal single-round distribution with simultaneous completion:
// a subtree receiving load L finishes it in F·L. Classical equivalent-
// processor collapse: each child subtree is first reduced to a single
// equivalent worker (link = child's edge, compute = child's F), then the
// node plus its equivalent children form a star whose closed form is the
// one-round distribution of the dlt package; the node's own computation
// is a zero-link worker. Leaves have F = Compute.
func (n *TreeNode) equivalent() (float64, error) {
	if len(n.Children) == 0 {
		return n.Compute, nil
	}
	workers := []Worker{{Compute: n.Compute, Link: 0}}
	for _, c := range n.Children {
		f, err := c.equivalent()
		if err != nil {
			return 0, err
		}
		workers = append(workers, Worker{Compute: f, Link: c.LinkToParent})
	}
	star := &Star{Workers: workers}
	d, err := SingleRound(star, 1)
	if err != nil {
		return 0, err
	}
	return d.Makespan, nil
}

// TreeDistribution is the outcome of TreeSingleRound.
type TreeDistribution struct {
	// Makespan is the completion time of the whole load.
	Makespan float64
	// Load maps node names to absolute load amounts (sums to W).
	Load map[string]float64
}

// TreeSingleRound computes the optimal single-round distribution of load
// W over the tree: bottom-up equivalent-processor collapse, then
// top-down unfolding of the per-subtree fractions.
func TreeSingleRound(root *TreeNode, W float64) (*TreeDistribution, error) {
	if err := root.Validate(); err != nil {
		return nil, err
	}
	if W <= 0 {
		return nil, fmt.Errorf("dlt: non-positive load %v", W)
	}
	f, err := root.equivalent()
	if err != nil {
		return nil, err
	}
	out := &TreeDistribution{
		Makespan: f * W,
		Load:     map[string]float64{},
	}
	if err := unfold(root, W, out.Load); err != nil {
		return nil, err
	}
	return out, nil
}

// unfold splits load among a node and its child subtrees using the same
// star solution as the collapse, recursively.
func unfold(n *TreeNode, load float64, acc map[string]float64) error {
	if _, dup := acc[n.Name]; dup {
		return fmt.Errorf("dlt: duplicate node name %q", n.Name)
	}
	if len(n.Children) == 0 {
		acc[n.Name] = load
		return nil
	}
	workers := []Worker{{Compute: n.Compute, Link: 0}}
	for _, c := range n.Children {
		f, err := c.equivalent()
		if err != nil {
			return err
		}
		workers = append(workers, Worker{Compute: f, Link: c.LinkToParent})
	}
	d, err := SingleRound(&Star{Workers: workers}, load)
	if err != nil {
		return err
	}
	acc[n.Name] = d.Alpha[0] * load
	for i, c := range n.Children {
		sub := d.Alpha[i+1] * load
		if sub <= 0 {
			if err := markZero(c, acc); err != nil {
				return err
			}
			continue
		}
		if err := unfold(c, sub, acc); err != nil {
			return err
		}
	}
	return nil
}

func markZero(n *TreeNode, acc map[string]float64) error {
	if _, dup := acc[n.Name]; dup {
		return fmt.Errorf("dlt: duplicate node name %q", n.Name)
	}
	acc[n.Name] = 0
	for _, c := range n.Children {
		if err := markZero(c, acc); err != nil {
			return err
		}
	}
	return nil
}

// TreeLowerBound is the compute-saturation bound for a tree: all nodes
// crunching in parallel with free communication.
func TreeLowerBound(root *TreeNode, W float64) float64 {
	var invSum float64
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		invSum += 1 / n.Compute
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	if invSum == 0 {
		return math.Inf(1)
	}
	return W / invSum
}
