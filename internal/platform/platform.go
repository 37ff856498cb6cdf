// Package platform models the execution supports of the paper (§1.2): a
// light grid is a small set of clusters, each a collection of tens to
// hundreds of nodes, weakly heterogeneous inside a cluster (clock speeds)
// and strongly heterogeneous across clusters (architecture, interconnect,
// OS). It also provides reservation calendars (§5.1) and the one
// capacity sweep that checks every schedule and calendar and turns
// (start, duration, count) schedules into per-processor allocations.
package platform

import (
	"fmt"
	"slices"
)

// Cluster is one weakly-heterogeneous cluster of a light grid.
type Cluster struct {
	// Name identifies the cluster ("icluster", "idpot", ...).
	Name string
	// Nodes is the number of nodes; Procs = Nodes * ProcsPerNode.
	Nodes int
	// ProcsPerNode is the per-node processor count (2 for the CIMENT
	// bi-processor machines).
	ProcsPerNode int
	// Speed is the relative processor speed (reference cluster = 1.0).
	// A job with sequential time s takes s/Speed on one processor here.
	Speed float64
}

// Procs returns the total processor count of the cluster.
func (c *Cluster) Procs() int { return c.Nodes * c.ProcsPerNode }

// Validate checks structural invariants.
func (c *Cluster) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster %q: %d nodes", c.Name, c.Nodes)
	case c.ProcsPerNode <= 0:
		return fmt.Errorf("cluster %q: %d procs/node", c.Name, c.ProcsPerNode)
	case c.Speed <= 0:
		return fmt.Errorf("cluster %q: speed %v", c.Name, c.Speed)
	}
	return nil
}

// Grid is a light grid: a named set of clusters (Figure 1).
type Grid struct {
	Name     string
	Clusters []*Cluster
}

// TotalProcs sums processor counts over all clusters.
func (g *Grid) TotalProcs() int {
	var n int
	for _, c := range g.Clusters {
		n += c.Procs()
	}
	return n
}

// Validate checks all clusters and name uniqueness.
func (g *Grid) Validate() error {
	seen := map[string]bool{}
	for _, c := range g.Clusters {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("duplicate cluster name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// CIMENT returns the four largest clusters of the CIMENT project exactly
// as drawn in Figure 3 of the paper: 104 bi-Itanium2 nodes on Myrinet,
// 48 bi-P4 Xeon on gigabit Ethernet, 40 and 24 bi-Athlon on 100 Mb/s
// Ethernet. Speeds are indicative relative clock/architecture factors.
func CIMENT() *Grid {
	return &Grid{
		Name: "CIMENT",
		Clusters: []*Cluster{
			{Name: "itanium", Nodes: 104, ProcsPerNode: 2, Speed: 1.3},
			{Name: "xeon", Nodes: 48, ProcsPerNode: 2, Speed: 1.0},
			{Name: "athlon-a", Nodes: 40, ProcsPerNode: 2, Speed: 0.8},
			{Name: "athlon-b", Nodes: 24, ProcsPerNode: 2, Speed: 0.8},
		},
	}
}

// Reservation is an advance reservation (§5.1): Procs processors are
// unavailable to the scheduler during [Start, End).
type Reservation struct {
	Name  string
	Start float64
	End   float64
	Procs int
}

// Validate checks the reservation window.
func (r Reservation) Validate() error {
	switch {
	case r.End <= r.Start:
		return fmt.Errorf("reservation %q: empty window [%v,%v)", r.Name, r.Start, r.End)
	case r.Procs <= 0:
		return fmt.Errorf("reservation %q: %d procs", r.Name, r.Procs)
	case r.Start < 0:
		return fmt.Errorf("reservation %q: negative start %v", r.Name, r.Start)
	}
	return nil
}

// Calendar is a set of reservations on one cluster. Its reservations
// never hold more than its m processors at once.
type Calendar struct {
	m            int
	reservations []Reservation
}

// NewCalendar builds a calendar for a cluster of m processors. It returns
// an error if any reservation is invalid or if at some instant the
// reserved processors exceed m, under the PeakDemand tie rule.
func NewCalendar(m int, rs []Reservation) (*Calendar, error) {
	if m <= 0 {
		return nil, fmt.Errorf("calendar: %d processors", m)
	}
	c := &Calendar{m: m, reservations: append([]Reservation(nil), rs...)}
	held := make([]Interval, len(rs))
	for i, r := range c.reservations {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		held[i] = Interval{Start: r.Start, End: r.End, Count: r.Procs}
	}
	if PeakDemand(held) > m {
		return nil, fmt.Errorf("calendar: reservations exceed %d processors", m)
	}
	// Equal starts tie, and Reservations returns them in this order:
	// slices.SortFunc with this cmp gives sort.Slice's, as in
	// lowerbound.SumWeightedCompletionOf.
	slices.SortFunc(c.reservations, func(a, b Reservation) int {
		if a.Start < b.Start {
			return -1
		}
		return 1
	})
	return c, nil
}

// M returns the processor count of the underlying cluster.
func (c *Calendar) M() int { return c.m }

// Reservations returns a copy of the sorted reservation list.
func (c *Calendar) Reservations() []Reservation {
	return append([]Reservation(nil), c.reservations...)
}
