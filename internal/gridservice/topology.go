// Topology configuration of a broker fleet: how many clusters, their
// sizes, speeds and local queue policies, plus the grid routing policy
// that binds them. Loaded from a JSON file by `gridd -topology`, or
// built by gridd from its -m -speed -policy -kill -dilation flags as a
// one-cluster fleet.
package gridservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/registry"
	"repro/internal/scenario"
)

// ClusterSpec describes one cluster of the fleet. Zero fields inherit
// the topology defaults.
type ClusterSpec struct {
	// Name labels the cluster (job placement, stats, Prometheus).
	Name string `json:"name"`
	// M is the processor count.
	M int `json:"m"`
	// Speed is the cluster speed factor (CIMENT heterogeneity).
	Speed float64 `json:"speed"`
	// Policy is the local queue policy (registry name).
	Policy string `json:"policy"`
	// Kill is the best-effort eviction policy: "newest" or "largest".
	Kill string `json:"kill"`
}

// Topology is the broker fleet configuration.
type Topology struct {
	// GridPolicy is the routing policy name (registry grid catalog).
	// Default "centralized".
	GridPolicy string `json:"grid_policy"`
	// Dilation is the fleet clock: simulated seconds per wall second,
	// 0 = free-running. Every cluster runs on the broker's one DES, so
	// the fleet shares one virtual clock.
	Dilation float64 `json:"dilation"`
	// Seed drives the weighted-random router.
	Seed uint64 `json:"seed"`
	// Threshold and MaxMove tune the decentralized exchange. A set
	// threshold must be above 1; 0 keeps the router's default.
	Threshold float64 `json:"threshold"`
	MaxMove   int     `json:"max_move"`
	// TickMS is the broker's redistribution period in wall milliseconds
	// (campaign fills, kill requeues, load exchange). Default 20.
	TickMS int `json:"tick_ms"`
	// Defaults fills unset per-cluster fields (its own zero fields fall
	// back to m=64, speed=1, policy="easy", kill="newest").
	Defaults ClusterSpec `json:"defaults"`
	// Clusters is the fleet. At least one entry.
	Clusters []ClusterSpec `json:"clusters"`
	// Partitions cut clusters (fleet indices) off the broker during
	// [start, end) windows of virtual time: no placements, grants or
	// migrations reach them while the window is open. Work already on a
	// partitioned cluster keeps running; killed campaign tasks still
	// drift back to the stock (the partition cuts scheduling traffic,
	// not the accounting channel).
	Partitions []scenario.PartitionWindow `json:"partitions,omitempty"`
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (Topology, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("gridservice: %w", err)
	}
	var t Topology
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("gridservice: topology %s: %w", path, err)
	}
	t = t.fill()
	if err := t.Validate(); err != nil {
		return Topology{}, fmt.Errorf("gridservice: topology %s: %w", path, err)
	}
	return t, nil
}

// fill applies the defaults chain: topology defaults, then built-ins.
func (t Topology) fill() Topology {
	if t.GridPolicy == "" {
		t.GridPolicy = "centralized"
	}
	if t.TickMS <= 0 {
		t.TickMS = 20
	}
	d := t.Defaults
	if d.M == 0 {
		d.M = 64
	}
	if d.Speed == 0 {
		d.Speed = 1
	}
	if d.Policy == "" {
		d.Policy = "easy"
	}
	if d.Kill == "" {
		d.Kill = "newest"
	}
	t.Defaults = d
	clusters := make([]ClusterSpec, len(t.Clusters))
	for i, c := range t.Clusters {
		if c.Name == "" {
			c.Name = fmt.Sprintf("c%d", i)
		}
		if c.M == 0 {
			c.M = d.M
		}
		if c.Speed == 0 {
			c.Speed = d.Speed
		}
		if c.Policy == "" {
			c.Policy = d.Policy
		}
		if c.Kill == "" {
			c.Kill = d.Kill
		}
		clusters[i] = c
	}
	t.Clusters = clusters
	return t
}

// Validate checks the filled topology.
func (t Topology) Validate() error {
	if len(t.Clusters) == 0 {
		return fmt.Errorf("no clusters")
	}
	if _, err := registry.GetGrid(t.GridPolicy); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, c := range t.Clusters {
		if seen[c.Name] {
			return fmt.Errorf("duplicate cluster name %q", c.Name)
		}
		seen[c.Name] = true
		if c.M <= 0 {
			return fmt.Errorf("cluster %s: %d processors", c.Name, c.M)
		}
		if c.Speed <= 0 {
			return fmt.Errorf("cluster %s: speed %v", c.Name, c.Speed)
		}
		entry, err := registry.Get(c.Policy)
		if err != nil {
			return fmt.Errorf("cluster %s: %w", c.Name, err)
		}
		if !entry.Caps.Online {
			return fmt.Errorf("cluster %s: policy %q is offline-only", c.Name, c.Policy)
		}
		if _, err := cluster.ParseKillPolicy(c.Kill); err != nil {
			return fmt.Errorf("cluster %s: %w", c.Name, err)
		}
	}
	if t.Dilation < 0 {
		return fmt.Errorf("negative dilation %v", t.Dilation)
	}
	if t.Threshold != 0 && !(t.Threshold > 1) {
		return fmt.Errorf("threshold = %v, want an imbalance threshold above 1", t.Threshold)
	}
	for i, p := range t.Partitions {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("partition %d %w", i, err)
		}
		for _, c := range p.Clusters {
			if c >= len(t.Clusters) {
				return fmt.Errorf("partition %d lists cluster %d of a %d-cluster fleet", i, c, len(t.Clusters))
			}
		}
	}
	return nil
}
