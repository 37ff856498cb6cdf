package gridservice

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTopo(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTopologyDefaults(t *testing.T) {
	topo, err := LoadTopology(writeTopo(t, `{
		"grid_policy": "centralized",
		"defaults": {"m": 32, "policy": "fcfs"},
		"clusters": [
			{"name": "fast", "m": 128, "speed": 2, "policy": "easy"},
			{},
			{"kill": "largest"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Clusters) != 3 {
		t.Fatalf("%d clusters", len(topo.Clusters))
	}
	c0, c1, c2 := topo.Clusters[0], topo.Clusters[1], topo.Clusters[2]
	if c0.Name != "fast" || c0.M != 128 || c0.Speed != 2 || c0.Policy != "easy" || c0.Kill != "newest" {
		t.Fatalf("cluster 0 %+v", c0)
	}
	if c1.Name != "c1" || c1.M != 32 || c1.Speed != 1 || c1.Policy != "fcfs" {
		t.Fatalf("cluster 1 %+v", c1)
	}
	if c2.Kill != "largest" || c2.M != 32 {
		t.Fatalf("cluster 2 %+v", c2)
	}
	if topo.TickMS != 20 {
		t.Fatalf("tick default %d", topo.TickMS)
	}
}

func TestLoadTopologyRejects(t *testing.T) {
	cases := map[string]string{
		"no clusters":       `{"clusters": []}`,
		"unknown grid":      `{"grid_policy": "nope", "clusters": [{}]}`,
		"unknown policy":    `{"clusters": [{"policy": "nope"}]}`,
		"offline policy":    `{"clusters": [{"policy": "mrt"}]}`,
		"bad kill":          `{"clusters": [{"kill": "oldest"}]}`,
		"duplicate names":   `{"clusters": [{"name": "a"}, {"name": "a"}]}`,
		"negative m":        `{"clusters": [{"m": -4}]}`,
		"negative speed":    `{"clusters": [{"speed": -1}]}`,
		"unknown field":     `{"clusterz": [{}]}`,
		"negative dilation": `{"dilation": -1, "clusters": [{}]}`,
		"threshold of 1":    `{"grid_policy": "decentralized", "threshold": 1, "clusters": [{}]}`,
		"threshold below 1": `{"grid_policy": "decentralized", "threshold": 0.5, "clusters": [{}]}`,
	}
	for name, body := range cases {
		if _, err := LoadTopology(writeTopo(t, body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := LoadTopology("/does/not/exist.json"); err == nil ||
		!strings.Contains(err.Error(), "gridservice") {
		t.Errorf("missing file: %v", err)
	}
}

func TestNewBrokerRejectsBadTopology(t *testing.T) {
	if _, err := NewBroker(Topology{}); err == nil {
		t.Fatal("empty topology accepted")
	}
	if _, err := NewBroker(Topology{GridPolicy: "nope", Clusters: []ClusterSpec{{}}}); err == nil {
		t.Fatal("unknown grid policy accepted")
	}
	// Refused in the words a spec's grid.threshold is refused in, rather
	// than run at the router's default.
	_, err := NewBroker(Topology{GridPolicy: "decentralized", Threshold: 0.5, Clusters: []ClusterSpec{{}}})
	if err == nil || !strings.Contains(err.Error(), "want an imbalance threshold above 1") {
		t.Fatalf("threshold 0.5: %v", err)
	}
}
