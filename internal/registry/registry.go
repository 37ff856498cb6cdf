// Package registry is the single policy catalog of the repo: every
// scheduling policy is registered here under its CLI name together with
// its capability flags (online/offline, rigid/moldable, best-effort
// cooperation) and its constructors. gridctl, the scenario kinds and
// the gridd service all resolve policies through this catalog instead of
// maintaining their own switch statements.
//
// Alongside the per-cluster queue policies the registry also catalogs
// the grid routing policies (internal/grid.Router): the multi-cluster
// designs the gridd broker serves and the offline grid experiments
// sweep.
package registry

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/batch"
	"repro/internal/bicriteria"
	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/moldable"
	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/smart"
	"repro/internal/workload"
)

// Caps describes what a policy can do.
type Caps struct {
	// Online: the policy runs inside the event-driven cluster simulator,
	// reacting to arrivals as they happen (NewPolicy is non-nil).
	Online bool
	// Offline: the policy builds a complete schedule from a closed batch
	// of jobs (Offline is non-nil).
	Offline bool
	// Moldable: the policy exploits moldability (chooses processor
	// counts). Policies without it treat every job as rigid at MinProcs.
	Moldable bool
	// BestEffort: when run online, the policy cooperates with the CiGri
	// best-effort backfill layer (grid tasks fill its holes and are
	// evicted on demand).
	BestEffort bool
}

// String renders the flags compactly, e.g. "online,moldable,best-effort".
func (c Caps) String() string {
	var parts []string
	if c.Online {
		parts = append(parts, "online")
	}
	if c.Offline {
		parts = append(parts, "offline")
	}
	if c.Moldable {
		parts = append(parts, "moldable")
	} else {
		parts = append(parts, "rigid")
	}
	if c.BestEffort {
		parts = append(parts, "best-effort")
	}
	return strings.Join(parts, ",")
}

// Entry is one catalogued policy.
type Entry struct {
	Name string
	Desc string
	Caps Caps
	// NewPolicy constructs the online queue policy. Nil when !Caps.Online.
	NewPolicy func() cluster.Policy
	// Offline runs the batch algorithm over a closed job set. Nil when
	// !Caps.Offline.
	Offline func(jobs []*workload.Job, m int) (*sched.Schedule, error)
}

var catalog = map[string]*Entry{
	"fcfs": {
		Name:      "fcfs",
		Desc:      "first-come first-served, no backfilling (strict queue order)",
		Caps:      Caps{Online: true, BestEffort: true},
		NewPolicy: func() cluster.Policy { return cluster.FCFSPolicy{} },
	},
	"easy": {
		Name:      "easy",
		Desc:      "EASY aggressive backfilling (shadow-time reservation for the head)",
		Caps:      Caps{Online: true, BestEffort: true},
		NewPolicy: func() cluster.Policy { return cluster.EASYPolicy{} },
	},
	"greedyfit": {
		Name:      "greedyfit",
		Desc:      "start anything that fits, in queue order (no starvation protection)",
		Caps:      Caps{Online: true, BestEffort: true},
		NewPolicy: func() cluster.Policy { return cluster.GreedyFitPolicy{} },
	},
	"conservative": {
		Name:      "conservative",
		Desc:      "conservative backfilling: every queued job holds a reservation",
		Caps:      Caps{Online: true, Offline: true, BestEffort: true},
		NewPolicy: func() cluster.Policy { return cluster.ConservativePolicy{} },
		Offline: func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
			return rigid.Conservative(jobs, m)
		},
	},
	"ffdh": {
		Name: "ffdh",
		Desc: "first-fit decreasing-height shelf packing (rigid strip baseline)",
		Caps: Caps{Offline: true},
		Offline: func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
			shelves, err := rigid.FFDH(jobs, m)
			if err != nil {
				return nil, err
			}
			return rigid.ShelvesToSchedule(shelves, m), nil
		},
	},
	"mrt": {
		Name: "mrt",
		Desc: "moldable dual-approximation makespan algorithm (§4.1 MRT)",
		Caps: Caps{Offline: true, Moldable: true},
		Offline: func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
			res, err := moldable.MRT(jobs, m, 0.01)
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		},
	},
	"batch": {
		Name: "batch",
		Desc: "online-batch moldable scheduling (doubling batches over release dates)",
		Caps: Caps{Offline: true, Moldable: true},
		Offline: func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
			res, err := batch.OnlineMoldable(jobs, m, 0.01)
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		},
	},
	"bicriteria": {
		Name: "bicriteria",
		Desc: "bi-criteria (Cmax, ΣwC) moldable approximation (§4.2)",
		Caps: Caps{Offline: true, Moldable: true},
		Offline: func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
			res, err := bicriteria.Schedule(jobs, m, bicriteria.Options{})
			if err != nil {
				return nil, err
			}
			return res.Schedule, nil
		},
	},
	"smart": {
		Name: "smart",
		Desc: "SMART shelf-based weighted-completion approximation",
		Caps: Caps{Offline: true, Moldable: true},
		Offline: func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
			s, _, err := smart.Schedule(jobs, m, smart.FirstFit)
			return s, err
		},
	},
}

// Get resolves a policy by name.
func Get(name string) (*Entry, error) {
	e, ok := catalog[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown policy %q (have: %s)", name, strings.Join(Names(), " "))
	}
	return e, nil
}

// Names returns the sorted catalog names.
func Names() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns the entries sorted by name.
func All() []*Entry {
	entries := make([]*Entry, 0, len(catalog))
	for _, n := range Names() {
		entries = append(entries, catalog[n])
	}
	return entries
}

// GridEntry is one catalogued grid routing policy.
type GridEntry struct {
	Name string
	Desc string
	// New constructs a fresh router; routers carry private state
	// (cursors, RNGs) and must not be shared between brokers.
	New func(opt grid.RouterOptions) grid.Router
}

var gridCatalog = map[string]*GridEntry{
	"centralized": {
		Name: "centralized",
		Desc: "CiGri server: jobs stay on their home cluster, campaign tasks top up each cluster's free slots from a central stock",
		New:  grid.NewCentralizedRouter,
	},
	"decentralized": {
		Name: "decentralized",
		Desc: "neighbour redistribution: campaigns split by capacity, queued jobs pushed from overloaded to underloaded clusters",
		New:  grid.NewDecentralizedRouter,
	},
	"least-loaded": {
		Name: "least-loaded",
		Desc: "route every job to the cluster with the smallest normalized queued load",
		New:  grid.NewLeastLoadedRouter,
	},
	"weighted-random": {
		Name: "weighted-random",
		Desc: "route jobs randomly, weighted by cluster capacity (seeded, deterministic)",
		New:  grid.NewWeightedRandomRouter,
	},
}

// Exchanges reports whether the policy migrates queued jobs between
// clusters: whether its router is a grid.Exchanger.
func (e *GridEntry) Exchanges() bool {
	_, ok := e.New(grid.RouterOptions{}).(grid.Exchanger)
	return ok
}

// GetGrid resolves a grid routing policy by name.
func GetGrid(name string) (*GridEntry, error) {
	e, ok := gridCatalog[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown grid policy %q (have: %s)", name, strings.Join(GridNames(), " "))
	}
	return e, nil
}

// GridNames returns the sorted grid-policy names.
func GridNames() []string {
	names := make([]string, 0, len(gridCatalog))
	for n := range gridCatalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Grids returns the grid entries sorted by name.
func Grids() []*GridEntry {
	out := make([]*GridEntry, 0, len(gridCatalog))
	for _, n := range GridNames() {
		out = append(out, gridCatalog[n])
	}
	return out
}

// WriteGridCatalog prints the grid-policy catalog as an aligned table.
func WriteGridCatalog(w io.Writer) error {
	width := 0
	for n := range gridCatalog {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, e := range Grids() {
		kind := "routing"
		if e.Exchanges() {
			kind = "routing+exchange"
		}
		if _, err := fmt.Fprintf(w, "%-*s  %-16s  %s\n", width, e.Name, kind, e.Desc); err != nil {
			return err
		}
	}
	return nil
}

// WriteCatalog prints the catalog as an aligned table (the first half
// of `gridctl policies`).
func WriteCatalog(w io.Writer) error {
	width := 0
	for n := range catalog {
		if len(n) > width {
			width = len(n)
		}
	}
	capw := 0
	for _, e := range All() {
		if l := len(e.Caps.String()); l > capw {
			capw = l
		}
	}
	for _, e := range All() {
		if _, err := fmt.Fprintf(w, "%-*s  %-*s  %s\n", width, e.Name, capw, e.Caps.String(), e.Desc); err != nil {
			return err
		}
	}
	return nil
}
