package gridservice

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/workload"
)

// fleetTopo builds a homogeneous free-running test fleet.
func fleetTopo(k, m int, gridPolicy string) Topology {
	t := Topology{GridPolicy: gridPolicy, TickMS: 2}
	for i := 0; i < k; i++ {
		t.Clusters = append(t.Clusters, ClusterSpec{M: m})
	}
	return t
}

// testJobs generates the shared rigid arrival stream.
func testJobs(n, m int, seed uint64) []*workload.Job {
	return workload.Parallel(workload.GenConfig{
		N: n, M: m, Seed: seed, ArrivalRate: 0.3, RigidFraction: 1, MaxProcsCap: m,
	})
}

type completionKey struct {
	start, end float64
	procs      int
}

// TestBrokerCentralizedMatchesOffline is the §5.2 determinism witness:
// a trace replayed through the live broker under the centralized grid
// policy must produce, on every cluster, exactly the local completions
// of the offline CiGri run (grid.Routed under the centralized router,
// fed on idle) over the same round-robin split — and the campaign must
// complete in full on both. The inputs are a
// 4-cluster EASY fleet and, for every online policy, the one-cluster
// fleet a flag-configured gridd serves.
func TestBrokerCentralizedMatchesOffline(t *testing.T) {
	type fleetCase struct {
		k      int
		policy string
	}
	cases := []fleetCase{{4, "easy"}}
	for _, e := range registry.All() {
		if e.Caps.Online {
			cases = append(cases, fleetCase{1, e.Name})
		}
	}
	for _, fc := range cases {
		t.Run(fmt.Sprintf("k%d-%s", fc.k, fc.policy), func(t *testing.T) {
			matchOffline(t, fc.k, fc.policy)
		})
	}
}

func matchOffline(t *testing.T, k int, policy string) {
	const m, n, tasks = 16, 120, 300
	const runTime = 7.0
	jobs := testJobs(n, m, 5)
	entry, err := registry.Get(policy)
	if err != nil {
		t.Fatal(err)
	}

	// Offline reference: one DES, k member sims, central CiGri server.
	split := make([][]*workload.Job, k)
	for i, j := range jobs {
		split[i%k] = append(split[i%k], j)
	}
	var members []grid.Member
	for i := 0; i < k; i++ {
		members = append(members, grid.Member{
			Cluster: &platform.Cluster{Name: "ref", Nodes: m, ProcsPerNode: 1, Speed: 1},
			Policy:  entry.NewPolicy(),
			Local:   split[i],
		})
	}
	bags := []*workload.Bag{{ID: 0, Runs: tasks, RunTime: runTime}}
	off, err := grid.NewRouted(members, nil, bags, grid.NewCentralizedRouter(grid.RouterOptions{}),
		grid.RoutedOptions{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	off.FeedOnIdle()
	if err := off.Run(); err != nil {
		t.Fatal(err)
	}
	if got := off.Stats().TasksCompleted; got != tasks {
		t.Fatalf("offline completed %d of %d tasks", got, tasks)
	}

	// Live broker over the same stream.
	topo := fleetTopo(k, m, "centralized")
	topo.Defaults.Policy = policy
	b, err := NewBroker(topo)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Stop()
	done := recordCompletions(t, b)
	if err := b.SubmitBatch(jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubmitCampaign(CampaignSpec{Name: "campaign", Tasks: tasks, RunTime: runTime}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := b.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if st.Fleet.Completed != n {
		t.Fatalf("fleet completed %d of %d local jobs", st.Fleet.Completed, n)
	}
	if st.Fleet.BestEffort.Completed != tasks {
		t.Fatalf("fleet completed %d of %d campaign tasks", st.Fleet.BestEffort.Completed, tasks)
	}
	c, ok := b.CampaignStatus(0)
	if !ok || !c.Done || c.Completed != tasks {
		t.Fatalf("campaign status %+v", c)
	}
	sum := 0
	for _, pc := range c.PerCluster {
		sum += pc
	}
	if sum != tasks {
		t.Fatalf("per-cluster campaign counts sum to %d", sum)
	}

	// Per-cluster local completions: identical job sets with identical
	// start/end times — best-effort interference never shifts local work.
	for i := 0; i < k; i++ {
		want := map[int]completionKey{}
		for _, cpl := range off.Sim(i).Completions() {
			want[cpl.Job.ID] = completionKey{start: cpl.Start, end: cpl.End, procs: cpl.Procs}
		}
		got := done[i]
		if len(got) != len(want) {
			t.Fatalf("cluster %d: %d completions, offline has %d", i, len(got), len(want))
		}
		for _, cpl := range got {
			w, ok := want[cpl.Job.ID]
			if !ok {
				t.Fatalf("cluster %d ran job %d, offline did not", i, cpl.Job.ID)
			}
			if w.start != cpl.Start || w.end != cpl.End || w.procs != cpl.Procs {
				t.Fatalf("cluster %d job %d: (%.6g,%.6g,%d) vs offline (%.6g,%.6g,%d)",
					i, cpl.Job.ID, cpl.Start, cpl.End, cpl.Procs, w.start, w.end, w.procs)
			}
		}
	}
}

// TestBrokerAllGridPoliciesComplete drives every catalogued grid policy
// through the same replay + campaign and requires full completion —
// the race-clean acceptance sweep (run with -race in CI).
func TestBrokerAllGridPoliciesComplete(t *testing.T) {
	const k, m, n, tasks = 4, 16, 80, 150
	jobs := testJobs(n, m, 9)
	for _, entry := range registry.Grids() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			topo := fleetTopo(k, m, entry.Name)
			topo.Seed = 3
			b, err := NewBroker(topo)
			if err != nil {
				t.Fatal(err)
			}
			b.Start()
			defer b.Stop()
			if err := b.SubmitBatch(jobs); err != nil {
				t.Fatal(err)
			}
			if _, err := b.SubmitCampaign(CampaignSpec{Tasks: tasks, RunTime: 3}); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			st, err := b.Drain(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Fleet.Completed != n {
				t.Fatalf("completed %d of %d local jobs", st.Fleet.Completed, n)
			}
			if st.Fleet.BestEffort.Completed != tasks {
				t.Fatalf("completed %d of %d campaign tasks", st.Fleet.BestEffort.Completed, tasks)
			}
			perEngine := 0
			for _, cs := range st.Clusters {
				perEngine += cs.Stats.Completed
			}
			if perEngine != n {
				t.Fatalf("per-cluster completions sum to %d", perEngine)
			}
		})
	}
}

// TestBrokerReplayReproducible runs the same batch twice through fresh
// brokers for every grid policy: routing must not depend on wall-clock
// state, so the per-cluster job sets must be identical.
func TestBrokerReplayReproducible(t *testing.T) {
	const k, m, n = 4, 16, 60
	jobs := testJobs(n, m, 13)
	for _, entry := range registry.Grids() {
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			counts := make([][]int, 2)
			for run := 0; run < 2; run++ {
				topo := fleetTopo(k, m, entry.Name)
				topo.Seed = 21
				b, err := NewBroker(topo)
				if err != nil {
					t.Fatal(err)
				}
				b.Start()
				if err := b.SubmitBatch(jobs); err != nil {
					b.Stop()
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				st, err := b.Drain(ctx)
				cancel()
				if err != nil {
					b.Stop()
					t.Fatal(err)
				}
				for _, cs := range st.Clusters {
					counts[run] = append(counts[run], cs.Stats.Completed)
				}
				b.Stop()
			}
			for i := range counts[0] {
				if counts[0][i] != counts[1][i] {
					t.Fatalf("replay diverged: run0 %v vs run1 %v", counts[0], counts[1])
				}
			}
		})
	}
}

// TestBrokerPacedKillsAndRedistributes exercises the live CiGri contract
// under a shared paced clock: campaign tasks saturate the fleet, local
// jobs arrive in wall time and evict them, and every killed task drifts
// back through the central stock until the campaign completes.
func TestBrokerPacedKillsAndRedistributes(t *testing.T) {
	const k, m = 4, 4
	topo := fleetTopo(k, m, "centralized")
	topo.Dilation = 200 // 200 virtual seconds per wall second
	topo.TickMS = 5
	b, err := NewBroker(topo)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Stop()

	// Fill all 16 processors with long best-effort tasks first.
	camp, err := b.SubmitCampaign(CampaignSpec{Tasks: 30, RunTime: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Give the fan-out a head start, then flood with full-width local
	// jobs released across the first 100 virtual seconds.
	time.Sleep(100 * time.Millisecond)
	var jobs []*workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, &workload.Job{
			ID: i, Kind: workload.Rigid, Weight: 1, DueDate: -1,
			Release: float64(i * 8), SeqTime: 30 * float64(m),
			MinProcs: m, MaxProcs: m, Model: workload.Linear{},
		})
	}
	if err := b.SubmitBatch(jobs); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := b.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Completed != len(jobs) {
		t.Fatalf("completed %d of %d local jobs", st.Fleet.Completed, len(jobs))
	}
	if st.Fleet.BestEffort.Completed != camp.Tasks {
		t.Fatalf("completed %d of %d campaign tasks", st.Fleet.BestEffort.Completed, camp.Tasks)
	}
	if st.Fleet.BestEffort.Killed == 0 {
		t.Fatal("no kills despite full-width local jobs over a saturated fleet")
	}
	c, _ := b.CampaignStatus(camp.ID)
	if !c.Done || c.Killed == 0 {
		t.Fatalf("campaign %+v: want done with kills recorded", c)
	}
}

// TestBrokerRoutingControls covers explicit cluster pins and rejection
// paths.
func TestBrokerRoutingControls(t *testing.T) {
	topo := Topology{
		GridPolicy: "least-loaded",
		Clusters: []ClusterSpec{
			{Name: "small", M: 4},
			{Name: "big", M: 32},
		},
	}
	b, err := NewBroker(topo)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Stop()

	// A 16-proc job can only go to "big".
	st, err := b.Submit(serviceSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster != "big" {
		t.Fatalf("16-proc job routed to %q", st.Cluster)
	}
	// Pinning to a too-small cluster is rejected.
	sp := serviceSpec(16)
	sp.Cluster = "small"
	if _, err := b.Submit(sp); err == nil {
		t.Fatal("oversized pinned job accepted")
	}
	// Pinning to an unknown cluster is rejected.
	sp = serviceSpec(1)
	sp.Cluster = "nope"
	if _, err := b.Submit(sp); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	// A job too wide for every cluster is rejected with ErrNoCluster.
	if _, err := b.Submit(serviceSpec(64)); err == nil {
		t.Fatal("fleet-oversized job accepted")
	}
	// Pinned placement works.
	sp = serviceSpec(2)
	sp.Cluster = "small"
	st, err = b.Submit(sp)
	if err != nil || st.Cluster != "small" {
		t.Fatalf("pin to small: %v, %+v", err, st)
	}
	// Status lookup resolves through the home map.
	got, ok, err := b.Job(st.ID)
	if err != nil || !ok || got.Cluster != "small" {
		t.Fatalf("job lookup: %v %v %+v", ok, err, got)
	}
	if _, ok, _ := b.Job(9999); ok {
		t.Fatal("unknown job resolved")
	}
}

// TestBrokerDecentralizedMigrates checks the live exchange protocol:
// all load lands on one cluster, the broker must move queued jobs.
func TestBrokerDecentralizedMigrates(t *testing.T) {
	const k, m = 3, 8
	topo := fleetTopo(k, m, "decentralized")
	topo.Dilation = 500
	topo.TickMS = 2
	topo.MaxMove = 8
	topo.Threshold = 1.2
	b, err := NewBroker(topo)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Stop()
	// Pin a pile of work onto cluster 0 so its queue towers over the rest.
	for i := 0; i < 24; i++ {
		sp := serviceSpec(4)
		sp.SeqTime = 400
		sp.Cluster = "c0"
		if _, err := b.Submit(sp); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := b.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Fleet.Migrations > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no migrations despite extreme skew")
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := b.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Completed != 24 {
		t.Fatalf("completed %d of 24 after migration", st.Fleet.Completed)
	}
	moved := 0
	for _, cs := range st.Clusters[1:] {
		moved += cs.Stats.Completed
	}
	if moved == 0 {
		t.Fatal("migrated jobs completed nowhere else")
	}
	// A migration moves the job's submission with it: each cluster
	// counts as submitted exactly what it completed.
	for _, cs := range st.Clusters {
		if c := cs.Stats; c.Submitted != c.Completed || c.Waiting != 0 || c.Running != 0 {
			t.Fatalf("cluster %s after drain: %+v", cs.Name, c)
		}
	}
}

func serviceSpec(minProcs int) JobSpec {
	return JobSpec{SeqTime: 10 * float64(minProcs), MinProcs: minProcs}
}
