package grid

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

// newCiGri runs the §5.2 centralized design on Routed: the members'
// local jobs, the campaigns, the centralized router and the idle feed.
func newCiGri(members []Member, bags []*workload.Bag, kill cluster.KillPolicy) (*Routed, error) {
	r, err := NewRouted(members, nil, bags, NewCentralizedRouter(RouterOptions{}), RoutedOptions{}, kill)
	if err != nil {
		return nil, err
	}
	r.FeedOnIdle()
	return r, nil
}

// newExchange runs the members' local jobs on Routed under one of T7's
// exchangers, a round every period.
func newExchange(members []Member, exchange func(RouterOptions) Router, opt RouterOptions, period float64) (*Routed, error) {
	return NewRouted(members, nil, nil, exchange(opt), RoutedOptions{ExchangePeriod: period}, cluster.KillNewest)
}

func rjob(id int, dur float64, procs int, release float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1, Release: release,
		SeqTime: dur * float64(procs), MinProcs: procs, MaxProcs: procs,
		Model: workload.Linear{},
	}
}

func smallMembers(jobsPer [][]*workload.Job) []Member {
	ms := make([]Member, len(jobsPer))
	for i := range ms {
		ms[i] = Member{
			Cluster: &platform.Cluster{
				Name: string(rune('a' + i)), Nodes: 4, ProcsPerNode: 1, Speed: 1,
			},
			Policy: cluster.EASYPolicy{},
			Local:  jobsPer[i],
		}
	}
	return ms
}

func TestCentralizedCompletesAllGridTasks(t *testing.T) {
	members := smallMembers([][]*workload.Job{
		{rjob(1, 10, 2, 0)},
		{rjob(2, 5, 4, 0)},
	})
	bags := []*workload.Bag{
		{ID: 0, Runs: 30, RunTime: 2},
		{ID: 1, Runs: 10, RunTime: 1},
	}
	g, err := newCiGri(members, bags, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.TasksCompleted != 40 {
		t.Fatalf("completed %d grid tasks, want 40", st.TasksCompleted)
	}
	if st.DoneWork != 30*2+10*1 {
		t.Fatalf("done work %v", st.DoneWork)
	}
	if st.GridMakespan <= 0 {
		t.Fatal("grid makespan not recorded")
	}
}

func TestCentralizedLocalJobsUndisturbed(t *testing.T) {
	// The §5.2 fairness contract: local completion times with the grid
	// active must equal those of an isolated run.
	local := [][]*workload.Job{
		{rjob(1, 10, 3, 0), rjob(2, 4, 2, 1), rjob(3, 6, 4, 2)},
		{rjob(4, 8, 2, 0), rjob(5, 3, 1, 5)},
	}
	isolated, err := RunIsolated(smallMembers(local), cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	bags := []*workload.Bag{{ID: 0, Runs: 200, RunTime: 3}}
	g, err := newCiGri(smallMembers(local), bags, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	withGrid := g.AllCompletions()
	isoEnd := map[int]float64{}
	for _, c := range isolated {
		isoEnd[c.Job.ID] = c.End
	}
	for _, c := range withGrid {
		if math.Abs(isoEnd[c.Job.ID]-c.End) > 1e-9 {
			t.Fatalf("job %d: end %v with grid vs %v isolated", c.Job.ID, c.End, isoEnd[c.Job.ID])
		}
	}
	// With a 200-task bag and busy clusters, kills must have occurred.
	if g.Stats().TasksKilled == 0 {
		t.Fatal("no kill events despite local jobs claiming processors")
	}
	if g.Stats().TasksCompleted != 200 {
		t.Fatalf("completed %d, want 200 (kills must be resubmitted)", g.Stats().TasksCompleted)
	}
}

func TestCentralizedWastedWorkAccounting(t *testing.T) {
	local := [][]*workload.Job{{rjob(1, 10, 4, 5)}}
	bags := []*workload.Bag{{ID: 0, Runs: 4, RunTime: 100}}
	g, err := newCiGri(smallMembers(local[:1]), bags, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	// 4 tasks start at 0, all killed at t=5 → 20 wasted; later they rerun.
	if st.TasksKilled < 4 {
		t.Fatalf("kills %d, want >= 4", st.TasksKilled)
	}
	if st.WastedWork <= 0 {
		t.Fatal("no wasted work recorded")
	}
	if st.TasksCompleted != 4 {
		t.Fatalf("completed %d, want 4", st.TasksCompleted)
	}
}

func TestCentralizedOnCIMENT(t *testing.T) {
	// Smoke-scale CIMENT run: community jobs + one campaign.
	grid := platform.CIMENT()
	rng := stats.NewRNG(7)
	var members []Member
	id := 0
	for _, cl := range grid.Clusters {
		var jobs []*workload.Job
		clock := 0.0
		for k := 0; k < 10; k++ {
			clock += rng.Exp(0.01)
			jobs = append(jobs, rjob(id, rng.Range(60, 600), rng.IntRange(1, 8), clock))
			id++
		}
		members = append(members, Member{Cluster: cl, Policy: cluster.EASYPolicy{}, Local: jobs})
	}
	bags := []*workload.Bag{{ID: 0, Runs: 500, RunTime: 30}}
	g, err := newCiGri(members, bags, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.Stats().TasksCompleted != 500 {
		t.Fatalf("completed %d of 500", g.Stats().TasksCompleted)
	}
}

func TestDecentralizedBalancesLoad(t *testing.T) {
	// All 60 jobs land on cluster 0 of 3: exchange must move some and
	// improve mean flow versus isolation.
	rng := stats.NewRNG(3)
	var jobs []*workload.Job
	clock := 0.0
	for i := 0; i < 60; i++ {
		clock += rng.Exp(0.5)
		jobs = append(jobs, rjob(i, rng.Range(5, 30), rng.IntRange(1, 3), clock))
	}
	split := SplitJobsSkewed(jobs, 3, 1.0)
	isolated, err := RunIsolated(smallMembers(split), cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newExchange(smallMembers(split), NewPushExchange, RouterOptions{Threshold: 1.2, MaxMove: 8}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Migrations == 0 {
		t.Fatal("no migrations under extreme skew")
	}
	exchanged := d.AllCompletions()
	if len(exchanged) != 60 {
		t.Fatalf("%d completions, want 60", len(exchanged))
	}
	flowIso := metrics.NewReport(isolated, 0).MeanFlow
	flowEx := metrics.NewReport(exchanged, 0).MeanFlow
	if flowEx >= flowIso {
		t.Fatalf("exchange did not improve mean flow: %v vs isolated %v", flowEx, flowIso)
	}
}

func TestDecentralizedNoMigrationWhenBalanced(t *testing.T) {
	rng := stats.NewRNG(5)
	var jobs []*workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, rjob(i, rng.Range(1, 5), 1, 0))
	}
	split := splitJobsRoundRobin(jobs, 3)
	d, err := newExchange(smallMembers(split), NewPushExchange, RouterOptions{Threshold: 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Migrations != 0 {
		t.Fatalf("%d migrations on a balanced load", d.Stats().Migrations)
	}
}

func TestDecentralizedWideJobNotMovedToSmallCluster(t *testing.T) {
	// Cluster 0 (8 procs) overloaded with 8-proc jobs; cluster 1 has only
	// 4 procs: they must not migrate there.
	members := []Member{
		{
			Cluster: &platform.Cluster{Name: "big", Nodes: 8, ProcsPerNode: 1, Speed: 1},
			Policy:  cluster.EASYPolicy{},
		},
		{
			Cluster: &platform.Cluster{Name: "small", Nodes: 4, ProcsPerNode: 1, Speed: 1},
			Policy:  cluster.EASYPolicy{},
		},
	}
	for i := 0; i < 6; i++ {
		members[0].Local = append(members[0].Local, rjob(i, 10, 8, 0))
	}
	d, err := newExchange(members, NewPushExchange, RouterOptions{Threshold: 1.1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(d.Sim(1).Completions()); got != 0 {
		t.Fatalf("small cluster ran %d oversized jobs", got)
	}
	if got := len(d.Sim(0).Completions()); got != 6 {
		t.Fatalf("big cluster completed %d of 6", got)
	}
}

// splitJobsRoundRobin deals a job stream across k members.
func splitJobsRoundRobin(jobs []*workload.Job, k int) [][]*workload.Job {
	out := make([][]*workload.Job, k)
	for i, j := range jobs {
		out[i%k] = append(out[i%k], j)
	}
	return out
}

func TestSplitters(t *testing.T) {
	jobs := make([]*workload.Job, 10)
	for i := range jobs {
		jobs[i] = rjob(i, 1, 1, 0)
	}
	sk := SplitJobsSkewed(jobs, 3, 0.8)
	if len(sk[0]) != 8 {
		t.Fatalf("skewed split gave member 0 %d jobs, want 8", len(sk[0]))
	}
	one := SplitJobsSkewed(jobs, 1, 0.5)
	if len(one[0]) != 10 {
		t.Fatal("k=1 skew must keep all jobs")
	}
}

func TestEmptyMembersRejected(t *testing.T) {
	if _, err := newCiGri(nil, nil, cluster.KillNewest); err == nil {
		t.Fatal("empty centralized accepted")
	}
	if _, err := newExchange(nil, NewPushExchange, RouterOptions{}, 0); err == nil {
		t.Fatal("empty decentralized accepted")
	}
}

func TestPullProtocolStealsWork(t *testing.T) {
	rng := stats.NewRNG(9)
	var jobs []*workload.Job
	clock := 0.0
	for i := 0; i < 50; i++ {
		clock += rng.Exp(0.5)
		jobs = append(jobs, rjob(i, rng.Range(5, 30), rng.IntRange(1, 3), clock))
	}
	split := SplitJobsSkewed(jobs, 3, 1.0)
	iso, err := RunIsolated(smallMembers(split), cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newExchange(smallMembers(split),
		NewPullExchange, RouterOptions{MaxMove: 4}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Migrations == 0 {
		t.Fatal("pull protocol stole nothing under extreme skew")
	}
	ex := d.AllCompletions()
	if len(ex) != 50 {
		t.Fatalf("%d completions, want 50", len(ex))
	}
	if flowEx, flowIso := metrics.NewReport(ex, 0).MeanFlow, metrics.NewReport(iso, 0).MeanFlow; flowEx >= flowIso {
		t.Fatalf("pull (%v) did not improve on isolated (%v)", flowEx, flowIso)
	}
}

func TestPullDoesNotStealWhenBusy(t *testing.T) {
	// Identical full-width jobs dealt evenly: all queues drain in
	// lockstep, so no cluster is ever idle while another has queued
	// work — a pull round must never migrate.
	var jobs []*workload.Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, rjob(i, 20, 4, 0)) // all full-width, same length
	}
	split := splitJobsRoundRobin(jobs, 3)
	d, err := newExchange(smallMembers(split), NewPullExchange, RouterOptions{MaxMove: 4}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Migrations != 0 {
		t.Fatalf("pull migrated %d jobs while every cluster was busy", d.Stats().Migrations)
	}
}

func TestCentralizedApproachesSteadyStateBound(t *testing.T) {
	// §5.2's cross-model claim: multi-parametric jobs are DLT-like and
	// "the theory of asymptotic behavior shows that optimal solutions
	// can be computed in polynomial time". With no local jobs and free
	// communication, the CiGri grid should process a large campaign at
	// close to the aggregate-capacity rate Σ procs·speed — the
	// steady-state throughput bound with zero link cost.
	g := platform.CIMENT()
	var members []Member
	for _, cl := range g.Clusters {
		members = append(members, Member{Cluster: cl, Policy: cluster.EASYPolicy{}})
	}
	const runs, runTime = 20000, 50.0
	bags := []*workload.Bag{{ID: 0, Runs: runs, RunTime: runTime}}
	gr, err := newCiGri(members, bags, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Run(); err != nil {
		t.Fatal(err)
	}
	var capacity float64
	for _, cl := range g.Clusters {
		capacity += float64(cl.Procs()) * cl.Speed
	}
	ideal := float64(runs) * runTime / capacity
	got := gr.Stats().GridMakespan
	if got < ideal*(1-1e-9) {
		t.Fatalf("grid makespan %v beat the capacity bound %v", got, ideal)
	}
	// Startup + tail slack only: within 15% of the asymptotic optimum.
	if got > ideal*1.15 {
		t.Fatalf("grid makespan %v too far from steady-state bound %v", got, ideal)
	}
	if gr.Stats().TasksCompleted != runs {
		t.Fatalf("completed %d of %d", gr.Stats().TasksCompleted, runs)
	}
}
