package experiments

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/scenario"
)

// TestCatalogComplete: every historical experiment id is in the
// scenario catalog with a registered kind, in the legacy CLI order
// (figures, tables, ablations).
func TestCatalogComplete(t *testing.T) {
	want := []string{
		"fig2",
		"mrt", "batch", "smart", "bicriteria", "dlt", "cigri", "decentralized",
		"mixed", "reservations", "malleable", "treedlt", "criteria", "heterogrid",
		"policies", "gridpolicies", "replay", "churn", "faulttwin",
		"ablation-allotment", "ablation-doubling-base", "ablation-shelf-fill",
		"ablation-chunk", "ablation-kill-policy", "ablation-compaction",
	}
	var got []string
	for _, s := range scenario.Catalog() {
		got = append(got, s.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("catalog order:\n got %v\nwant %v", got, want)
	}
	kinds := map[string]bool{}
	for _, k := range scenario.Kinds() {
		kinds[k] = true
	}
	for _, s := range scenario.Catalog() {
		if !kinds[s.Kind] {
			t.Fatalf("spec %q uses unregistered kind %q", s.ID, s.Kind)
		}
		if s.Desc == "" {
			t.Fatalf("spec %q has no description (the usage text needs one)", s.ID)
		}
	}
	// The generic kinds exist even though no built-in uses "offline".
	for _, k := range []string{"offline", "online", "grid"} {
		if !kinds[k] {
			t.Fatalf("generic kind %q not registered", k)
		}
	}
}

// TestSpecJSONRoundTripRuns: for every built-in table spec, encode →
// decode → run must match the Go-built spec cell-for-cell (the codec
// and the params coercion cannot change results).
func TestSpecJSONRoundTripRuns(t *testing.T) {
	opt := scenario.RunOptions{Seed: 42, Scale: scenario.Scale{JobFactor: 20}}
	for _, spec := range scenario.Catalog() {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			t.Parallel()
			data, err := spec.MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := scenario.Decode(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			res1, err := scenario.Run(spec, opt)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := scenario.Run(decoded, opt)
			if err != nil {
				t.Fatal(err)
			}
			var b1, b2 bytes.Buffer
			if err := res1.Emit(&b1, false); err != nil {
				t.Fatal(err)
			}
			if err := res2.Emit(&b2, false); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
				t.Fatalf("round-tripped spec diverged:\n--- go-built\n%s\n--- json\n%s", b1.String(), b2.String())
			}
			if res1.Table != nil && res2.Table != nil {
				if !reflect.DeepEqual(res1.Table.Rows, res2.Table.Rows) {
					t.Fatal("cell-level mismatch between go-built and round-tripped spec")
				}
			}
		})
	}
}

// TestGenericOfflineKind: the JSON-composable path — a spec written as
// data sweeps chosen policies over a chosen workload with chosen
// metric columns.
func TestGenericOfflineKind(t *testing.T) {
	spec := &scenario.Spec{ID: "custom-offline", Kind: "offline",
		Workload: &scenario.Workload{N: 60, M: 32, Weighted: true},
		Policies: []string{"mrt", "smart", "ffdh"},
		Metrics:  []string{"cmax_ratio", "swc_ratio", "util"},
	}
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: 5, Scale: scenario.Scale{JobFactor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tb := res.Table
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per policy)", len(tb.Rows))
	}
	wantHeaders := []string{"policy", "Cmax ratio", "ΣwC ratio", "util %"}
	if !reflect.DeepEqual(tb.Headers, wantHeaders) {
		t.Fatalf("headers = %v", tb.Headers)
	}
	for i, name := range []string{"mrt", "smart", "ffdh"} {
		if tb.Rows[i][0] != name {
			t.Fatalf("row %d policy = %q, want %q", i, tb.Rows[i][0], name)
		}
	}
	// Unknown metric and offline-incapable policy are rejected.
	bad := &scenario.Spec{ID: "x", Kind: "offline", Metrics: []string{"nope"}}
	if _, err := scenario.Run(bad, scenario.RunOptions{Seed: 1}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	bad2 := &scenario.Spec{ID: "x", Kind: "offline", Policies: []string{"easy"}}
	if _, err := scenario.Run(bad2, scenario.RunOptions{Seed: 1}); err == nil {
		t.Fatal("online-only policy accepted by offline kind")
	}
}

// TestGenericOnlineKind: policy subset + custom rate axis.
func TestGenericOnlineKind(t *testing.T) {
	spec := &scenario.Spec{ID: "custom-online", Kind: "online",
		Workload: &scenario.Workload{N: 80, M: 32, RigidFraction: 1},
		Policies: []string{"fcfs", "easy"},
		Params:   map[string]any{"rates": []float64{0.1}},
	}
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (1 rate × 2 policies)", len(res.Table.Rows))
	}
	for i, name := range []string{"fcfs", "easy"} {
		if res.Table.Rows[i][2] != name {
			t.Fatalf("row %d policy = %q", i, res.Table.Rows[i][2])
		}
	}
	bad := &scenario.Spec{ID: "x", Kind: "online", Policies: []string{"mrt"}}
	if _, err := scenario.Run(bad, scenario.RunOptions{Seed: 1}); err == nil {
		t.Fatal("offline-only policy accepted by online kind")
	}
}

// TestGenericGridKind: custom fleet + single routing policy.
func TestGenericGridKind(t *testing.T) {
	spec := &scenario.Spec{ID: "custom-grid", Kind: "grid",
		Workload: &scenario.Workload{N: 40, M: 16, ArrivalRate: 0.2, RigidFraction: 1, MaxProcsCap: 16},
		Platform: &scenario.Platform{Clusters: []scenario.Cluster{
			{Name: "a", M: 32}, {Name: "b", M: 16, Speed: 2},
		}},
		Grid: &scenario.Grid{Policy: "centralized", CampaignTasks: 200, CampaignRunTime: 10},
	}
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 1 || res.Table.Rows[0][0] != "centralized" {
		t.Fatalf("rows = %v", res.Table.Rows)
	}
	// Empty Grid.Policy sweeps the whole catalog.
	sweep := scenario.New("sweep-grid", "grid",
		scenario.WithWorkload(scenario.Workload{N: 30, M: 16, ArrivalRate: 0.2, RigidFraction: 1, MaxProcsCap: 16}),
		scenario.WithGrid(scenario.Grid{CampaignTasks: 50, CampaignRunTime: 10}))
	res2, err := scenario.Run(sweep, scenario.RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Table.Rows) != len(registry.Grids()) {
		t.Fatalf("sweep rows = %d, want %d", len(res2.Table.Rows), len(registry.Grids()))
	}
	bad := &scenario.Spec{ID: "x", Kind: "grid", Policies: []string{"easy", "fcfs"}}
	if _, err := scenario.Run(bad, scenario.RunOptions{Seed: 1}); err == nil {
		t.Fatal("multiple queue policies accepted by grid kind")
	}
}

// TestSpecFileLoading: a scenario written to disk loads and runs (the
// `gridctl local file.json` path).
func TestSpecFileLoading(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.json"
	spec := &scenario.Spec{ID: "file-spec", Kind: "offline",
		Workload: &scenario.Workload{N: 40, M: 16}, Policies: []string{"ffdh"}}
	data, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, data); err != nil {
		t.Fatal(err)
	}
	got, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "file-spec" || got.Kind != "offline" {
		t.Fatalf("loaded %+v", got)
	}
	if _, err := scenario.Run(got, scenario.RunOptions{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Load(dir + "/missing.json"); err == nil {
		t.Fatal("missing file loaded")
	}
	if err := writeFile(dir+"/bad.json", []byte(`{"id":"x","kind":"k","bogus":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Load(dir + "/bad.json"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// TestExampleSpecsRun: every worked spec under examples/scenario runs
// to completion at quick scale, as `gridctl local -quick file.json` runs
// it, and the two with a fault plan on an online or grid kind print the
// fault columns.
func TestExampleSpecsRun(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenario/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	faulty := map[string]bool{"fleet-outage": true, "online-churn": true}
	for _, path := range paths {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(spec.ID, func(t *testing.T) {
			req := scenario.HTTPRequest{Quick: true}
			res, err := scenario.Run(spec, req.Options(spec))
			if err != nil {
				t.Fatal(err)
			}
			if res.Table == nil || len(res.Table.Rows) == 0 {
				t.Fatal("no rows")
			}
			if !faulty[spec.ID] {
				return
			}
			delete(faulty, spec.ID)
			for _, col := range []string{"crashes", "requeues"} {
				if !slices.Contains(res.Table.Headers, col) {
					t.Errorf("no %q column in %v", col, res.Table.Headers)
				}
			}
		})
	}
	if len(faulty) > 0 {
		t.Fatalf("example specs missing: %v", faulty)
	}
}

// TestGenericKindGenerators: the generic kinds draw their stream from
// every generator they name — sequential and mixed through the batch
// kinds, communities streamed through replay — and a batch kind refuses
// communities; the offline kind's absolute columns are its ratio columns
// times one shared lower bound.
func TestGenericKindGenerators(t *testing.T) {
	w := func(gen string) *scenario.Workload {
		return &scenario.Workload{Generator: gen, N: 40, M: 16, RigidFraction: 1}
	}
	for _, c := range []struct {
		spec    *scenario.Spec
		rows    int
		wantErr string
	}{
		{spec: &scenario.Spec{ID: "seq", Kind: "offline", Workload: w("sequential"),
			Policies: []string{"mrt", "ffdh"},
			Metrics:  []string{"cmax", "cmax_ratio", "swc", "swc_ratio", "max_flow", "mean_stretch"}}, rows: 2},
		{spec: &scenario.Spec{ID: "mixed", Kind: "online", Workload: w("mixed"),
			Policies: []string{"fcfs", "easy"}, Params: map[string]any{"rates": []float64{0.2}}}, rows: 2},
		{spec: &scenario.Spec{ID: "communities", Kind: "replay", Workload: w("communities"),
			Policies: []string{"easy"}}, rows: 1},
		{spec: &scenario.Spec{ID: "x", Kind: "offline", Workload: w("communities")},
			wantErr: "not usable here"},
	} {
		res, err := scenario.Run(c.spec, scenario.RunOptions{Seed: 3})
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s/%s: error %v, want one containing %q", c.spec.Kind, c.spec.Workload.Generator, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s/%s: %v", c.spec.Kind, c.spec.Workload.Generator, err)
		}
		if len(res.Cells) != c.rows {
			t.Fatalf("%s/%s: %d rows, want %d", c.spec.Kind, c.spec.Workload.Generator, len(res.Cells), c.rows)
		}
		if c.spec.Kind != "offline" {
			continue
		}
		var cmaxLB, swcLB float64
		for _, cell := range res.Cells {
			v := cell.Values
			cmax, cmaxRatio, swc, swcRatio := v[1].(float64), v[2].(float64), v[3].(float64), v[4].(float64)
			if cmaxRatio < 1 || swcRatio < 1 || v[5].(float64) <= 0 || v[6].(float64) <= 0 {
				t.Fatalf("%s row %v: a ratio below 1 or a non-positive flow or stretch", c.spec.ID, v)
			}
			if cmaxLB == 0 {
				cmaxLB, swcLB = cmax/cmaxRatio, swc/swcRatio
			}
			if math.Abs(cmax/cmaxRatio-cmaxLB) > 1e-9*cmaxLB || math.Abs(swc/swcRatio-swcLB) > 1e-9*swcLB {
				t.Fatalf("%s row %v: bounds %v and %v, want %v and %v", c.spec.ID, v, cmax/cmaxRatio, swc/swcRatio, cmaxLB, swcLB)
			}
		}
	}
}

// TestKindsRejectBadParams: a typo'd or mistyped param in a scenario
// file errors instead of silently running the default sweep.
func TestKindsRejectBadParams(t *testing.T) {
	opt := scenario.RunOptions{Seed: 1, Scale: scenario.Scale{JobFactor: 20}}
	typo := scenario.New("typo", "mrt", scenario.WithParam("mss", []int{16}))
	if _, err := scenario.Run(typo, opt); err == nil || !strings.Contains(err.Error(), "unknown param") {
		t.Fatalf("typo'd param not rejected: %v", err)
	}
	mistyped := scenario.New("mistyped", "mrt", scenario.WithParam("eps", "0.005"))
	if _, err := scenario.Run(mistyped, opt); err == nil || !strings.Contains(err.Error(), "must be a") {
		t.Fatalf("mistyped param not rejected: %v", err)
	}
}

// TestGridKindSentinels: arrival_rate -1 forces an offline stream and
// campaign_tasks -1 disables the campaign (zero would mean "default").
func TestGridKindSentinels(t *testing.T) {
	spec := scenario.New("no-campaign", "grid",
		scenario.WithWorkload(scenario.Workload{N: 30, M: 16, ArrivalRate: -1, RigidFraction: 1, MaxProcsCap: 16}),
		scenario.WithGrid(scenario.Grid{Policy: "centralized", CampaignTasks: -1}))
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Table.Rows[0]
	// "grid done" (column 5) must be 0: no campaign ran.
	if row[5] != "0" {
		t.Fatalf("campaign not disabled: row %v", row)
	}
}

// TestOnlineKindWorkloadRate: workload.arrival_rate pins a single rate
// for the online kind; combining it with params.rates errors.
func TestOnlineKindWorkloadRate(t *testing.T) {
	spec := &scenario.Spec{ID: "single-rate", Kind: "online",
		Workload: &scenario.Workload{N: 60, M: 32, ArrivalRate: 0.3, RigidFraction: 1},
		Policies: []string{"fcfs"}}
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 1 || res.Table.Rows[0][0] != "0.3" {
		t.Fatalf("rows = %v, want one row at rate 0.3", res.Table.Rows)
	}
	both := scenario.New("both", "online",
		scenario.WithWorkload(scenario.Workload{ArrivalRate: 0.3}),
		scenario.WithParam("rates", []float64{0.1}))
	if _, err := scenario.Run(both, scenario.RunOptions{Seed: 5}); err == nil {
		t.Fatal("arrival_rate + rates accepted together")
	}
}
