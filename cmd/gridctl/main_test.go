package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/client"
)

func readGolden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func local(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := localCmd(&out, args); err != nil {
		t.Fatalf("local %v: %v", args, err)
	}
	return out.String()
}

// TestLocalMatchesGoldens: local -quick prints the committed golden of
// each scenario byte for byte, sequentially and on the cell pool.
func TestLocalMatchesGoldens(t *testing.T) {
	for _, id := range []string{"fig2", "mrt", "replay", "churn"} {
		want := readGolden(t, id)
		if got := local(t, "-quick", id); got != want {
			t.Errorf("local -quick %s differs from its golden:\n%s", id, got)
		}
		if got := local(t, "-quick", "-workers", "4", id); got != want {
			t.Errorf("local -quick -workers 4 %s differs from its golden:\n%s", id, got)
		}
	}
}

// TestSimGanttMatchesGoldens: sim -gantt draws the committed chart of
// an offline, an online-batch and a backfilling policy byte for byte
// (testdata/gantt/).
func TestSimGanttMatchesGoldens(t *testing.T) {
	for _, policy := range []string{"mrt", "smart", "conservative"} {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "gantt", policy+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := simCmd(&got, []string{"-policy", policy, "-n", "30", "-m", "16", "-seed", "7", "-gantt"}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("sim -gantt -policy %s differs from its golden:\n%s", policy, got.String())
		}
	}
}

// TestSimModes: sim runs a dual-capability policy through the online
// simulator with -online and refuses -online for an offline-only one,
// and -swf replays an archive of a generated rigid stream to the report
// of that stream (all but the first line, which prints the rate flag).
func TestSimModes(t *testing.T) {
	const n, m, seed, rate = 30, 16, 7, 0.2
	gen := []string{"-n", "30", "-m", "16", "-seed", "7", "-rate", "0.2", "-rigidfrac", "1"}
	jobs := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: seed, ArrivalRate: rate, RigidFraction: 1})
	archive := filepath.Join(t.TempDir(), "stream.swf")
	var swf bytes.Buffer
	sw := trace.NewSWFWriter(&swf)
	for _, j := range jobs {
		if err := sw.Write(trace.SWFRecord{ID: j.ID, Submit: j.Release, Runtime: j.TimeOn(j.MinProcs), Procs: j.MinProcs, Weight: j.Weight}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(archive, swf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sim := func(args ...string) (string, error) {
		var out bytes.Buffer
		err := simCmd(&out, args)
		return out.String(), err
	}
	generated, err := sim(append([]string{"-policy", "easy"}, gen...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		args    []string
		first   string // the report's first line
		sameAs  string // the rest of the report, when set
		wantErr string
	}{
		{name: "online", args: append([]string{"-policy", "conservative", "-online"}, gen...),
			first: "policy=conservative n=30 m=16 rate=0.2"},
		{name: "online offline-only", args: []string{"-policy", "mrt", "-online"},
			wantErr: `policy "mrt" is offline-only; -online does not apply`},
		{name: "swf", args: []string{"-policy", "easy", "-m", "16", "-swf", archive},
			first: "policy=easy n=30 m=16 rate=0", sameAs: generated},
		{name: "swf missing", args: []string{"-swf", archive + ".missing"},
			wantErr: "no such file"},
	} {
		got, err := sim(c.args...)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		first, rest, _ := strings.Cut(got, "\n")
		if first != c.first || !strings.Contains(rest, "x LB") {
			t.Errorf("%s printed\n%s", c.name, got)
		}
		if _, wantRest, _ := strings.Cut(c.sameAs, "\n"); c.sameAs != "" && rest != wantRest {
			t.Errorf("%s printed\n%s\nthe generated stream printed\n%s", c.name, got, c.sameAs)
		}
	}
}

// TestLocalAblations: "ablations" expands to the six ablation
// scenarios in catalog order, each followed by its blank line.
func TestLocalAblations(t *testing.T) {
	var ids []string
	for _, s := range scenario.Catalog() {
		if s.Group == scenario.GroupAblation {
			ids = append(ids, s.ID)
		}
	}
	if len(ids) != 6 {
		t.Fatalf("catalog has %d ablations, want 6: %v", len(ids), ids)
	}
	var want strings.Builder
	for _, id := range ids {
		want.WriteString(readGolden(t, id))
	}
	if got := local(t, "-quick", "ablations"); got != want.String() {
		t.Fatalf("local -quick ablations is not the concatenation of the ablation goldens:\n%s", got)
	}
}

// TestLocalMatchesRun: a run served by the daemon renders the same
// text local prints for it, less local's trailing blank line, for a
// catalog id and for a spec file under an explicit seed.
func TestLocalMatchesRun(t *testing.T) {
	svc := api.NewRunService(api.Config{})
	defer svc.Close()
	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(api.Wrap(mux, nil))
	defer srv.Close()
	c := client.New(srv.URL)

	spec := filepath.Join("..", "..", "examples", "scenario", "offline-sweep.json")
	for _, arg := range []string{"mrt", spec} {
		args := []string{"-seed", "7", arg}
		var served bytes.Buffer
		if err := runCmd(context.Background(), c, &served, "run", args); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		if got, want := local(t, args...), served.String()+"\n"; got != want {
			t.Errorf("%s: local printed\n%s\nrun printed\n%s", arg, got, want)
		}
	}
}

// TestLocalRejectsUnknownFormat: a bad -format fails before anything
// is resolved or run.
func TestLocalRejectsUnknownFormat(t *testing.T) {
	for _, arg := range []string{"mrt", "missing.json"} {
		var out bytes.Buffer
		err := localCmd(&out, []string{"-format", "yaml", arg})
		if err == nil || !strings.Contains(err.Error(), `unknown format "yaml"`) {
			t.Errorf("local -format yaml %s: err = %v, want the unknown-format error", arg, err)
		}
		if out.Len() != 0 {
			t.Errorf("local -format yaml %s wrote %q", arg, out.String())
		}
	}
}

// TestLocalAndRunRefuseExchangeSettings: an exchange period below the
// floor or an imbalance threshold of 1 or less is refused before
// anything runs, with one error text by local and by POST /v1/runs,
// for the decentralized kind's params and the grid kind's grid fields.
func TestLocalAndRunRefuseExchangeSettings(t *testing.T) {
	svc := api.NewRunService(api.Config{})
	defer svc.Close()
	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(api.Wrap(mux, nil))
	defer srv.Close()
	c := client.New(srv.URL)

	f, err := os.Open(filepath.Join("..", "..", "examples", "scenario", "grid-fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleet, err := scenario.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	withGrid := func(edit func(*scenario.Grid)) *scenario.Spec {
		s := *fleet
		g := *fleet.Grid
		edit(&g)
		s.Grid = &g
		return &s
	}
	for _, tc := range []struct {
		spec *scenario.Spec
		want string
	}{
		{scenario.New("t7", "decentralized", scenario.WithParam("period", 1e-6)), "params.period = 1e-06, want an exchange period of at least 1 virtual second"},
		{scenario.New("t7", "decentralized", scenario.WithParam("period", -5)), "params.period = -5, want an exchange period"},
		{scenario.New("t7", "decentralized", scenario.WithParam("threshold", 1)), "params.threshold = 1, want an imbalance threshold above 1"},
		{withGrid(func(g *scenario.Grid) { g.ExchangePeriod = 1e-6 }), "grid.exchange_period = 1e-06, want an exchange period of at least 1 virtual second"},
		{withGrid(func(g *scenario.Grid) { g.ExchangePeriod = -1 }), "grid.exchange_period = -1, want an exchange period"},
		{withGrid(func(g *scenario.Grid) { g.Threshold = 0.5 }), "grid.threshold = 0.5, want an imbalance threshold above 1"},
	} {
		verr := tc.spec.Validate(scenario.Limits{})
		if verr == nil || !strings.Contains(verr.Error(), tc.want) {
			t.Fatalf("%s: Validate = %v, want %q", tc.spec.ID, verr, tc.want)
		}
		b, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		lerr := localCmd(&out, []string{"-quick", path})
		if lerr == nil || !strings.HasSuffix(lerr.Error(), verr.Error()) || out.Len() != 0 {
			t.Errorf("local %s: err = %v, printed %q; want the error %q", tc.want, lerr, out.String(), verr)
		}
		_, serr := c.SubmitRun(context.Background(), scenario.HTTPRequest{Spec: tc.spec, Quick: true})
		var ce *client.Error
		if !errors.As(serr, &ce) || ce.Status != http.StatusBadRequest || ce.Message != verr.Error() {
			t.Errorf("POST /v1/runs %s: err = %v; want a 400 with %q", tc.want, serr, verr)
		}
	}
}
