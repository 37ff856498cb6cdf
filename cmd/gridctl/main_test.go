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
