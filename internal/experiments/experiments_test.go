package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/trace"
)

var quick = scenario.Scale{JobFactor: 10}

// catalogTable runs built-in scenario id at the given seed and scale
// through scenario.Lookup + scenario.Run — the path the goldens pin.
func catalogTable(id string, seed uint64, sc scenario.Scale) (*trace.Table, error) {
	res, err := catalogRun(id, seed, sc)
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

// catalogRun is catalogTable's whole Result (figures have no table).
func catalogRun(id string, seed uint64, sc scenario.Scale) (*scenario.Result, error) {
	spec, ok := scenario.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("no built-in scenario %q", id)
	}
	return scenario.Run(spec, scenario.RunOptions{Seed: seed, SeedExplicit: true, Scale: sc})
}

// checkTable verifies the table renders and has the expected row count.
func checkTable(t *testing.T, tb *trace.Table, err error, minRows int) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < minRows {
		t.Fatalf("table %q has %d rows, want >= %d", tb.Title, len(tb.Rows), minRows)
	}
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func parseRatio(t *testing.T, cell string) float64 {
	t.Helper()
	var v float64
	if _, err := sscan(cell, &v); err != nil {
		t.Fatalf("cell %q is not a number: %v", cell, err)
	}
	return v
}

func TestMRTTable(t *testing.T) {
	tb, err := catalogTable("mrt", 1, quick)
	out := checkTable(t, tb, err, 9)
	if !strings.Contains(out, "MRT") {
		t.Fatal("missing MRT column")
	}
	// Every MRT ratio must respect the 3/2+ε envelope (column 2).
	for _, row := range tb.Rows {
		if r := parseRatio(t, row[2]); r > 1.55 || r < 1.0-1e-9 {
			t.Fatalf("MRT ratio %v outside [1, 1.55]: row %v", r, row)
		}
	}
}

func TestBatchTable(t *testing.T) {
	tb, err := catalogTable("batch", 2, quick)
	checkTable(t, tb, err, 3)
	for _, row := range tb.Rows {
		if r := parseRatio(t, row[4]); r > 3.05 || r < 1.0-1e-9 {
			t.Fatalf("online ratio %v outside [1, 3+ε]: row %v", r, row)
		}
	}
}

func TestSMARTTable(t *testing.T) {
	tb, err := catalogTable("smart", 3, quick)
	checkTable(t, tb, err, 4)
	for _, row := range tb.Rows {
		if r := parseRatio(t, row[3]); r > 8.53 || r < 1.0-1e-9 {
			t.Fatalf("SMART ratio %v outside [1, 8.53]: row %v", r, row)
		}
	}
}

func TestBiCriteriaTable(t *testing.T) {
	tb, err := catalogTable("bicriteria", 4, quick)
	checkTable(t, tb, err, 4)
	for _, row := range tb.Rows {
		if r := parseRatio(t, row[2]); r > 6 {
			t.Fatalf("doubling Cmax ratio %v exceeds 4ρ: row %v", r, row)
		}
		if r := parseRatio(t, row[3]); r > 6 {
			t.Fatalf("doubling ΣwC ratio %v exceeds 4ρ: row %v", r, row)
		}
	}
}

func TestDLTTable(t *testing.T) {
	tb, err := catalogTable("dlt", 6, quick)
	out := checkTable(t, tb, err, 8)
	if !strings.Contains(out, "bus-4") || !strings.Contains(out, "star-hetero") {
		t.Fatal("platforms missing")
	}
	// At latency 100 (last row per platform), 1 round must beat 16 rounds.
	for _, row := range tb.Rows {
		if row[1] == "100" {
			one := parseRatio(t, row[2])
			sixteen := parseRatio(t, row[4])
			if one >= sixteen {
				t.Fatalf("no crossover at latency 100: 1r=%v 16r=%v", one, sixteen)
			}
		}
		if row[1] == "0" {
			one := parseRatio(t, row[2])
			sixteen := parseRatio(t, row[4])
			if sixteen >= one {
				t.Fatalf("multi-round not winning at latency 0: 1r=%v 16r=%v", one, sixteen)
			}
		}
	}
}

func TestCiGriTable(t *testing.T) {
	tb, err := catalogTable("cigri", 7, quick)
	checkTable(t, tb, err, 2)
	for _, row := range tb.Rows {
		// Fairness: local flow difference must be ~0.
		if d := parseRatio(t, row[2]); d > 1e-6 {
			t.Fatalf("local jobs disturbed by grid: Δflow = %v", d)
		}
	}
}

func TestDecentralizedTable(t *testing.T) {
	tb, err := catalogTable("decentralized", 8, quick)
	checkTable(t, tb, err, 2)
	isoFlow := parseRatio(t, tb.Rows[0][2])
	exFlow := parseRatio(t, tb.Rows[1][2])
	if exFlow >= isoFlow {
		t.Fatalf("exchange (%v) did not improve on isolated (%v)", exFlow, isoFlow)
	}
	if mig := parseRatio(t, tb.Rows[1][1]); mig == 0 {
		t.Fatal("no migrations recorded")
	}
}

func TestGridPolicyTable(t *testing.T) {
	tb, err := catalogTable("gridpolicies", 8, quick)
	checkTable(t, tb, err, len(registry.Grids()))
	seen := map[string]bool{}
	for _, row := range tb.Rows {
		seen[row[0]] = true
		// Every policy must finish the whole campaign (column "grid done").
		done := parseRatio(t, row[5])
		want := parseRatio(t, tb.Rows[0][5])
		if done != want {
			t.Fatalf("%s completed %v campaign tasks, others %v", row[0], done, want)
		}
	}
	for _, e := range registry.Grids() {
		if !seen[e.Name] {
			t.Fatalf("grid policy %s missing from table (rows %v)", e.Name, tb.Rows)
		}
	}
}

func TestMixedTable(t *testing.T) {
	tb, err := catalogTable("mixed", 9, quick)
	checkTable(t, tb, err, 6)
	// Strategy C must be present and valid for both fractions.
	foundC := 0
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[2], "C") {
			foundC++
			if r := parseRatio(t, row[3]); r > 6 {
				t.Fatalf("strategy C Cmax ratio %v exceeds 4ρ", r)
			}
		}
	}
	if foundC != 2 {
		t.Fatalf("strategy C rows: %d", foundC)
	}
}

func TestReservationsTable(t *testing.T) {
	tb, err := catalogTable("reservations", 10, quick)
	checkTable(t, tb, err, 2)
	for _, row := range tb.Rows {
		fcfs := parseRatio(t, row[2])
		cons := parseRatio(t, row[3])
		if cons > fcfs+1e-9 {
			t.Fatalf("conservative (%v) worse than FCFS (%v) around reservations", cons, fcfs)
		}
		if cons < 1-1e-9 {
			t.Fatalf("reserved run beat the reservation-free baseline: %v", cons)
		}
	}
}

func TestAblations(t *testing.T) {
	for _, s := range scenario.Catalog() {
		if s.Group != scenario.GroupAblation {
			continue
		}
		id := s.ID
		tb, err := catalogTable(id, 11, quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkTable(t, tb, nil, 2)
	}
}

func TestScaleFloor(t *testing.T) {
	if got := scaled(scenario.Scale{JobFactor: 100}, 50); got != 10 {
		t.Fatalf("scale floor = %d, want 10", got)
	}
	if got := scaled(scenario.Scale{}, 50); got != 50 {
		t.Fatalf("unit scale = %d, want 50", got)
	}
}

// sscan parses one float (strconv wrapper kept local to the test).
func sscan(s string, v *float64) (int, error) {
	f, err := strconvParse(s)
	if err != nil {
		return 0, err
	}
	*v = f
	return 1, nil
}

func strconvParse(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

func TestMalleableTable(t *testing.T) {
	tb, err := catalogTable("malleable", 12, quick)
	checkTable(t, tb, err, 2)
	for _, row := range tb.Rows {
		equi := parseRatio(t, row[3])
		if equi < 1-1e-9 {
			t.Fatalf("EQUI ratio %v below 1 — bound broken", equi)
		}
		if equi > 3 {
			t.Fatalf("EQUI ratio %v implausibly high", equi)
		}
	}
}

func TestTreeDLTTable(t *testing.T) {
	tb, err := catalogTable("treedlt", 13, quick)
	checkTable(t, tb, err, 3)
	// Hierarchy costs: flat star must be the fastest topology.
	flat := parseRatio(t, tb.Rows[0][2])
	two := parseRatio(t, tb.Rows[1][2])
	chain := parseRatio(t, tb.Rows[2][2])
	if !(flat <= two && two <= chain) {
		t.Fatalf("depth ordering violated: flat=%v two=%v chain=%v", flat, two, chain)
	}
}

func TestDecentralizedTableHasPullRow(t *testing.T) {
	tb, err := catalogTable("decentralized", 8, quick)
	checkTable(t, tb, err, 3)
	foundPull := false
	for _, row := range tb.Rows {
		if strings.Contains(row[0], "pull") {
			foundPull = true
			if parseRatio(t, row[2]) >= parseRatio(t, tb.Rows[0][2]) {
				t.Fatal("pull stealing did not improve on isolated")
			}
		}
	}
	if !foundPull {
		t.Fatal("pull row missing")
	}
}

func TestCriteriaMatrixTable(t *testing.T) {
	tb, err := catalogTable("criteria", 14, quick)
	checkTable(t, tb, err, 5)
	// Find per-criterion winners: no single policy may win every column
	// (the paper's argument for per-application selection).
	bestCmax, bestWC := 0, 0
	for i, row := range tb.Rows {
		if parseRatio(t, row[1]) < parseRatio(t, tb.Rows[bestCmax][1]) {
			bestCmax = i
		}
		if parseRatio(t, row[2]) < parseRatio(t, tb.Rows[bestWC][2]) {
			bestWC = i
		}
	}
	if bestCmax == bestWC {
		t.Logf("note: policy %q won both criteria on this draw", tb.Rows[bestCmax][0])
	}
	// MRT must win (or tie) the Cmax column — it is the Cmax specialist.
	if tb.Rows[bestCmax][0] != "mrt (§4.1)" {
		t.Fatalf("Cmax winner is %q, want MRT", tb.Rows[bestCmax][0])
	}
}

func TestHeteroGridTable(t *testing.T) {
	tb, err := catalogTable("heterogrid", 15, quick)
	checkTable(t, tb, err, 6)
	// In the capacity-bound regime (rows 3-5), speed-aware must beat
	// round robin.
	lpt := parseRatio(t, tb.Rows[3][3])
	rr := parseRatio(t, tb.Rows[5][3])
	if lpt >= rr {
		t.Fatalf("capacity-bound: speed-aware (%v) not better than round robin (%v)", lpt, rr)
	}
	for _, row := range tb.Rows {
		if r := parseRatio(t, row[3]); r < 1-1e-9 {
			t.Fatalf("ratio %v below 1 — grid lower bound broken: %v", r, row)
		}
	}
}
