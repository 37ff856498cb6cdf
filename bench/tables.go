package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	_ "repro/internal/experiments" // registers the scenario kinds and the built-in catalog
	"repro/internal/scenario"
)

// quickFactor is the job-count divisor of a quick-scale run (the CLI's
// -quick and the API's "quick": true).
const quickFactor = 10

// renderScenario runs one catalog scenario on the sequential cell
// runner and returns the text the CLI and the /v1 result endpoint
// print for it.
func renderScenario(id string, seed uint64, jobFactor int) (string, error) {
	res, err := runScenario(id, scenario.RunOptions{
		Seed: seed, SeedExplicit: true, Scale: scenario.Scale{JobFactor: jobFactor},
	})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := res.EmitFormat(&buf, "text"); err != nil {
		return "", fmt.Errorf("%s: %w", id, err)
	}
	return buf.String(), nil
}

func runScenario(id string, opt scenario.RunOptions) (*scenario.Result, error) {
	spec, ok := scenario.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not in the catalog", id)
	}
	res, err := scenario.Run(spec, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return res, nil
}

// checkGoldens renders every golden-pinned scenario at quick scale and
// the default seed and compares it byte for byte with
// testdata/golden/<id>.txt (each golden is the CLI's output: the text
// plus one blank line). It returns how many it checked.
func checkGoldens(e *env) (int, error) {
	ids := append(append([]string(nil), tableIDs...), "replay", "churn")
	for _, id := range ids {
		want, err := os.ReadFile(filepath.Join(e.root, "testdata", "golden", id+".txt"))
		if err != nil {
			return 0, err
		}
		got, err := renderScenario(id, 42, quickFactor)
		if err != nil {
			return 0, err
		}
		if got+"\n" != string(want) {
			e.out.failf("golden mismatch: %s at quick scale differs from testdata/golden/%s.txt", id, id)
		}
	}
	return len(ids), nil
}

// tablesTrace collects what the traced catalog pass observes.
type tablesTrace struct {
	rec    *recorder
	pass   int
	runMS  map[string][]float64
	emitUS []float64
	cellMS []float64
	cells  int
	// results of the last pass, for the codec probes.
	results []*scenario.Result
}

// tablesChunk is how long a catalog pass runs between two timings of
// the calibration kernel. A whole pass takes over a second, too long
// for the host's speed to hold still, so it is measured in chunks of
// consecutive scenarios; the chunks' figures add up to the pass's.
const tablesChunk = 200 * time.Millisecond

// tablesPass runs and renders the tableIDs scenarios at paper scale.
func tablesPass(e *env, t *tablesTrace) (passStats, error) {
	sum := sha256.New()
	var buf bytes.Buffer
	var passSpan int
	if t != nil {
		t.pass++
		t.results = t.results[:0]
		passSpan = t.rec.open("tables.pass", fmt.Sprintf("pass-%d", t.pass), 0, time.Now())
	}
	one := func(id string) error {
		opt := scenario.RunOptions{Seed: e.seed, SeedExplicit: true}
		var runSpan int
		t0 := time.Now()
		if t != nil {
			run := fmt.Sprintf("pass-%d/%s", t.pass, id)
			runSpan = t.rec.open("scenario.run", run, passSpan, t0)
			opt.OnCellsStart = func(n int) { t.cells += n }
			opt.OnCellDone = func(_ int, d time.Duration) {
				t.cellMS = append(t.cellMS, ms(d))
				t.rec.add("scenario.cell", run, runSpan, time.Now().Add(-d), d, 1)
			}
		}
		res, err := runScenario(id, opt)
		if err != nil {
			return err
		}
		t1 := time.Now()
		buf.Reset()
		if err := res.Emit(&buf, false); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if buf.Len() == 0 {
			return wrongOutput{id + ": empty table"}
		}
		sum.Write(buf.Bytes())
		if t != nil {
			t2 := time.Now()
			t.rec.add("trace.table_emit", fmt.Sprintf("pass-%d/%s", t.pass, id), runSpan, t1, t2.Sub(t1), 1)
			t.rec.close(runSpan, t2)
			t.runMS[id] = append(t.runMS[id], ms(t2.Sub(t0)))
			t.emitUS = append(t.emitUS, us(t2.Sub(t1)))
			t.results = append(t.results, res)
		}
		return nil
	}
	var pass passStats
	for next := 0; next < len(tableIDs); {
		chunk, err := measure(e.cal, func() (float64, int, string, error) {
			n := 0
			for start := time.Now(); next < len(tableIDs) && time.Since(start) < tablesChunk; n++ {
				id := tableIDs[next]
				next++
				if err := one(id); err != nil {
					return float64(n), 0, "", err
				}
			}
			return float64(n), 0, "", nil
		})
		if err != nil {
			return passStats{}, err
		}
		pass.add(chunk)
	}
	if t != nil {
		t.rec.close(passSpan, time.Now())
	}
	pass.digest = fmt.Sprintf("%x", sum.Sum(nil)[:8])
	return pass, nil
}

func runCatalogTables(e *env) error {
	// Set-up is the quick-scale golden check: it is both the output
	// check and the warm pass that touches every kind runner once.
	var checked int
	_, setupS, err := timeSetups(e, func(int) (err error) { checked, err = checkGoldens(e); return err }, nil)
	if err != nil {
		return err
	}
	e.out.attempted += checked
	e.out.info["goldens_checked"] = checked
	if e.traced {
		return traceCatalogTables(e)
	}
	passes, err := timedPasses(e, func(int) (passStats, error) { return tablesPass(e, nil) })
	if err != nil {
		return err
	}
	reportPasses(e, setupS, passes)
	e.out.info["scenarios"] = len(tableIDs)
	return nil
}

func traceCatalogTables(e *env) error {
	t := &tablesTrace{rec: e.rec, runMS: map[string][]float64{}}
	plain, traced, err := alternate(e,
		func(int) (passStats, error) { return tablesPass(e, nil) },
		func(int) (passStats, error) { return tablesPass(e, t) })
	if err != nil {
		return err
	}
	var plainMS, tracedMS []float64
	for i, p := range plain {
		plainMS, tracedMS = append(plainMS, ms(p.wall)), append(tracedMS, ms(traced[i].wall))
	}
	e.out.info["sim_digest"] = checkDigests(e, append(append([]passStats(nil), plain...), traced...))
	e.out.info["passes"] = len(plain)
	e.out.set("harness.trace_overhead_pct", 100*(median(tracedMS)/median(plainMS)-1))
	for id, v := range t.runMS {
		e.out.set("scenario.run_ms."+id, median(v))
	}
	cells := sortedCopy(t.cellMS)
	e.out.set("scenario.cells_per_pass", float64(t.cells)/float64(t.pass))
	e.out.set("scenario.cell_ms_p50", quantile(cells, 0.5))
	e.out.set("scenario.cell_ms_p99", quantile(cells, 0.99))
	e.out.set("trace.table_emit_us_mean", mean(t.emitUS))
	e.out.info["cell_samples"] = len(cells)
	return probeCodecs(e, t.results)
}

// probeCodecs times the two codecs on the serving and fleet paths: the
// strict Spec decoder (every submission) and the typed-row wire codec
// (every cell a worker ships back), on the catalog's own specs and the
// rows the traced pass produced.
func probeCodecs(e *env, results []*scenario.Result) error {
	const reps = 20
	var decode time.Duration
	for _, id := range tableIDs {
		spec, _ := scenario.Lookup(id)
		b, err := spec.MarshalIndent()
		if err != nil {
			return fmt.Errorf("codec probe: %s: %w", id, err)
		}
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := scenario.Decode(bytes.NewReader(b)); err != nil {
				return fmt.Errorf("codec probe: %s: %w", id, err)
			}
		}
		decode += time.Since(t0)
	}
	e.out.set("scenario.spec_decode_us", us(decode)/float64(reps*len(tableIDs)))

	var wire time.Duration
	var nrows int
	t0 := time.Now()
	for _, res := range results {
		rows := make([][]any, len(res.Cells))
		for i, c := range res.Cells {
			rows[i] = c.Values
		}
		if len(rows) == 0 {
			continue // figures carry no typed rows
		}
		t1 := time.Now()
		for i := 0; i < reps; i++ {
			enc, err := scenario.EncodeRows(rows)
			if err != nil {
				return fmt.Errorf("codec probe: %s: %w", res.SpecID, err)
			}
			dec, err := scenario.DecodeRows(enc)
			if err != nil {
				return fmt.Errorf("codec probe: %s: %w", res.SpecID, err)
			}
			if len(dec) != len(rows) {
				e.out.failf("codec probe: %s: %d rows came back as %d", res.SpecID, len(rows), len(dec))
			}
		}
		wire += time.Since(t1)
		nrows += reps * len(rows)
	}
	e.out.attempted++
	if nrows == 0 {
		e.out.failf("codec probe: no typed rows to encode")
		return nil
	}
	e.rec.add("scenario.wire_codec", "probe", 0, t0, wire, int64(nrows))
	e.out.set("scenario.wire_codec_us_per_row", us(wire)/float64(nrows))
	return nil
}
