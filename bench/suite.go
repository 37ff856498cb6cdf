package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// resultLine is the last line of a workload run's standard output.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a process of its own, exactly as the
// acceptance driver does, and parses its result line.
func runChild(exe, workload string, seed uint64, seconds float64, trace int) (*resultLine, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w\n%s", workload, seed, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !res.Correct {
		fmt.Fprint(os.Stderr, stderr.String())
	}
	return &res, nil
}

// setSpread is the spread of one metric over the sets: the driver's
// interquartile figure when there are enough sets to have quartiles,
// the full range otherwise. Both are shares of the median.
func setSpread(xs []float64) float64 {
	if len(xs) >= 4 {
		return iqrSpread(xs)
	}
	s := sortedCopy(xs)
	if m := median(s); m != 0 {
		return (s[len(s)-1] - s[0]) / m
	}
	return 0
}

// runSuite is the one-command mode: every workload untraced (sets
// times, seeds seed, seed+1, ...), then every workload traced, every
// metric printed by name with its unit. It returns the exit code:
// non-zero if any operation failed or, with several sets, if a
// metric's spread between sets exceeds its bound.
func runSuite(root string, seed uint64, seconds float64, sets int, traced bool) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	for set := 0; set < sets; set++ {
		for _, w := range workloads {
			res, err := runChild(exe, w.Name, seed+uint64(set), seconds, 0)
			if err != nil {
				fatal(err)
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
			}
			fmt.Printf("set %d  %-15s ops_attempted=%d ops_failed=%d\n", set+1, w.Name, res.Attempted, res.Failed)
			if !res.Correct {
				code = 1
			}
		}
	}

	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
	}
	var rows []row
	fmt.Printf("\n%-15s %-14s %14s %-5s %8s %6s\n", "workload", "metric", "median", "unit", "spread", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := values[w.Name][d.Name]
			r := row{w.Name, d.Name, d.Unit, xs, median(xs), setSpread(xs), *d.Bound}
			rows = append(rows, r)
			verdict := ""
			// setup_s is held to its bound on the median only, as the
			// driver does; its run-to-run spread is reported, not judged.
			if sets > 1 && r.Spread > r.Bound && d.Name != "setup_s" {
				verdict, code = "  SPREAD EXCEEDS BOUND", 1
			}
			fmt.Printf("%-15s %-14s %14.4f %-5s %7.1f%% %5.0f%%%s\n",
				r.Workload, r.Metric, r.Median, r.Unit, 100*r.Spread, 100*r.Bound, verdict)
		}
	}

	layers := map[string]map[string]float64{}
	if traced {
		for _, w := range workloads {
			res, err := runChild(exe, w.Name, seed, seconds, 1)
			if err != nil {
				fatal(err)
			}
			if !res.Correct {
				code = 1
			}
			layers[w.Name] = map[string]float64{}
			fmt.Printf("\ntraced %s: ops_attempted=%d ops_failed=%d (spans in bench/out/spans-%s.jsonl)\n",
				w.Name, res.Attempted, res.Failed, w.Name)
			names := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := res.Metrics[name]
				layers[w.Name][name] = m.Value
				if m.Value != 0 { // a layer the workload does not touch reads 0
					fmt.Printf("  %-42s %14.4f %s\n", name, m.Value, m.Unit)
				}
			}
		}
	}

	b, err := json.MarshalIndent(map[string]any{
		"seed": seed, "seconds": seconds, "sets": sets, "context": runContext(root),
		"end_to_end": rows, "per_layer": layers,
	}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(root, "bench", "out", "suite.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
	return code
}
