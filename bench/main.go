// Command bench is the repository's layered benchmark: six named
// workloads over the scheduling engine, the /v1 serving stack, the
// durable store and the worker fleet. One invocation runs one workload
// for a fixed time and prints one JSON result line; with no -workload
// it runs the whole suite (every workload untraced, then traced) as
// child invocations and prints every metric by name. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outcome is what one workload run produces.
type outcome struct {
	attempted, failed int
	m                 map[string]float64
	// info is context recorded beside the numbers (sample counts,
	// digests, flush policy) in the result file; it is not a metric.
	info map[string]any
}

func (o *outcome) set(name string, v float64) { o.m[name] = v }

// failf counts one failed operation (wrong output, refused or errored
// request) and says why on stderr.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

// env is what a workload is handed.
type env struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	rec      *recorder // nil unless traced
	cal      *calibrator
	root     string // checkout root (the working directory)
	tmp      string // scratch directory inside the checkout
	out      *outcome
}

var runners = map[string]func(*env) error{
	wReplayStream:  runReplayStream,
	wDeepQueue:     runDeepQueue,
	wCatalogTables: runCatalogTables,
	wServeDurable:  runServeDurable,
	wServeMemo:     runServeMemo,
	wFleetShard:    runFleetShard,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run ("+strings.Join(workloadNames(), "|")+"); empty = the whole suite")
		seed     = flag.Uint64("seed", 42, "every generated input derives from this")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run")
		sets     = flag.Int("sets", 1, "suite mode: repeat the suite this many times (seed, seed+1, ...) and hold the spread against each bound")
		traced   = flag.Bool("traced", true, "suite mode: also make the traced pass")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *sets < 1 {
		flag.Usage()
		os.Exit(2)
	}
	root, err := checkoutRoot()
	if err != nil {
		fatal(err)
	}
	if *workload == "" {
		os.Exit(runSuite(root, *seed, *seconds, *sets, *traced))
	}
	run, ok := runners[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	e := &env{
		workload: *workload, seed: *seed, traced: *trace == 1, root: root,
		window: time.Duration(*seconds * float64(time.Second)),
		out:    &outcome{m: map[string]float64{}, info: map[string]any{}},
		cal:    &calibrator{},
	}
	if e.traced {
		e.rec = newRecorder()
	}
	if e.tmp, err = makeScratch(root, *workload); err != nil {
		fatal(err)
	}
	// Children are reaped and scratch data removed on every way out:
	// normal return, failure, SIGINT/SIGTERM.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup(e.tmp)
		os.Exit(130)
	}()
	err = run(e)
	cleanup(e.tmp)
	if err != nil {
		fatal(err)
	}
	if err := report(e); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// checkoutRoot is the working directory, which must be the root of a
// checkout of this repository: the harness builds cmd/gridd from it and
// reads testdata/golden.
func checkoutRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, p := range []string{"go.mod", "cmd/gridd", "bench"} {
		if _, err := os.Stat(filepath.Join(wd, p)); err != nil {
			return "", fmt.Errorf("run from the root of a checkout (bash bench/run.sh): %w", err)
		}
	}
	return wd, nil
}

// buildDir holds everything building and running leaves behind outside
// bench/out; the root .gitignore names it.
const buildDir = ".bench_build"

func makeScratch(root, workload string) (string, error) {
	dir := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, workload+"-")
}

// cleanup kills and reaps every child still running, then removes the
// scratch directory.
func cleanup(tmp string) {
	stopAllChildren()
	os.RemoveAll(tmp)
}

// report validates the outcome against the declared metrics, writes
// the result file and the spans, and prints the result line.
func report(e *env) error {
	decls := endToEnd
	if e.traced {
		decls = perLayer
		e.out.set("harness.calib_ms", median(e.cal.ms))
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(decls))
	for _, d := range decls {
		v, ok := e.out.m[d.Name]
		if !ok && !e.traced {
			return fmt.Errorf("harness bug: %s did not report %s", e.workload, d.Name)
		}
		if e.traced {
			v = atReferenceSpeed(v, d, e.cal.factor())
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	for name := range e.out.m {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("harness bug: %s reported undeclared metric %s", e.workload, name)
		}
	}
	if e.out.attempted < 1 {
		return errors.New("harness bug: no operation attempted")
	}
	line := map[string]any{
		"correct":   e.out.failed == 0,
		"attempted": e.out.attempted,
		"failed":    e.out.failed,
		"metrics":   metrics,
	}

	outDir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	traceFlag := 0
	if e.traced {
		e.out.info["calib_factor"] = e.cal.factor()
		traceFlag = 1
		if err := writeSpans(filepath.Join(outDir, "spans-"+e.workload+".jsonl"), e.rec.snapshot()); err != nil {
			return err
		}
	}
	full := map[string]any{
		"workload": e.workload, "seed": e.seed, "seconds": e.window.Seconds(), "trace": traceFlag,
		"context": runContext(e.root), "info": e.out.info, "result": line, "calib_ms": e.cal.ms,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-trace%d.json", e.workload, traceFlag)
	if err := os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644); err != nil {
		return err
	}

	// Human-readable listing on stderr; stdout carries only the line
	// the driver parses.
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-44s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "ops_attempted=%d ops_failed=%d\n", e.out.attempted, e.out.failed)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// atReferenceSpeed expresses a per-layer figure at reference host speed
// (calib.go): the workloads report layer times as measured, and every
// time-valued one is scaled here by the run's factor. End-to-end
// figures are scaled pass by pass where they are measured.
func atReferenceSpeed(v float64, d metricDecl, factor float64) float64 {
	if d.Name == "harness.calib_ms" || d.Name == "harness.build_s" {
		return v // the kernel's own raw time; the build cache's time
	}
	switch d.Unit {
	case "ns", "us", "ms", "s":
		return v * factor
	case "1/s":
		return v / factor
	}
	return v
}

// runContext records where the numbers came from.
func runContext(root string) map[string]any {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"git_commit": commit,
		"go_version": runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS, "goarch": runtime.GOARCH,
	}
}
