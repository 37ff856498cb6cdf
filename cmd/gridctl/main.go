// Command gridctl runs the paper's scenarios and drives a gridd daemon.
// Four subcommands work in-process: "local" runs scenarios and prints
// their tables, "scenarios" and "policies" print the catalogs, and
// "sim" is the one-schedule quick look. The rest go through the
// pkg/client SDK and the /v1 run-lifecycle API: they submit scenario
// runs, watch their per-cell progress live over SSE, list, inspect and
// cancel runs, and fetch results in any renderer format.
//
// Usage:
//
//	gridctl local [-seed N] [-quick] [-workers N] [-format text|json|csv]
//	        <id>|all|ablations|<spec.json>   run scenarios in-process
//	gridctl scenarios                        the scenario catalog
//	gridctl policies                         local + grid policy catalogs
//	gridctl sim [-policy P] [-n N] [-m M] [-seed N] [-rate R] [-weighted]
//	        [-rigidfrac F] [-online] [-gantt] [-csv] [-swf FILE]
//	                                         one schedule, §3 criteria report
//	gridctl [-addr URL] run [-seed N] [-quick] [-workers N] [-watch]
//	        [-format text|json|csv] <id>|<spec.json>
//	gridctl [-addr URL] runs [-format text|json]
//	                                         list stored runs
//	gridctl [-addr URL] status [-format json|text] <run-id>
//	                                         typed status + cell timings
//	gridctl [-addr URL] cancel <run-id>      cooperative cancellation
//	gridctl [-addr URL] workers [-format text|json]
//	                                         fleet coordinator worker view
//	gridctl [-addr URL] submit [run flags] <id>|<spec.json>
//	                                         submit without waiting
//	gridctl [-addr URL] trace [-cell N] [-swf] [-o FILE] <run-id>
//	                                         dump a recorded event trace
//	gridctl [-addr URL] observe [-cell N] [-bins N] <run-id>
//	gridctl [-addr URL] observe -diff <run-id-a> <run-id-b>
//	                                         render timelines from a trace
//
// "local" prints each result followed by a blank line; -workers N with
// N ≥ 2 runs cells on a pool, and tables stay bit-identical. "run"
// submits, waits for the terminal state and prints the result, the
// same text "local" prints for it. -watch additionally narrates every
// cell completion on stderr.
//
// "trace" streams the JSONL event trace of a finished traced run
// (-swf re-exports it as an SWF archive the replay kind accepts);
// "observe" folds the trace into terminal utilization and queue-depth
// timelines plus a per-job Gantt summary, and -diff compares two runs
// sub-run by sub-run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/api"
	_ "repro/internal/experiments" // register kinds + catalog
	"repro/internal/scenario"
	"repro/pkg/client"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gridctl local [-seed N] [-quick] [-workers N] [-format text|json|csv] <id>|all|ablations|<spec.json>")
	fmt.Fprintln(os.Stderr, "       gridctl scenarios | policies")
	fmt.Fprintln(os.Stderr, "       gridctl sim [-policy P] [-n N] [-m M] [-seed N] [-rate R] [-weighted] [-rigidfrac F] [-online] [-gantt] [-csv] [-swf FILE]")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] run|submit [-seed N] [-quick] [-workers N] [-watch] [-format text|json|csv] <id>|<spec.json>")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] runs [-format text|json]")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] status [-format json|text] <run-id>")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] cancel <run-id>")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] workers [-format text|json]")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] trace [-cell N] [-swf] [-o FILE] <run-id>")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] observe [-cell N] [-bins N] <run-id>")
	fmt.Fprintln(os.Stderr, "       gridctl [-addr URL] observe -diff <run-id-a> <run-id-b>")
}

func main() {
	addr := flag.String("addr", "http://localhost:8042", "gridd base URL")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall deadline of a daemon subcommand")
	flag.Usage = func() { usage(); flag.PrintDefaults() }
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "local":
		err = localCmd(os.Stdout, args)
	case "scenarios":
		err = scenario.WriteCatalog(os.Stdout)
	case "policies":
		err = writePolicies(os.Stdout)
	case "sim":
		err = simCmd(os.Stdout, args)
	default:
		err = daemonCmd(cmd, args, *addr, *timeout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gridctl: %v\n", err)
		var apiErr *client.Error
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests && apiErr.RetryAfter > 0 {
			fmt.Fprintf(os.Stderr, "gridctl: quota exceeded; server asks to retry after %s\n", apiErr.RetryAfter)
		}
		if errors.Is(err, client.ErrUnauthorized) {
			fmt.Fprintln(os.Stderr, "gridctl: this daemon requires a tenant API key; set GRIDD_API_KEY")
		}
		os.Exit(1)
	}
}

// daemonCmd runs a subcommand against the gridd daemon at addr, under
// the timeout.
func daemonCmd(cmd string, args []string, addr string, timeout time.Duration) error {
	// No per-request transport timeout: event streams and result
	// fetches can legitimately take as long as the run; the context
	// deadline is the only clock that matters here. The tenant API key,
	// when the daemon requires one, comes from the GRIDD_API_KEY
	// environment variable.
	c := client.New(addr,
		client.WithHTTPClient(&http.Client{}),
		client.WithAPIKey(os.Getenv("GRIDD_API_KEY")))
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	switch cmd {
	case "run", "submit":
		return runCmd(ctx, c, os.Stdout, cmd, args)
	case "runs":
		return listCmd(ctx, c, args)
	case "status":
		return statusCmd(ctx, c, args)
	case "cancel":
		return cancelCmd(ctx, c, args)
	case "workers":
		return workersCmd(ctx, c, args)
	case "trace":
		return traceCmd(ctx, c, args)
	case "observe":
		return observeCmd(ctx, c, args)
	}
	usage()
	os.Exit(2)
	return nil
}

// buildRequest parses the flags run, submit and local share (local has
// no -watch) and resolves the scenario argument: a spec file, loaded
// and validated before anything runs, or else an id.
func buildRequest(cmd string, args []string) (req scenario.HTTPRequest, format string, watch bool, err error) {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	seed := fs.Uint64("seed", 0, "base RNG seed (default 42; overrides a spec-pinned seed)")
	quick := fs.Bool("quick", false, "shrink workloads ~10x")
	fs.IntVar(&req.Workers, "workers", 0, "cell worker pool, capped at GOMAXPROCS (0/1 = sequential)")
	fs.StringVar(&format, "format", "text", "result rendering: text|json|csv")
	if cmd != "local" {
		fs.BoolVar(&watch, "watch", false, "narrate per-cell progress (SSE) on stderr")
	}
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return req, format, watch, fmt.Errorf("%s takes exactly one scenario argument", cmd)
	}
	switch format {
	case "text", "json", "csv":
	default:
		// Reject up front: discovering a typo after a paper-scale run
		// finished would waste its compute.
		return req, format, watch, fmt.Errorf("unknown format %q (text|json|csv)", format)
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			req.Seed = seed
		}
	})
	req.Quick = *quick
	if arg := fs.Arg(0); strings.HasSuffix(arg, ".json") {
		req.Spec, err = scenario.Load(arg)
	} else {
		req.ID = arg
	}
	return req, format, watch, err
}

func runCmd(ctx context.Context, c *client.Client, w io.Writer, cmd string, args []string) error {
	req, format, watch, err := buildRequest(cmd, args)
	if err != nil {
		return err
	}
	st, err := c.SubmitRun(ctx, req)
	if err != nil {
		return err
	}
	if cmd == "submit" {
		fmt.Fprintln(w, st.ID)
		return nil
	}
	if watch {
		fmt.Fprintf(os.Stderr, "run %s submitted (%s/%s)\n", st.ID, st.SpecID, st.Kind)
	}
	streamErr := c.StreamEvents(ctx, st.ID, func(e api.Event) error {
		if !watch {
			return nil
		}
		switch e.Type {
		case "cell":
			fmt.Fprintf(os.Stderr, "  cell %d done (%d/%d, %.3fs)\n",
				e.Cell.Index, e.Cell.Done, e.Cell.Total, e.Cell.DurationSeconds)
		case "state":
			fmt.Fprintf(os.Stderr, "  state: %s %s\n", e.State, e.Error)
		}
		return nil
	})
	if streamErr != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	final, err := c.WaitRun(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	switch final.State {
	case api.RunDone:
		out, err := c.RunResultText(ctx, st.ID, format)
		if err != nil {
			return err
		}
		_, err = io.WriteString(w, out)
		return err
	case api.RunFailed:
		return fmt.Errorf("run %s failed: %s", final.ID, final.Error)
	default:
		return fmt.Errorf("run %s %s: %s", final.ID, final.State, final.Error)
	}
}

func listCmd(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text|json")
	_ = fs.Parse(args)
	runs, err := c.Runs(ctx)
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(runs)
	case "text":
		fmt.Printf("%-9s %-16s %-10s %-9s %10s %10s\n", "ID", "SPEC", "STATE", "CELLS", "SECONDS", "ROWS")
		for _, st := range runs {
			fmt.Printf("%-9s %-16s %-10s %4d/%-4d %10.3f %10d\n",
				st.ID, st.SpecID, st.State, st.CellsDone, st.CellsTotal, st.DurationSeconds, st.Rows)
		}
		return nil
	}
	return fmt.Errorf("unknown format %q (text|json)", *format)
}

func statusCmd(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	// JSON stays the default: existing scripts parse it.
	format := fs.String("format", "json", "output format: json|text")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("status takes exactly one run id")
	}
	st, err := c.Run(ctx, fs.Arg(0))
	if err != nil {
		return err
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(st)
	case "text":
		fmt.Printf("run %s  %s/%s  seed %d\n", st.ID, st.SpecID, st.Kind, st.Seed)
		fmt.Printf("state %s", st.State)
		if st.Error != "" {
			fmt.Printf(" (%s)", st.Error)
		}
		fmt.Printf("  cells %d/%d  rows %d", st.CellsDone, st.CellsTotal, st.Rows)
		if st.TraceEvents > 0 {
			fmt.Printf("  trace events %d", st.TraceEvents)
		}
		fmt.Println()
		if st.DurationSeconds > 0 {
			fmt.Printf("duration %.3fs\n", st.DurationSeconds)
		}
		return nil
	}
	return fmt.Errorf("unknown format %q (json|text)", *format)
}

// workersCmd renders the coordinator's fleet view (GET
// /v1/fleet/workers): every worker that ever leased cells, with live
// lease counts and lifetime throughput. A daemon not started with
// -fleet has no such endpoint and answers 404.
func workersCmd(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("workers", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text|json")
	_ = fs.Parse(args)
	ws, err := c.FleetWorkers(ctx)
	if err != nil {
		if e, ok := err.(*client.Error); ok && e.Status == http.StatusNotFound {
			return fmt.Errorf("no fleet coordinator at %s (start gridd with -fleet)", c.Base())
		}
		return err
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(ws)
	case "text":
		fmt.Printf("%-24s %-10s %-6s %7s %7s %9s %6s %7s\n",
			"WORKER", "VERSION", "ALIVE", "LEASES", "CELLS", "CELLS/S", "FAILS", "EXPIRED")
		for _, w := range ws {
			fmt.Printf("%-24s %-10s %-6t %7d %7d %9.2f %6d %7d\n",
				w.ID, w.Version, w.Alive, w.Leases, w.CellsDone, w.CellsPerSec, w.Failures, w.Expirations)
		}
		return nil
	}
	return fmt.Errorf("unknown format %q (text|json)", *format)
}

func cancelCmd(ctx context.Context, c *client.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("cancel takes exactly one run id")
	}
	st, err := c.CancelRun(ctx, args[0])
	if err != nil {
		return err
	}
	fmt.Printf("run %s: %s\n", st.ID, st.State)
	return nil
}
