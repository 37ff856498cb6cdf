// Command loadgen drives a running gridd daemon through the pkg/client
// SDK: it submits a stream of jobs — synthetic (workload.GenConfig
// shapes) or replayed from an SWF trace — at a target submission rate
// with concurrent workers, then prints a latency/throughput summary and
// optionally waits until the daemon reports every accepted job
// complete. The summary breaks submission latency down per cluster, and
// -campaign fans a bag-of-tasks campaign across the fleet and waits for
// it to finish.
//
// Usage examples:
//
//	loadgen -addr http://localhost:8042 -n 200 -rps 100 -workers 4 -wait
//	loadgen -swf trace.swf -use-release -rps 0
//	loadgen -n 5000 -workers 8 -wait          # max-rate throughput probe
//	loadgen -campaign 500 -run-time 30 -wait  # campaign mode
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/gridservice"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/pkg/client"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8042", "gridd base URL")
		n        = flag.Int("n", 200, "number of jobs to submit (synthetic mode)")
		m        = flag.Int("m", 64, "platform width shaping the synthetic jobs")
		rps      = flag.Float64("rps", 0, "target submissions per second (0 = as fast as possible)")
		workers  = flag.Int("workers", 4, "concurrent submission workers")
		seed     = flag.Uint64("seed", 42, "synthetic workload seed")
		swf      = flag.String("swf", "", "replay this SWF trace instead of generating jobs")
		useRel   = flag.Bool("use-release", false, "forward workload release dates as virtual arrival times")
		wait     = flag.Bool("wait", false, "poll until every accepted job (or the campaign) completed")
		campaign = flag.Int("campaign", 0, "campaign mode: POST a bag of this many tasks instead of jobs")
		runTime  = flag.Float64("run-time", 30, "campaign task duration (virtual seconds)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "overall deadline (submission + wait)")
	)
	flag.Parse()

	// No retries: the measured latency must be one round trip, and a
	// saturation probe should count rejections, not mask them.
	cl := client.New(*addr, client.WithRetries(0))
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *campaign > 0 {
		os.Exit(runCampaign(ctx, cl, *campaign, *runTime, *wait))
	}

	stream, closeStream, err := buildStream(*swf, *n, *m, *seed, *useRel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
	defer closeStream()

	// Snapshot the daemon's counters first: a long-lived gridd may carry
	// completions from earlier runs, and -wait must account only for the
	// jobs this run submits.
	baseline := 0
	if *wait {
		done, err := cl.Completed(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		baseline = done
	}

	res := fire(ctx, cl, stream, *rps, *workers)
	res.print(os.Stdout)

	exit := 0
	if res.failed > 0 {
		exit = 1
	}
	if *wait {
		lost, err := waitComplete(ctx, cl, baseline, res.accepted)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: wait: %v\n", err)
			exit = 1
		} else if lost > 0 {
			fmt.Printf("LOST %d of %d accepted jobs\n", lost, res.accepted)
			exit = 1
		} else {
			fmt.Printf("all %d accepted jobs completed\n", res.accepted)
		}
	}
	os.Exit(exit)
}

// runCampaign submits one campaign and optionally polls it to completion.
func runCampaign(ctx context.Context, cl *client.Client, tasks int, runTime float64, wait bool) int {
	t0 := time.Now()
	c, err := cl.SubmitCampaign(ctx, "loadgen", tasks, runTime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: campaign: %v\n", err)
		return 1
	}
	fmt.Printf("campaign %d accepted: %d tasks x %gs\n", c.ID, c.Tasks, runTime)
	if !wait {
		return 0
	}
	for {
		st, err := cl.CampaignStatus(ctx, c.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: campaign poll: %v\n", err)
			return 1
		}
		if st.Done {
			fmt.Printf("campaign done in %v: %d tasks completed, %d kills, per-cluster %v\n",
				time.Since(t0).Round(time.Millisecond), st.Completed, st.Killed, st.PerCluster)
			return 0
		}
		select {
		case <-time.After(25 * time.Millisecond):
		case <-ctx.Done():
			fmt.Fprintf(os.Stderr, "loadgen: campaign incomplete at deadline: %d of %d\n",
				st.Completed, st.Tasks)
			return 1
		}
	}
}

// specStream yields the submission stream one spec at a time: an SWF
// replay reads the trace line by line and a synthetic run pulls from
// the workload generator, so loadgen's memory stays O(1) in the trace
// length. ok=false ends the stream; err then reports a malformed or
// refused trace record (nil for a clean end).
type specStream interface {
	Next() (sp gridservice.JobSpec, ok bool, err error)
}

// swfSpec derives the submission payload of one replayed trace job —
// the single definition both the streaming path and tests share, so the
// spec order of a streamed replay is the materialized order by
// construction. The job comes from trace.SWFJobSource, so a record the
// replay kind refuses (an unknown -1 runtime or processor count, a
// non-finite field) is refused here too instead of becoming a job.
func swfSpec(j *workload.Job, useRel bool) gridservice.JobSpec {
	sp := gridservice.JobSpec{
		Name: fmt.Sprintf("swf-%d", j.ID), Class: "swf",
		SeqTime: j.SeqTime, MinProcs: j.MinProcs, Weight: j.Weight,
	}
	if useRel {
		sp.Release = j.Release
	}
	return sp
}

// swfStream streams specs off an SWF trace file.
type swfStream struct {
	src    *trace.SWFJobSource
	useRel bool
}

func (s *swfStream) Next() (gridservice.JobSpec, bool, error) {
	j, ok := s.src.Next()
	if !ok {
		return gridservice.JobSpec{}, false, s.src.Err()
	}
	return swfSpec(j, s.useRel), true, nil
}

// jobStream streams specs off a synthetic workload source.
type jobStream struct {
	src    workload.Source
	useRel bool
}

func (s *jobStream) Next() (gridservice.JobSpec, bool, error) {
	j, ok := s.src.Next()
	if !ok {
		return gridservice.JobSpec{}, false, nil
	}
	sp := gridservice.JobSpec{
		Name: j.Name, Class: j.Class, SeqTime: j.SeqTime,
		MinProcs: j.MinProcs, MaxProcs: j.MaxProcs, Weight: j.Weight,
	}
	if s.useRel {
		sp.Release = j.Release
	}
	return sp, true, nil
}

// buildStream opens the submission stream and returns it with its
// cleanup function.
func buildStream(swf string, n, m int, seed uint64, useRel bool) (specStream, func() error, error) {
	if swf != "" {
		f, err := os.Open(swf)
		if err != nil {
			return nil, nil, err
		}
		return &swfStream{src: trace.NewSWFJobSource(f), useRel: useRel}, f.Close, nil
	}
	src := workload.ParallelSource(workload.GenConfig{N: n, M: m, Seed: seed, ArrivalRate: 0.5})
	return &jobStream{src: src, useRel: useRel}, func() error { return nil }, nil
}

type result struct {
	accepted, failed int
	elapsed          time.Duration
	latencies        []time.Duration
	perCluster       map[string][]time.Duration
	firstErr         string
}

// fire submits the stream with the worker pool, pacing it at rps
// submissions per second (absolute schedule, so pacing does not drift).
// A malformed or refused trace record stops submission there; the
// prefix already sent stands and the error is reported as a failure.
func fire(ctx context.Context, cl *client.Client, stream specStream, rps float64, workers int) *result {
	if workers < 1 {
		workers = 1
	}
	feed := make(chan gridservice.JobSpec, workers)
	var mu sync.Mutex
	res := &result{perCluster: map[string][]time.Duration{}}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lats []time.Duration
			byCluster := map[string][]time.Duration{}
			acc, fail := 0, 0
			firstErr := ""
			for sp := range feed {
				t0 := time.Now()
				st, err := cl.SubmitJob(ctx, sp)
				lat := time.Since(t0)
				if err != nil {
					fail++
					if firstErr == "" {
						firstErr = err.Error()
					}
					continue
				}
				acc++
				lats = append(lats, lat)
				if st.Cluster != "" {
					byCluster[st.Cluster] = append(byCluster[st.Cluster], lat)
				}
			}
			mu.Lock()
			res.accepted += acc
			res.failed += fail
			res.latencies = append(res.latencies, lats...)
			for name, ls := range byCluster {
				res.perCluster[name] = append(res.perCluster[name], ls...)
			}
			if res.firstErr == "" {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	fed, skipped := 0, 0
	var streamErr error
	for {
		sp, ok, err := stream.Next()
		if err != nil {
			streamErr = err
			break
		}
		if !ok {
			break
		}
		if rps > 0 {
			due := start.Add(time.Duration(float64(fed) / rps * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
		}
		// Stop feeding once the deadline fired: every further submission
		// would fail instantly, and sleeping out the rest of a long
		// paced schedule just to report that helps nobody. The remainder
		// of the stream is drained (not submitted) so the failure count
		// still covers the whole workload.
		if ctx.Err() != nil {
			skipped++
			for {
				if _, more, err := stream.Next(); err != nil || !more {
					break
				}
				skipped++
			}
			break
		}
		feed <- sp
		fed++
	}
	close(feed)
	wg.Wait()
	if skipped > 0 {
		res.failed += skipped
		if res.firstErr == "" {
			res.firstErr = ctx.Err().Error()
		}
	}
	if streamErr != nil {
		res.failed++
		if res.firstErr == "" {
			res.firstErr = streamErr.Error()
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// pctOf returns the p-quantile of a sorted latency slice.
func pctOf(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))]
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "submitted %d (accepted %d, failed %d) in %v  →  %.0f jobs/s\n",
		r.accepted+r.failed, r.accepted, r.failed, r.elapsed.Round(time.Millisecond),
		float64(r.accepted)/r.elapsed.Seconds())
	if r.firstErr != "" {
		fmt.Fprintf(w, "first error: %s\n", r.firstErr)
	}
	if len(r.latencies) == 0 {
		return
	}
	sort.Slice(r.latencies, func(i, k int) bool { return r.latencies[i] < r.latencies[k] })
	fmt.Fprintf(w, "latency p50=%v p90=%v p99=%v max=%v\n",
		pctOf(r.latencies, 0.50).Round(time.Microsecond), pctOf(r.latencies, 0.90).Round(time.Microsecond),
		pctOf(r.latencies, 0.99).Round(time.Microsecond), r.latencies[len(r.latencies)-1].Round(time.Microsecond))
	if len(r.perCluster) == 0 {
		return
	}
	names := make([]string, 0, len(r.perCluster))
	for name := range r.perCluster {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := r.perCluster[name]
		sort.Slice(ls, func(i, k int) bool { return ls[i] < ls[k] })
		fmt.Fprintf(w, "  cluster %-12s %6d jobs  p50=%v p99=%v max=%v\n",
			name, len(ls),
			pctOf(ls, 0.50).Round(time.Microsecond), pctOf(ls, 0.99).Round(time.Microsecond),
			ls[len(ls)-1].Round(time.Microsecond))
	}
}

// waitComplete polls /v1/stats until the daemon has completed `accepted`
// jobs beyond the pre-run baseline or the context deadline passes,
// returning the number of this run's jobs still unfinished.
func waitComplete(ctx context.Context, cl *client.Client, baseline, accepted int) (lost int, err error) {
	for {
		completed, err := cl.Completed(ctx)
		if err != nil {
			return accepted, err
		}
		done := completed - baseline
		if done >= accepted {
			return 0, nil
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return accepted - done, nil
		}
	}
}
