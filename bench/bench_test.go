package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 0.95, 0.5},     // too few for any tail: the median
		{19, 0.95, 0.5},    // 1-10/19 < 0.5
		{100, 0.95, 0.90},  // only p90 has ten beyond
		{200, 0.95, 0.95},  // exactly ten beyond p95
		{5000, 0.95, 0.95}, // capped at the limit
		{500, 0.99, 0.98},
		{1000, 0.99, 0.99},
	} {
		if got := tailQuantile(c.n, c.limit); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, q := tail(xs, 0.95)
	if q != 0.90 || v != 90 {
		t.Errorf("tail of 1..100 = %v at q=%v, want 90 at 0.90", v, q)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Errorf("%d samples beyond the reported tail, want at least %d", beyond, minBeyond)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := quantile(s, 0.5); got != 2 {
		t.Errorf("quantile(0.5) = %v, want 2", got)
	}
	if got := quantile(s, 1); got != 4 {
		t.Errorf("quantile(1) = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
// and statistics.quantiles([10.2, 9.9, 10.0, 10.4, 9.7], n=4) == [9.8, 10.0, 10.3].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10.2, 9.9, 10.0, 10.4, 9.7})
	if math.Abs(q1-9.8) > 1e-9 || q2 != 10.0 || math.Abs(q3-10.3) > 1e-9 {
		t.Errorf("quartiles = %v %v %v, want 9.8 10 10.3", q1, q2, q3)
	}
	if got := iqrSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("iqrSpread = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", StartNS: 90, EndNS: 130}, // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", StartNS: 15, EndNS: 20},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the root's 100.
	for id, want := range map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 40, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderOpenCloseAndNil(t *testing.T) {
	var none *recorder
	if id := none.add("x", "r", 0, time.Now(), time.Second, 1); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	none.close(0, time.Now()) // must not panic
	rec := newRecorder()
	t0 := time.Now()
	root := rec.open("root", "r", 0, t0)
	kid := rec.add("kid", "r", root, t0, 5*time.Millisecond, 3)
	rec.close(root, t0.Add(20*time.Millisecond))
	spans := rec.snapshot()
	if len(spans) != 2 || spans[kid-1].Parent != root || spans[kid-1].Count != 3 {
		t.Fatalf("unexpected spans %+v", spans)
	}
	if d := spans[root-1].dur(); d != 20*time.Millisecond {
		t.Errorf("root span lasted %v, want 20ms", d)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(regexp.MustCompile(`\n`).FindAll(b, -1)); n != 2 {
		t.Errorf("%d lines written, want 2", n)
	}
}

// The sampler must not lose the bytes of a WAL generation that a
// compaction deletes.
func TestWALSamplerAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, size int) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), make([]byte, size), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("wal-00000000.log", 100) // there before sampling starts (set-up traffic)
	w := newWALSampler(dir)
	write("wal-00000000.log", 700)
	w.sample()
	write("wal-00000000.log", 900)
	w.sample()
	// Compaction: snapshot of the next generation, fresh WAL, old one gone.
	write("snapshot-00000001.json", 5000)
	write("snapshot-00000001.json.tmp", 1) // never counted
	write("wal-00000001.log", 0)
	if err := os.Remove(filepath.Join(dir, "wal-00000000.log")); err != nil {
		t.Fatal(err)
	}
	w.sample()
	write("wal-00000001.log", 250)
	go w.run()
	appended, compactions, snap := w.finish()
	if appended != 900-100+250 {
		t.Errorf("appended = %d, want %d", appended, 900-100+250)
	}
	if compactions != 1 || snap != 5000 {
		t.Errorf("compactions = %d, snapshot bytes = %d, want 1 and 5000", compactions, snap)
	}
}

// A refused submission is a failed operation and contributes to no
// latency figure.
func TestClosedLoopCountsRefusalsAsFailed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"run queue full"}`)) //nolint:errcheck
	}))
	defer srv.Close()
	ops, _ := closedLoop(loadConfig{
		base: srv.URL, clients: 2, window: 30 * time.Millisecond,
		next: distinctRuns(durableIDs, 1, true),
	})
	if len(ops) == 0 {
		t.Fatal("no operation attempted")
	}
	e := &env{workload: "test", cal: &calibrator{}, out: &outcome{m: map[string]float64{}, info: map[string]any{}}}
	s := summarise(e, load{ops: ops, wall: time.Second, normWall: time.Second})
	if e.out.attempted != len(ops) || e.out.failed != len(ops) {
		t.Errorf("attempted %d failed %d, want both %d", e.out.attempted, e.out.failed, len(ops))
	}
	if s.completed != 0 || len(s.e2eMS) != 0 || len(s.ackMS) != 0 {
		t.Errorf("refused operations entered the latency figures: %+v", s)
	}
	for _, o := range ops {
		if o.err == nil || !strings.Contains(o.err.Error(), "429") {
			t.Errorf("op %d: refusal not carried as a 429 error: %v", o.n, o.err)
		}
	}
	if err := reportServing(e, 0.1, s, 0); err == nil {
		t.Error("a phase with no completed run must not report metrics")
	}
}

func TestRequestsDeriveFromSeed(t *testing.T) {
	a, b := distinctRuns(durableIDs, 7, true), distinctRuns(durableIDs, 7, true)
	other := distinctRuns(durableIDs, 8, true)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		if a(i) != b(i) {
			t.Fatalf("request %d differs between two generators of one seed", i)
		}
		if seen[a(i).seed] {
			t.Fatalf("request %d repeats a run seed: it would memoise", i)
		}
		seen[a(i).seed] = true
		if a(i).seed == other(i).seed {
			t.Fatalf("request %d has the same run seed under benchmark seeds 7 and 8", i)
		}
	}
	keys := map[runReq]bool{}
	m := memoRuns(7)
	for i := 0; i < 100; i++ {
		keys[m(i)] = true
	}
	if len(keys) != memoKeys {
		t.Errorf("serve_memo cycles over %d keys, want %d", len(keys), memoKeys)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestDeclaredNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	setup := false
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
		if d.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed the contract",
			len(workloads), len(endToEnd), len(perLayer))
	}
}

// BENCHMARK.json is written by hand; it must say exactly what the
// harness reports, and survive a decode/encode round trip unchanged.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
		delete(keys, k)
	}
	for k := range keys {
		t.Errorf("BENCHMARK.json has the extra key %q", k)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	want := benchmarkFile{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: bf.RunSeconds,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	}
	got, _ := json.Marshal(bf)
	exp, _ := json.Marshal(want)
	if string(got) != string(exp) {
		t.Errorf("BENCHMARK.json and the harness disagree:\n file    %s\n harness %s", got, exp)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	// Round trip: encoding what was decoded gives the same document.
	var again benchmarkFile
	if err := json.Unmarshal(got, &again); err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(again); string(b) != string(got) {
		t.Error("BENCHMARK.json does not survive a round trip")
	}
}

func TestCalibratorBoundariesAndFactor(t *testing.T) {
	c := &calibrator{}
	if first := c.boundary(); first != 0 || len(c.ms) != 1 {
		t.Fatalf("first boundary at %d with %d samples, want 0 and 1", first, len(c.ms))
	}
	if again := c.boundary(); again != 0 || len(c.ms) != 1 {
		t.Errorf("a fresh boundary was sampled again: index %d, %d samples", again, len(c.ms))
	}
	c.last = time.Now().Add(-time.Second) // the boundary has gone stale
	if next := c.boundary(); next != 1 || len(c.ms) != 2 {
		t.Errorf("stale boundary: index %d, %d samples, want 1 and 2", next, len(c.ms))
	}
	c.ms = []float64{50, 50, 25, 25}
	if f := c.factorSince(2); f != 1 {
		t.Errorf("factor at nominal kernel time = %v, want 1", f)
	}
	if f := c.factorSince(0); math.Abs(f-calibNominalMS/37.5) > 1e-12 {
		t.Errorf("factor over all four samples = %v", f)
	}
	if f := (&calibrator{}).factor(); f != 1 {
		t.Errorf("factor without samples = %v, want 1", f)
	}
}
