// Package scenario is the declarative experiment layer: a composable
// Spec describes one scenario — workload generator, platform, policy
// set (resolved through internal/registry), grid routing, metric
// selection, seeds and scale — and a kind registry maps each Spec to
// the engine code that expands it into independent cells for the
// experiment worker pool.
//
// Specs are pure data: they build programmatically through functional
// options (scenario.New), encode/decode losslessly as JSON (codec.go),
// and run through the catalog (catalog.go). The built-in catalog
// re-expresses every table and ablation of the paper's evaluation as a
// Spec, and the generic kinds ("offline", "online", "grid") let a JSON
// file describe arbitrary new workload × platform × policy × routing
// combinations without writing Go.
package scenario

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Group classifies a catalog entry for listing and for the "all" /
// "ablations" expansions of `gridctl local`.
const (
	GroupFigure   = "figure"
	GroupTable    = "table"
	GroupAblation = "ablation"
)

// Workload declaratively describes a job stream. It mirrors
// workload.GenConfig plus the generator choice; zero values defer to
// the generator defaults (or to the kind's own defaults).
type Workload struct {
	// Generator selects the job-shape family: "parallel" (default),
	// "sequential", "mixed" or "communities".
	Generator string `json:"generator,omitempty"`
	// N is the job count (before Scale.JobFactor shrinking).
	N int `json:"n,omitempty"`
	// M is the target platform width the generator shapes jobs for.
	M int `json:"m,omitempty"`
	// ArrivalRate is the Poisson arrival rate. 0 (or absent) defers to
	// the kind's default; -1 forces an offline stream (all jobs
	// released at t=0) even when the kind defaults to a positive rate.
	ArrivalRate float64 `json:"arrival_rate,omitempty"`
	// Weighted draws Zipf-biased job weights.
	Weighted bool `json:"weighted,omitempty"`
	// RigidFraction freezes this fraction of jobs rigid.
	RigidFraction float64 `json:"rigid_fraction,omitempty"`
	// MaxProcsCap caps each job's MaxProcs below M.
	MaxProcsCap int `json:"max_procs_cap,omitempty"`
	// SeqMu, SeqSigma override the lognormal sequential-time parameters.
	SeqMu    float64 `json:"seq_mu,omitempty"`
	SeqSigma float64 `json:"seq_sigma,omitempty"`
	// DueDateSlack assigns due dates with slack in [1, DueDateSlack].
	DueDateSlack float64 `json:"due_date_slack,omitempty"`
}

// Cluster declaratively describes one cluster of a grid platform.
type Cluster struct {
	Name  string  `json:"name"`
	M     int     `json:"m"`
	Speed float64 `json:"speed,omitempty"` // default 1
}

// Platform declaratively describes where a scenario runs: a flat
// m-processor cluster, an explicit heterogeneous fleet, or a named
// preset ("ciment").
type Platform struct {
	// M is the single-cluster width (kinds fall back to their default).
	M int `json:"m,omitempty"`
	// Preset names a built-in platform ("ciment" — the Figure 3 grid).
	Preset string `json:"preset,omitempty"`
	// Clusters lists an explicit fleet for grid kinds.
	Clusters []Cluster `json:"clusters,omitempty"`
}

// Grid declaratively describes multi-cluster routing for grid kinds.
type Grid struct {
	// Policy names a registry grid-routing policy ("centralized", ...).
	// Empty sweeps the whole grid catalog.
	Policy string `json:"policy,omitempty"`
	// ExchangePeriod is the router invocation period (virtual seconds).
	ExchangePeriod float64 `json:"exchange_period,omitempty"`
	// Threshold and MaxMove tune the exchange protocols.
	Threshold float64 `json:"threshold,omitempty"`
	MaxMove   int     `json:"max_move,omitempty"`
	// CampaignTasks adds a best-effort campaign of this many tasks.
	// 0 (or absent) defers to the kind's default; -1 disables the
	// campaign entirely.
	CampaignTasks int `json:"campaign_tasks,omitempty"`
	// CampaignRunTime is the per-task duration (default 30).
	CampaignRunTime float64 `json:"campaign_run_time,omitempty"`
}

// Faults declaratively describes a deterministic fault-injection plan.
// A nil Faults field means a permanently healthy fleet — the default,
// with zero cost on the healthy hot path. Times are virtual seconds,
// capacities are processors.
type Faults struct {
	// MTBF enables seeded node churn: crashes arrive with exponential
	// inter-arrival times of this mean (virtual seconds).
	MTBF float64 `json:"mtbf,omitempty"`
	// MTTR is the mean repair time of a churn crash (exponential;
	// default MTBF/10).
	MTTR float64 `json:"mttr,omitempty"`
	// CrashProcs is the number of processors taken per churn crash
	// (default 1; capped at the cluster width).
	CrashProcs int `json:"crash_procs,omitempty"`
	// MaxCrashes bounds the churn process (0 = unlimited; churn also
	// stops on its own once all known work has completed).
	MaxCrashes int `json:"max_crashes,omitempty"`
	// Seed offsets the fault RNG stream from the scenario seed, so the
	// fault schedule can be varied independently of the workload.
	Seed uint64 `json:"seed,omitempty"`
	// Outages schedules deterministic capacity-loss windows.
	Outages []Outage `json:"outages,omitempty"`
	// Trace is a piecewise-constant availability timeline: at each
	// step's time the working-processor count is pinned to its value.
	Trace []AvailStep `json:"trace,omitempty"`
	// Partitions cut clusters off the broker for a window (grid kinds
	// only): no placements, grants or migrations reach a partitioned
	// cluster while the window is open.
	Partitions []PartitionWindow `json:"partitions,omitempty"`
}

// Outage is one scheduled capacity-loss window.
type Outage struct {
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Procs is the capacity lost; 0 (or absent) means the whole cluster.
	Procs int `json:"procs,omitempty"`
}

// AvailStep is one step of a time-varying availability trace.
type AvailStep struct {
	Time  float64 `json:"time"`
	Avail int     `json:"avail"`
}

// PartitionWindow cuts the listed clusters (fleet indices) off the
// broker during [Start, End).
type PartitionWindow struct {
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
	Clusters []int   `json:"clusters"`
}

// Validate checks the window on its own: a non-empty [Start, End) from a
// non-negative start, cutting at least one cluster and no negative
// index. Whether an index exists depends on the fleet the window is
// applied to.
func (w PartitionWindow) Validate() error {
	if w.Start < 0 || math.IsNaN(w.Start) || math.IsNaN(w.End) || w.End <= w.Start {
		return fmt.Errorf("window [%v, %v) invalid", w.Start, w.End)
	}
	if len(w.Clusters) == 0 {
		return fmt.Errorf("cuts no clusters")
	}
	for _, c := range w.Clusters {
		if c < 0 {
			return fmt.Errorf("lists cluster %d", c)
		}
	}
	return nil
}

// Partitioned reports whether any of the windows cuts cluster i off at
// virtual time now.
func Partitioned(windows []PartitionWindow, i int, now float64) bool {
	for _, w := range windows {
		if now < w.Start || now >= w.End {
			continue
		}
		for _, c := range w.Clusters {
			if c == i {
				return true
			}
		}
	}
	return false
}

// Scale shrinks a scenario and selects the replication runner: a Spec
// may pin a scale, RunOptions may override it at invocation time, and
// the kind runners and the cell pool read the merged value.
type Scale struct {
	// JobFactor divides job counts (min result 10); 0/1 = paper scale.
	JobFactor int `json:"job_factor,omitempty"`
	// Workers bounds how many cells run at once (0/1 = sequential).
	Workers int `json:"workers,omitempty"`
}

// Spec is one declarative scenario. Kind selects the engine
// interpreter (a registered cell-expansion function); everything else
// is data the interpreter reads, falling back to the kind's built-in
// defaults for absent fields — so the zero Spec of a kind reproduces
// the paper's table exactly.
type Spec struct {
	// ID is the catalog identity (and CLI argument).
	ID string `json:"id"`
	// Kind names the registered interpreter that expands this Spec.
	Kind string `json:"kind"`
	// Title overrides the output table's title line.
	Title string `json:"title,omitempty"`
	// Group is the catalog group (figure/table/ablation); defaults to
	// "table" for registered specs.
	Group string `json:"group,omitempty"`
	// Desc is the one-line catalog description.
	Desc string `json:"desc,omitempty"`
	// Seed pins the base RNG seed; nil defers to RunOptions.Seed.
	Seed *uint64 `json:"seed,omitempty"`

	Workload *Workload `json:"workload,omitempty"`
	Platform *Platform `json:"platform,omitempty"`
	// Policies names registry queue/offline policies the kind sweeps.
	Policies []string `json:"policies,omitempty"`
	Grid     *Grid    `json:"grid,omitempty"`
	// Faults is the fault-injection plan (nil = healthy fleet).
	Faults *Faults `json:"faults,omitempty"`
	// Trace switches per-cell event tracing on (nil = no tracing, the
	// batch hot path pays nothing).
	Trace *Trace `json:"trace,omitempty"`
	// Metrics selects report columns for the generic kinds.
	Metrics []string `json:"metrics,omitempty"`
	// Scale pins a scale for this Spec (RunOptions overrides win).
	Scale *Scale `json:"scale,omitempty"`

	// Params carries kind-specific knobs (sweep axes, tolerances...).
	// Values are JSON scalars or arrays; use the typed accessors, which
	// coerce the float64s JSON decoding produces.
	Params map[string]any `json:"params,omitempty"`
}

// Option is a functional Spec option for the Go builder.
type Option func(*Spec)

// New builds a Spec from functional options.
func New(id, kind string, opts ...Option) *Spec {
	s := &Spec{ID: id, Kind: kind}
	for _, o := range opts {
		o(s)
	}
	return s
}

// WithTitle sets the output title line.
func WithTitle(t string) Option { return func(s *Spec) { s.Title = t } }

// WithGroup sets the catalog group.
func WithGroup(g string) Option { return func(s *Spec) { s.Group = g } }

// WithDesc sets the catalog description.
func WithDesc(d string) Option { return func(s *Spec) { s.Desc = d } }

// WithWorkload sets the workload description.
func WithWorkload(w Workload) Option { return func(s *Spec) { s.Workload = &w } }

// WithGrid sets the grid routing description.
func WithGrid(g Grid) Option { return func(s *Spec) { s.Grid = &g } }

// WithParam sets one kind-specific parameter.
func WithParam(key string, value any) Option {
	return func(s *Spec) {
		if s.Params == nil {
			s.Params = map[string]any{}
		}
		s.Params[key] = value
	}
}

// Limits bounds what a spec may ask of the host that runs it. The zero
// value bounds nothing: gridctl local, the catalog and Run validate with
// it. The /v1 API sets all three for inline specs, because cancellation
// is cooperative per cell and one huge cell could pin an executor for
// its whole duration.
type Limits struct {
	// MaxJobs bounds every job count: workload.n, grid.campaign_tasks
	// and each jobs-class param (0 = unbounded).
	MaxJobs int
	// MaxProcs bounds every platform width: workload.m, platform.m,
	// platform.clusters[].m and each procs-class param (0 = unbounded).
	MaxProcs int
	// NoServerPaths refuses every param that names a file on the host
	// (params.swf).
	NoServerPaths bool
}

// Validate is the one judge of whether a spec is acceptable. It checks
// the structural invariants common to every kind; the param schema the
// spec's kind declared through RegisterKind (skipped for a kind nobody
// registered — Run and the API refuse such a kind themselves); the
// floor of every size param, whose value and every list entry must be
// at least 1 (no runner gives a lower value a meaning); the floor of the
// load-exchange settings (checkExchange); and, under non-zero lim, the
// job and processor bounds and the server-path ban.
func (s *Spec) Validate(lim Limits) error {
	if s == nil {
		return fmt.Errorf("scenario: nil spec")
	}
	if s.ID == "" {
		return fmt.Errorf("scenario: spec has no id")
	}
	if s.Kind == "" {
		return fmt.Errorf("scenario: spec %q has no kind", s.ID)
	}
	switch s.Group {
	case "", GroupFigure, GroupTable, GroupAblation:
	default:
		return fmt.Errorf("scenario: spec %q: unknown group %q", s.ID, s.Group)
	}
	if s.Workload != nil {
		switch s.Workload.Generator {
		case "", "parallel", "sequential", "mixed", "communities":
		default:
			return fmt.Errorf("scenario: spec %q: unknown workload generator %q", s.ID, s.Workload.Generator)
		}
		if s.Workload.N < 0 || s.Workload.M < 0 {
			return fmt.Errorf("scenario: spec %q: negative workload size", s.ID)
		}
	}
	if p := s.Platform; p != nil {
		if p.Preset != "" && p.Preset != "ciment" {
			return fmt.Errorf("scenario: spec %q: unknown platform preset %q", s.ID, p.Preset)
		}
		for _, c := range p.Clusters {
			if c.M <= 0 {
				return fmt.Errorf("scenario: spec %q: cluster %q has m=%d", s.ID, c.Name, c.M)
			}
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q: %w", s.ID, err)
		}
	}
	if s.Trace != nil {
		if err := s.Trace.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q: %w", s.ID, err)
		}
	}
	for k, v := range s.Params {
		if !validParam(v) {
			return fmt.Errorf("scenario: spec %q: param %q: unsupported value %T", s.ID, k, v)
		}
	}
	if err := s.checkParams(lim); err != nil {
		return err
	}
	if err := s.checkExchange(); err != nil {
		return err
	}
	return s.checkSizes(lim)
}

// MinExchangePeriod is the shortest load-exchange period a spec may set,
// in virtual seconds. A round re-arms the next while work is
// outstanding, so a period far below the jobs' time scale runs rounds
// by the million while the run's clock barely moves.
const MinExchangePeriod = 1

// checkExchange refuses load-exchange settings that would hang a run or
// that the routers would silently replace: an exchange period
// (params.period, grid.exchange_period) below MinExchangePeriod, and an
// imbalance threshold (params.threshold, grid.threshold) of 1 or less.
// A zero grid field is absent and keeps the kind's default.
func (s *Spec) checkExchange() error {
	var g Grid
	if s.Grid != nil {
		g = *s.Grid
	}
	for _, k := range []struct {
		field     string
		v         float64
		set       bool
		threshold bool
	}{
		{"params.period", s.Float("period", 0), s.Params["period"] != nil, false},
		{"grid.exchange_period", g.ExchangePeriod, g.ExchangePeriod != 0, false},
		{"params.threshold", s.Float("threshold", 0), s.Params["threshold"] != nil, true},
		{"grid.threshold", g.Threshold, g.Threshold != 0, true},
	} {
		switch {
		case !k.set:
		case k.threshold && !(k.v > 1):
			return fmt.Errorf("scenario: spec %q: %s = %v, want an imbalance threshold above 1", s.ID, k.field, k.v)
		case !k.threshold && !(k.v >= MinExchangePeriod):
			return fmt.Errorf("scenario: spec %q: %s = %v, want an exchange period of at least %v virtual second",
				s.ID, k.field, k.v, MinExchangePeriod)
		}
	}
	return nil
}

// Validate checks the fault plan's structural invariants.
func (f *Faults) Validate() error {
	if f.MTBF < 0 || f.MTTR < 0 {
		return fmt.Errorf("faults: negative MTBF/MTTR")
	}
	if f.MTTR > 0 && f.MTBF == 0 {
		return fmt.Errorf("faults: MTTR without MTBF")
	}
	if f.CrashProcs < 0 || f.MaxCrashes < 0 {
		return fmt.Errorf("faults: negative crash_procs/max_crashes")
	}
	if (f.CrashProcs > 0 || f.MaxCrashes > 0) && f.MTBF == 0 {
		return fmt.Errorf("faults: crash_procs/max_crashes without MTBF")
	}
	for i, o := range f.Outages {
		if o.Start < 0 || math.IsNaN(o.Start) || math.IsNaN(o.End) {
			return fmt.Errorf("faults: outage %d starts at %v", i, o.Start)
		}
		if o.End <= o.Start {
			return fmt.Errorf("faults: outage %d window [%v, %v) is empty", i, o.Start, o.End)
		}
		if o.Procs < 0 {
			return fmt.Errorf("faults: outage %d takes %d procs", i, o.Procs)
		}
	}
	for i, st := range f.Trace {
		if st.Time < 0 || math.IsNaN(st.Time) {
			return fmt.Errorf("faults: trace step %d at time %v", i, st.Time)
		}
		if st.Avail < 0 {
			return fmt.Errorf("faults: trace step %d pins avail %d", i, st.Avail)
		}
		if i > 0 && st.Time < f.Trace[i-1].Time {
			return fmt.Errorf("faults: trace step %d goes back in time", i)
		}
	}
	for i, p := range f.Partitions {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("faults: partition %d %w", i, err)
		}
	}
	if f.MTBF == 0 && len(f.Outages) == 0 && len(f.Trace) == 0 && len(f.Partitions) == 0 {
		return fmt.Errorf("faults: empty plan (omit the faults field instead)")
	}
	return nil
}

// Trace is the event-tracing axis: when present (with Events true) kind
// runners record one structured event trace per cell sub-run and attach
// them to the Result.
type Trace struct {
	// Events must be true — omit the trace field entirely to keep
	// tracing off.
	Events bool `json:"events"`
	// MaxEvents caps recorded events per cell sub-run (0 = unlimited;
	// the /v1 API clamps inline specs server-side). Events beyond the
	// cap are counted as dropped, not stored.
	MaxEvents int `json:"max_events,omitempty"`
}

// Validate checks the trace axis's structural invariants.
func (t *Trace) Validate() error {
	if !t.Events {
		return fmt.Errorf("trace: events must be true (omit the trace field instead)")
	}
	if t.MaxEvents < 0 {
		return fmt.Errorf("trace: negative max_events")
	}
	return nil
}

// Traced reports whether the spec requests event tracing.
func (s *Spec) Traced() bool { return s.Trace != nil && s.Trace.Events }

func validParam(v any) bool {
	switch v := v.(type) {
	case nil, bool, string, float64, int:
		return true
	case []any:
		for _, e := range v {
			if !validParam(e) {
				return false
			}
		}
		return true
	case []int, []float64, []string:
		return true
	default:
		return false
	}
}

// ParamType declares the expected shape of one kind parameter in the
// schema a kind registers.
type ParamType int

const (
	FloatParam  ParamType = iota // scalar number (ints coerce)
	IntParam                     // scalar number, used as int
	FloatsParam                  // list of numbers
	IntsParam                    // list of numbers, used as ints
	StringParam
	StringsParam
	BoolParam
)

func (p ParamType) String() string {
	switch p {
	case FloatParam:
		return "number"
	case IntParam:
		return "integer"
	case FloatsParam:
		return "list of numbers"
	case IntsParam:
		return "list of integers"
	case StringParam:
		return "string"
	case StringsParam:
		return "list of strings"
	case BoolParam:
		return "boolean"
	}
	return "unknown"
}

// sizeClass says what a param's value measures, which decides the floor
// and the bound Validate applies to it. The zero class sizes nothing.
type sizeClass int

const (
	sizeJobs  sizeClass = iota + 1 // a job, task or replication count, or a buffer sized by one
	sizeProcs                      // a processor count
	sizePath                       // a file path on the host that runs the spec
)

// paramSizes classes params by name: every kind that declares one of
// these names uses it for the same kind of quantity.
var paramSizes = map[string]sizeClass{
	"n": sizeJobs, "ns": sizeJobs, "quick_ns": sizeJobs, "tasks": sizeJobs,
	"runs": sizeJobs, "reps": sizeJobs, "ring": sizeJobs, "max_move": sizeJobs,
	"m": sizeProcs, "ms": sizeProcs, "crash_procs": sizeProcs,
	"swf": sizePath,
}

// checkParams enforces the kind's param schema (every present key must
// be declared and its value must coerce to the declared type, so a
// typo'd key or a mistyped value fails loudly instead of silently
// falling back to the kind's default — the same contract the codec
// applies to struct fields), then the floor and the bounds of every size
// param.
func (s *Spec) checkParams(lim Limits) error {
	k, registered := kinds[s.Kind]
	for _, key := range slices.Sorted(maps.Keys(s.Params)) {
		v := s.Params[key]
		if registered {
			pt, ok := k.params[key]
			if !ok {
				return fmt.Errorf("scenario: spec %q: unknown param %q for kind %q (known: %s)",
					s.ID, key, s.Kind, strings.Join(slices.Sorted(maps.Keys(k.params)), " "))
			}
			if !s.paramHasType(key, pt) {
				return fmt.Errorf("scenario: spec %q: param %q must be a %s (lists non-empty, integers whole), got %v (%T)",
					s.ID, key, pt, v, v)
			}
		}
		class := paramSizes[key]
		if class == sizePath && lim.NoServerPaths {
			return fmt.Errorf("scenario: spec %q sets params.%s, a server-side file path "+
				"(replay local archives with gridctl local <spec.json>)", s.ID, key)
		}
		if class != sizeJobs && class != sizeProcs {
			continue
		}
		bound := lim.MaxJobs
		if class == sizeProcs {
			bound = lim.MaxProcs
		}
		nums := s.Floats(key, nil)
		if f, ok := toFloat(v); ok {
			nums = []float64{f}
		}
		for _, f := range nums {
			if f < 1 {
				return fmt.Errorf("scenario: spec %q: param %q holds %v, want at least 1", s.ID, key, f)
			}
			if err := s.checkBound("params."+key, f, bound); err != nil {
				return err
			}
		}
	}
	return nil
}

// paramHasType reports whether the key's value coerces to pt.
func (s *Spec) paramHasType(key string, pt ParamType) bool {
	v := s.Params[key]
	switch pt {
	case FloatParam:
		_, ok := toFloat(v)
		return ok
	case IntParam:
		f, ok := toFloat(v)
		return ok && f == math.Trunc(f)
	case FloatsParam, IntsParam:
		fs := s.Floats(key, nil)
		if len(fs) == 0 {
			return false
		}
		for _, f := range fs {
			if pt == IntsParam && f != math.Trunc(f) {
				return false
			}
		}
		return true
	case StringParam:
		_, ok := v.(string)
		return ok
	case StringsParam:
		return len(s.Strings(key, nil)) > 0
	case BoolParam:
		_, ok := v.(bool)
		return ok
	}
	return false
}

// checkSizes bounds the struct fields that size a run under lim.
func (s *Spec) checkSizes(lim Limits) error {
	var err error
	check := func(field string, v, bound int) {
		if err == nil {
			err = s.checkBound(field, float64(v), bound)
		}
	}
	if w := s.Workload; w != nil {
		check("workload.n", w.N, lim.MaxJobs)
		check("workload.m", w.M, lim.MaxProcs)
	}
	if g := s.Grid; g != nil {
		check("grid.campaign_tasks", g.CampaignTasks, lim.MaxJobs)
	}
	if p := s.Platform; p != nil {
		check("platform.m", p.M, lim.MaxProcs)
		for _, c := range p.Clusters {
			check("platform.clusters[].m", c.M, lim.MaxProcs)
		}
	}
	return err
}

// checkBound refuses v above a non-zero bound.
func (s *Spec) checkBound(field string, v float64, bound int) error {
	if bound > 0 && v > float64(bound) {
		return fmt.Errorf("scenario: spec %q requests %s = %s (max %d server-side; run it with gridctl local)",
			s.ID, field, strconv.FormatFloat(v, 'f', -1, 64), bound)
	}
	return nil
}

// --- typed parameter accessors -------------------------------------
//
// JSON decoding produces float64 and []any; Go-built specs hold native
// ints and slices. The accessors coerce both so a round-tripped Spec
// behaves identically to the Go-built one.

// Float returns the named scalar, or def when absent.
func (s *Spec) Float(key string, def float64) float64 {
	v, ok := s.Params[key]
	if !ok {
		return def
	}
	f, ok := toFloat(v)
	if !ok {
		return def
	}
	return f
}

// Int returns the named scalar as an int, or def when absent.
func (s *Spec) Int(key string, def int) int {
	f := s.Float(key, math.NaN())
	if math.IsNaN(f) {
		return def
	}
	return int(f)
}

// String returns the named string, or def when absent.
func (s *Spec) String(key, def string) string {
	if v, ok := s.Params[key]; ok {
		if str, ok := v.(string); ok {
			return str
		}
	}
	return def
}

// Floats returns the named list, or def when absent.
func (s *Spec) Floats(key string, def []float64) []float64 {
	v, ok := s.Params[key]
	if !ok {
		return def
	}
	switch v := v.(type) {
	case []float64:
		return v
	case []int:
		out := make([]float64, len(v))
		for i, e := range v {
			out[i] = float64(e)
		}
		return out
	case []any:
		out := make([]float64, 0, len(v))
		for _, e := range v {
			f, ok := toFloat(e)
			if !ok {
				return def
			}
			out = append(out, f)
		}
		return out
	}
	return def
}

// Ints returns the named list as ints, or def when absent.
func (s *Spec) Ints(key string, def []int) []int {
	fs := s.Floats(key, nil)
	if fs == nil {
		return def
	}
	out := make([]int, len(fs))
	for i, f := range fs {
		out[i] = int(f)
	}
	return out
}

// Strings returns the named string list, or def when absent.
func (s *Spec) Strings(key string, def []string) []string {
	v, ok := s.Params[key]
	if !ok {
		return def
	}
	switch v := v.(type) {
	case []string:
		return v
	case []any:
		out := make([]string, 0, len(v))
		for _, e := range v {
			str, ok := e.(string)
			if !ok {
				return def
			}
			out = append(out, str)
		}
		return out
	}
	return def
}

func toFloat(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	}
	return 0, false
}
