package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/runtrace"
	"repro/internal/trace"
)

// RunOptions carries the invocation-time inputs a Spec does not pin:
// the base seed, the scale, and — for services running Specs on behalf
// of live clients — the cancellation and progress plumbing. Effective
// values resolve in Run.
type RunOptions struct {
	// Seed is the base RNG seed (the CLI -seed flag).
	Seed uint64
	// SeedExplicit marks Seed as user-chosen: it then overrides a
	// Spec-pinned seed instead of deferring to it.
	SeedExplicit bool
	// Scale overrides the Spec's pinned scale fieldwise (nonzero
	// fields win).
	Scale Scale

	// Context, when non-nil, cancels the run cooperatively: the cells
	// not yet started fail with the context's error, which the run
	// returns. Cells already executing finish first, so a cancel is
	// answered within roughly one cell's duration.
	Context context.Context
	// OnCellsStart observes the cell loop discovering work: it is
	// called with the cell count of every fan-out the run performs
	// (nested fan-outs report too, so the running total is the number
	// of cells discovered so far, not a final figure known up front).
	OnCellsStart func(n int)
	// OnCellDone observes one cell finishing with its wall duration.
	// It may be called concurrently from worker goroutines.
	OnCellDone func(index int, d time.Duration)

	// Remote, when non-nil, executes remoteable fan-outs (those whose
	// cells produce plain table rows — see CellRunner) through this
	// runner instead of the local pool: the fleet coordinator side of a
	// distributed run. Fan-outs that are not remoteable (custom cell
	// types, nested sub-runs, figure series) still run locally.
	Remote CellRunner
	// Select, when non-nil, filters which remoteable cells execute:
	// the fleet worker side of a distributed run executes only the
	// cells of its lease and skips the rest (a skipped cell contributes
	// no rows and no work).
	Select func(fanout, cell int) bool
	// OnCellRows observes the typed rows a remoteable cell produced,
	// with the cell's wall duration — how a fleet worker captures
	// results to ship back. It may be called concurrently from worker
	// goroutines.
	OnCellRows func(fanout, cell int, rows [][]any, d time.Duration)

	// fanouts numbers the run's remoteable fan-outs (see NextFanout);
	// Run installs a fresh one per run.
	fanouts *atomic.Int32
}

// Cell is one typed row of a table Result: the raw (unformatted)
// values the text renderer formats, aligned with Result.Headers. The
// leading Result.Axes values are the cell's sweep coordinates; the
// remaining values are measured metrics.
type Cell struct {
	// Index is the row position (stable across runs for a fixed spec).
	Index int `json:"index"`
	// Values holds the raw row values (ints, floats, strings, bools).
	Values []any `json:"values"`
	// Duration is the cell's wall-clock compute time in seconds; 0 for
	// rows assembled from shared work (multi-row fan-out cells).
	Duration float64 `json:"duration_seconds,omitempty"`
}

// CellView is the machine-readable form of one cell: axis and metric
// values keyed by column header (the /v1 API and -format json shape).
// Should a table repeat a header name, the later column wins.
type CellView struct {
	Index           int            `json:"index"`
	Axes            map[string]any `json:"axes,omitempty"`
	Metrics         map[string]any `json:"metrics,omitempty"`
	DurationSeconds float64        `json:"duration_seconds,omitempty"`
}

// Result is the primary artifact of running one Spec: the typed cells
// (plus identity — spec id, kind, effective seed) for machine
// consumers, with the legacy aligned-text table demoted to one
// renderer over those cells. Figure kinds carry a custom renderer and
// no cells.
type Result struct {
	// SpecID, Kind and Seed echo the resolved identity of the run
	// (filled by Run; empty when a runner is invoked directly).
	SpecID string
	Kind   string
	Seed   uint64
	// Title and Headers name the table; Axes counts the leading
	// sweep-coordinate columns (the rest are metrics).
	Title   string
	Headers []string
	Axes    int
	// Cells are the typed rows (nil for custom-rendered figures).
	Cells []Cell
	// Table is the text rendering of Cells, built once by the table
	// renderer so every consumer shows byte-identical output.
	Table *trace.Table
	// Traces holds the per-cell event traces when the Spec's trace
	// axis was set (cell order, one entry per cell sub-run). They ride
	// outside the table so rendered output and goldens are unchanged.
	Traces []runtrace.CellTrace
	// render emits custom (non-table) output; nil for table results.
	render func(w io.Writer) error
}

// RenderTable is the one text renderer: it formats the typed cells as
// the aligned-text table (identical, byte for byte, to the historical
// direct table construction — trace.Table formatting is unchanged).
func RenderTable(title string, headers []string, cells []Cell) *trace.Table {
	t := trace.NewTable(title, headers...)
	for _, c := range cells {
		t.AddRow(c.Values...)
	}
	return t
}

// NewCellResult builds a table Result from typed cells, deriving the
// text table through RenderTable.
func NewCellResult(title string, headers []string, axes int, cells []Cell) *Result {
	return &Result{
		Title: title, Headers: headers, Axes: axes, Cells: cells,
		Table: RenderTable(title, headers, cells),
	}
}

// CustomResult wraps a bespoke renderer (figures) as a Result.
func CustomResult(render func(w io.Writer) error) *Result {
	return &Result{render: render}
}

// CellViews returns the cells keyed by column header, split into axis
// and metric maps.
func (r *Result) CellViews() []CellView {
	out := make([]CellView, len(r.Cells))
	for i, c := range r.Cells {
		v := CellView{Index: c.Index, DurationSeconds: c.Duration}
		for k, val := range c.Values {
			if k >= len(r.Headers) {
				break
			}
			if k < r.Axes {
				if v.Axes == nil {
					v.Axes = map[string]any{}
				}
				v.Axes[r.Headers[k]] = val
			} else {
				if v.Metrics == nil {
					v.Metrics = map[string]any{}
				}
				v.Metrics[r.Headers[k]] = val
			}
		}
		out[i] = v
	}
	return out
}

// ResultJSON is the machine-readable envelope of a Result (the
// -format json output and the /v1 result payload body).
type ResultJSON struct {
	ID      string     `json:"id,omitempty"`
	Kind    string     `json:"kind,omitempty"`
	Seed    uint64     `json:"seed"`
	Title   string     `json:"title,omitempty"`
	Headers []string   `json:"headers,omitempty"`
	Axes    int        `json:"axes,omitempty"`
	Cells   []CellView `json:"cells,omitempty"`
	// Text carries custom (figure) renders, which have no cell form.
	Text string `json:"text,omitempty"`
}

// JSON returns the machine-readable envelope of the result.
func (r *Result) JSON() (ResultJSON, error) {
	out := ResultJSON{
		ID: r.SpecID, Kind: r.Kind, Seed: r.Seed,
		Title: r.Title, Headers: r.Headers, Axes: r.Axes,
	}
	if r.Table != nil || r.Cells != nil {
		out.Cells = r.CellViews()
		return out, nil
	}
	if r.render != nil {
		var buf bytes.Buffer
		if err := r.render(&buf); err != nil {
			return out, err
		}
		out.Text = buf.String()
		return out, nil
	}
	return out, fmt.Errorf("scenario: empty result")
}

// Emit writes the result: tables aligned (or CSV), custom renders
// verbatim (they have no CSV form, matching the legacy fig2 output).
func (r *Result) Emit(w io.Writer, csv bool) error {
	if csv {
		return r.EmitFormat(w, "csv")
	}
	return r.EmitFormat(w, "text")
}

// EmitFormat writes the result as "text" (the aligned table — byte
// identical to the historical output), "csv", or "json" (the typed
// cell envelope). Custom renders emit their bespoke text under "text"
// and "csv", and wrap it in the JSON envelope under "json".
func (r *Result) EmitFormat(w io.Writer, format string) error {
	switch format {
	case "", "text":
		if r.Table != nil {
			return r.Table.Write(w)
		}
	case "csv":
		if r.Table != nil {
			return r.Table.WriteCSV(w)
		}
	case "json":
		out, err := r.JSON()
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		return enc.Encode(out)
	default:
		return fmt.Errorf("scenario: unknown output format %q (text|json|csv)", format)
	}
	if r.render != nil {
		return r.render(w)
	}
	return fmt.Errorf("scenario: empty result")
}

// Runner expands one Spec into cells and runs them (several at once
// when opt.Scale.Workers > 1). The seed and scale in opt
// are already resolved against the Spec.
type Runner func(spec *Spec, opt RunOptions) (*Result, error)

// kind is one registered interpreter with its param schema.
type kind struct {
	run    Runner
	params map[string]ParamType
}

var (
	kinds = map[string]kind{}
	// builtins is the ordered catalog: registration order is display
	// and "all"-expansion order (the legacy CLI order).
	builtins []*Spec
	byID     = map[string]*Spec{}
)

// RegisterKind installs the interpreter for a kind with the kind's param
// schema: every param a spec of the kind may set, with the shape its
// value must have (nil: the kind takes no params). The schema is the
// kind's only declaration of its params; Validate enforces it, plus the
// floor and bound each size param gets from its name (paramSizes). The
// schema is not part of CatalogHash. Panics on duplicates: kinds
// register from init functions and a collision is a programming error.
func RegisterKind(name string, r Runner, params map[string]ParamType) {
	if name == "" || r == nil {
		panic("scenario: RegisterKind with empty kind or nil runner")
	}
	if _, dup := kinds[name]; dup {
		panic(fmt.Sprintf("scenario: kind %q registered twice", name))
	}
	kinds[name] = kind{run: r, params: params}
	catalogHash.Store(nil)
}

// HasKind reports whether an interpreter is registered for kind (so
// services can reject a Spec at submission time, before queueing it).
func HasKind(kind string) bool {
	_, ok := kinds[kind]
	return ok
}

// Kinds returns the sorted registered kind names.
func Kinds() []string {
	out := make([]string, 0, len(kinds))
	for k := range kinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Register adds a built-in Spec to the catalog (panics on duplicate
// ids or invalid specs — built-ins register from init functions).
func Register(s *Spec) {
	if err := s.Validate(Limits{}); err != nil {
		panic(err)
	}
	if _, dup := byID[s.ID]; dup {
		panic(fmt.Sprintf("scenario: spec %q registered twice", s.ID))
	}
	if s.Group == "" {
		s.Group = GroupTable
	}
	builtins = append(builtins, s)
	byID[s.ID] = s
	catalogHash.Store(nil)
}

// Lookup resolves a catalog id.
func Lookup(id string) (*Spec, bool) {
	s, ok := byID[id]
	return s, ok
}

// Catalog returns the built-in specs in registration order (figures,
// then tables, then ablations — the legacy "all" order).
func Catalog() []*Spec {
	return append([]*Spec(nil), builtins...)
}

// EffectiveSeed resolves the seed precedence rule in one place (Run
// and the HTTP submission path both use it): an explicitly chosen
// invocation seed wins over a Spec-pinned one.
func (s *Spec) EffectiveSeed(opt RunOptions) uint64 {
	if s.Seed != nil && !opt.SeedExplicit {
		return *s.Seed
	}
	return opt.Seed
}

// Run validates and executes a Spec: it resolves the kind, merges the
// Spec-pinned seed/scale with the invocation options (an explicit
// -seed wins over the Spec; nonzero option scale fields win), and
// invokes the registered runner. A runner panic comes back as an error
// naming the spec: services call Run on plain executor goroutines, and
// a pathological inline spec (Validate does not prove a runner cannot
// fail) must fail its run, not crash the daemon. Cell panics on the worker
// pool are contained there, as that cell's error.
func Run(s *Spec, opt RunOptions) (res *Result, err error) {
	if err := s.Validate(Limits{}); err != nil {
		return nil, err
	}
	k, ok := kinds[s.Kind]
	if !ok {
		return nil, fmt.Errorf("scenario: spec %q: unknown kind %q (have: %s)",
			s.ID, s.Kind, strings.Join(Kinds(), " "))
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("scenario: spec %q (kind %q) panicked: %v", s.ID, s.Kind, p)
		}
	}()
	opt.fanouts = new(atomic.Int32)
	opt.Seed = s.EffectiveSeed(opt)
	if s.Scale != nil {
		if opt.Scale.JobFactor == 0 {
			opt.Scale.JobFactor = s.Scale.JobFactor
		}
		if opt.Scale.Workers == 0 {
			opt.Scale.Workers = s.Scale.Workers
		}
	}
	res, err = k.run(s, opt)
	if res != nil {
		res.SpecID, res.Kind, res.Seed = s.ID, s.Kind, opt.Seed
	}
	if err == nil && res != nil && s.Traced() && len(res.Traces) == 0 {
		return nil, fmt.Errorf("scenario: spec %q: kind %q does not record traces", s.ID, s.Kind)
	}
	return res, err
}

// WriteCatalog prints the scenario catalog as an aligned listing
// (the `gridctl scenarios` output, whose first column scripts read as
// the id list).
func WriteCatalog(w io.Writer) error {
	idw, kindw := 0, 0
	for _, s := range builtins {
		if len(s.ID) > idw {
			idw = len(s.ID)
		}
		if len(s.Kind) > kindw {
			kindw = len(s.Kind)
		}
	}
	for _, s := range builtins {
		desc := s.Desc
		if desc == "" {
			desc = s.Title
		}
		if _, err := fmt.Fprintf(w, "%-*s  %-8s  %-*s  %s\n", idw, s.ID, s.Group, kindw, s.Kind, desc); err != nil {
			return err
		}
	}
	return nil
}
