package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// encode is the Spec's canonical JSON form.
func encode(t *testing.T, s *Spec) []byte {
	t.Helper()
	data, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBuilderAndValidate(t *testing.T) {
	s := New("demo", "demo-kind",
		WithTitle("demo title"),
		WithDesc("a demo"),
		WithGroup(GroupTable),
		WithWorkload(Workload{Generator: "parallel", N: 50, M: 16, Weighted: true}),
		WithParam("eps", 0.05),
		WithParam("ms", []int{8, 16}),
	)
	seed := uint64(7)
	s.Seed, s.Platform, s.Scale = &seed, &Platform{M: 16}, &Scale{JobFactor: 10}
	s.Policies, s.Metrics = []string{"mrt", "ffdh"}, []string{"cmax_ratio", "util"}
	if err := s.Validate(Limits{}); err != nil {
		t.Fatal(err)
	}
	if s.Seed == nil || *s.Seed != 7 {
		t.Fatalf("seed not pinned: %v", s.Seed)
	}
	if got := s.Float("eps", 0); got != 0.05 {
		t.Fatalf("eps = %v", got)
	}
	if got := s.Ints("ms", nil); !reflect.DeepEqual(got, []int{8, 16}) {
		t.Fatalf("ms = %v", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []*Spec{
		{},        // no id
		{ID: "x"}, // no kind
		{ID: "x", Kind: "k", Group: "banana"},
		{ID: "x", Kind: "k", Workload: &Workload{Generator: "quantum"}},
		{ID: "x", Kind: "k", Workload: &Workload{N: -1}},
		{ID: "x", Kind: "k", Platform: &Platform{Preset: "mars"}},
		{ID: "x", Kind: "k", Platform: &Platform{Clusters: []Cluster{{Name: "a", M: 0}}}},
		{ID: "x", Kind: "k", Params: map[string]any{"bad": struct{}{}}},
	}
	for i, s := range cases {
		if err := s.Validate(Limits{}); err == nil {
			t.Fatalf("case %d: invalid spec %+v passed validation", i, s)
		}
	}
}

// TestParamCoercion: the accessors must behave identically on Go-native
// values and on what encoding/json produces (float64 and []any).
func TestParamCoercion(t *testing.T) {
	native := New("p", "k",
		WithParam("n", 300),
		WithParam("eps", 0.01),
		WithParam("ms", []int{16, 64}),
		WithParam("rates", []float64{0.05, 0.5}),
		WithParam("names", []string{"a", "b"}),
		WithParam("mode", "fast"),
	)
	decoded, err := Decode(bytes.NewReader(encode(t, native)))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Spec{native, decoded} {
		if got := s.Int("n", 0); got != 300 {
			t.Fatalf("Int(n) = %d", got)
		}
		if got := s.Float("eps", 0); got != 0.01 {
			t.Fatalf("Float(eps) = %v", got)
		}
		if got := s.Ints("ms", nil); !reflect.DeepEqual(got, []int{16, 64}) {
			t.Fatalf("Ints(ms) = %v", got)
		}
		if got := s.Floats("rates", nil); !reflect.DeepEqual(got, []float64{0.05, 0.5}) {
			t.Fatalf("Floats(rates) = %v", got)
		}
		if got := s.Strings("names", nil); !reflect.DeepEqual(got, []string{"a", "b"}) {
			t.Fatalf("Strings(names) = %v", got)
		}
		if got := s.String("mode", ""); got != "fast" {
			t.Fatalf("String(mode) = %q", got)
		}
		// Defaults on absent keys.
		if got := s.Int("missing", 42); got != 42 {
			t.Fatalf("Int default = %d", got)
		}
		if got := s.Ints("missing", []int{1}); !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("Ints default = %v", got)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := Decode(strings.NewReader(`{"id":"x","kind":"k","wrokload":{"n":5}}`))
	if err == nil {
		t.Fatal("typo'd field accepted")
	}
}

func TestCodecRoundTripStructural(t *testing.T) {
	s := New("rt", "grid",
		WithTitle("t"),
		WithWorkload(Workload{N: 100, M: 32, ArrivalRate: 0.1, RigidFraction: 1}),
		WithGrid(Grid{Policy: "centralized", CampaignTasks: 100}),
	)
	s.Platform = &Platform{Clusters: []Cluster{{Name: "a", M: 64}, {Name: "b", M: 32, Speed: 2}}}
	s.Policies = []string{"easy"}
	data := encode(t, s)
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Params aside (JSON numeric widening), the structures must match.
	s2 := *got
	if !reflect.DeepEqual(s.Workload, s2.Workload) ||
		!reflect.DeepEqual(s.Platform, s2.Platform) ||
		!reflect.DeepEqual(s.Grid, s2.Grid) ||
		!reflect.DeepEqual(s.Policies, s2.Policies) ||
		s.ID != s2.ID || s.Kind != s2.Kind || s.Title != s2.Title {
		t.Fatalf("round trip mutated spec:\n  in:  %+v\n  out: %+v", s, got)
	}
	// And a second encode is byte-identical (canonical form).
	if data2 := encode(t, got); !bytes.Equal(data, data2) {
		t.Fatalf("re-encode not byte-stable:\n%s\nvs\n%s", data, data2)
	}
}

// TestRunUnknownKind: Run fails a spec it cannot run with an error
// instead of crashing — an unregistered kind, or a runner that panics.
func TestRunUnknownKind(t *testing.T) {
	RegisterKind("panic-probe-kind", func(*Spec, RunOptions) (*Result, error) { panic("poison spec") }, nil)
	for spec, want := range map[*Spec]string{
		New("x", "no-such-kind"):          "unknown kind",
		New("poison", "panic-probe-kind"): `spec "poison" (kind "panic-probe-kind") panicked: poison spec`,
	} {
		res, err := Run(spec, RunOptions{Seed: 1})
		if res != nil || err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: res = %v, err = %v, want %q", spec.ID, res, err, want)
		}
	}
}

// TestRunSeedAndScaleResolution uses a private probe kind to check the
// Spec/RunOptions merge rules, and that every run numbers its fan-outs
// from 0 on a counter of its own.
func TestRunSeedAndScaleResolution(t *testing.T) {
	var gotSeed uint64
	var gotScale Scale
	RegisterKind("probe-kind", func(s *Spec, opt RunOptions) (*Result, error) {
		gotSeed, gotScale = opt.Seed, opt.Scale
		if a, b := opt.NextFanout(), opt.NextFanout(); a != 0 || b != 1 {
			t.Errorf("fan-outs numbered %d, %d; want 0, 1", a, b)
		}
		return NewCellResult("probe", []string{"c"}, 0, nil), nil
	}, nil)
	seed := uint64(99)
	spec := &Spec{ID: "probe", Kind: "probe-kind", Seed: &seed, Scale: &Scale{JobFactor: 5, Workers: 3}}

	// Spec-pinned seed wins over the default.
	if _, err := Run(spec, RunOptions{Seed: 42}); err != nil {
		t.Fatal(err)
	}
	if gotSeed != 99 || gotScale.JobFactor != 5 || gotScale.Workers != 3 {
		t.Fatalf("got seed=%d scale=%+v", gotSeed, gotScale)
	}

	// An explicit seed and explicit scale fields win over the Spec.
	if _, err := Run(spec, RunOptions{Seed: 7, SeedExplicit: true, Scale: Scale{JobFactor: 20}}); err != nil {
		t.Fatal(err)
	}
	if gotSeed != 7 || gotScale.JobFactor != 20 || gotScale.Workers != 3 {
		t.Fatalf("got seed=%d scale=%+v", gotSeed, gotScale)
	}

	// Options that bypass Run have no counter: numbering refuses.
	defer func() {
		if recover() == nil {
			t.Fatal("NextFanout outside Run numbered a fan-out")
		}
	}()
	RunOptions{}.NextFanout()
}

func TestCatalogRegistration(t *testing.T) {
	Register(New("cat-test-b", "probe-kind2", WithGroup(GroupAblation)))
	Register(New("cat-test-a", "probe-kind2"))
	var ids []string
	for _, s := range Catalog() {
		ids = append(ids, s.ID)
	}
	ia, ib := -1, -1
	for i, id := range ids {
		switch id {
		case "cat-test-a":
			ia = i
		case "cat-test-b":
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ib > ia {
		t.Fatalf("registration order not preserved: %v", ids)
	}
	if got, ok := Lookup("cat-test-a"); !ok || got.Group != GroupTable {
		t.Fatalf("Lookup: %+v %v (default group not applied)", got, ok)
	}
	if got, _ := Lookup("cat-test-b"); got.Group != GroupAblation {
		t.Fatalf("Lookup: %+v (explicit group lost)", got)
	}
}

// TestCatalogHashFollowsRegistry: the hash is cached per registry state
// — stable (and allocation-free) between registrations, different after
// a kind or a spec registers.
func TestCatalogHashFollowsRegistry(t *testing.T) {
	h0 := CatalogHash()
	if n := testing.AllocsPerRun(100, func() { CatalogHash() }); n != 0 || CatalogHash() != h0 {
		t.Fatalf("cached hash: %v allocations per call, %q then %q", n, h0, CatalogHash())
	}
	RegisterKind("hash-probe-kind", func(*Spec, RunOptions) (*Result, error) { return nil, nil }, nil)
	h1 := CatalogHash()
	if h1 == h0 {
		t.Fatalf("hash %q unchanged by RegisterKind", h0)
	}
	Register(New("hash-probe-spec", "hash-probe-kind"))
	if h2 := CatalogHash(); h2 == h1 || h2 == h0 {
		t.Fatalf("hash %q unchanged by Register (before the kind: %q)", h2, h0)
	}
}

func TestResultEmit(t *testing.T) {
	res := NewCellResult("t", []string{"a", "b"}, 1, []Cell{{Values: []any{1, 2.5}}})
	var aligned, csv bytes.Buffer
	if err := res.Emit(&aligned, false); err != nil {
		t.Fatal(err)
	}
	if err := res.Emit(&csv, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(aligned.String(), "t\n") || !strings.HasPrefix(csv.String(), "a,b\n") {
		t.Fatalf("emit output wrong:\n%s\n%s", aligned.String(), csv.String())
	}
	var custom bytes.Buffer
	r := CustomResult(func(w io.Writer) error { _, err := w.Write([]byte("fig")); return err })
	if err := r.Emit(&custom, true); err != nil || custom.String() != "fig" {
		t.Fatalf("custom emit: %v %q", err, custom.String())
	}
	if err := (&Result{}).Emit(&custom, false); err == nil {
		t.Fatal("empty result emitted")
	}
}

// keep encoding/json import honest about what Decode accepts for params
func TestDecodeParams(t *testing.T) {
	s, err := Decode(strings.NewReader(`{"id":"x","kind":"k","params":{"ns":[1,2,3],"eps":0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Ints("ns", nil); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("ns = %v", got)
	}
	var raw map[string]any
	if err := json.Unmarshal([]byte(`{"eps":0.5}`), &raw); err != nil {
		t.Fatal(err)
	}
	s.Params = raw
	if got := s.Float("eps", 0); got != 0.5 {
		t.Fatalf("eps = %v", got)
	}
}

// registerSchemaProbe registers a kind that declares schema and never runs.
func registerSchemaProbe(kind string, schema map[string]ParamType) {
	RegisterKind(kind, func(*Spec, RunOptions) (*Result, error) { return nil, nil }, schema)
}

// TestCheckParams: Validate enforces the schema the kind registered —
// unknown keys and mistyped values fail loudly, the params mirror of the
// codec's unknown-field rejection.
func TestCheckParams(t *testing.T) {
	const k = "schema-probe-kind"
	registerSchemaProbe(k, map[string]ParamType{
		"ms": IntsParam, "eps": FloatParam, "kill": StringParam, "flag": BoolParam,
	})
	ok := New("ok", k,
		WithParam("ms", []int{16, 64}),
		WithParam("eps", 0.01),
		WithParam("kill", "newest"),
		WithParam("flag", true))
	if err := ok.Validate(Limits{}); err != nil {
		t.Fatal(err)
	}
	// JSON-decoded params ([]any + float64) must also pass.
	decoded, err := Decode(bytes.NewReader(encode(t, ok)))
	if err != nil {
		t.Fatal(err)
	}
	if err := decoded.Validate(Limits{}); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		spec *Spec
	}{
		{"typo'd key", New("x", k, WithParam("mss", []int{16}))},
		{"string for number", New("x", k, WithParam("eps", "0.005"))},
		{"number for string", New("x", k, WithParam("kill", 3))},
		{"scalar for list", New("x", k, WithParam("ms", 16))},
		{"string list for number list", New("x", k, WithParam("ms", []string{"a"}))},
		{"number for bool", New("x", k, WithParam("flag", 1))},
	}
	for _, c := range bad {
		if err := c.spec.Validate(Limits{}); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
}

// TestCheckParamsStrictness: non-integer values for int params and
// empty lists are rejected, not silently truncated/zero-rowed.
func TestCheckParamsStrictness(t *testing.T) {
	const k = "strict-probe-kind"
	registerSchemaProbe(k, map[string]ParamType{"m": IntParam, "ms": IntsParam, "rates": FloatsParam})
	if err := New("x", k, WithParam("m", 64.9)).Validate(Limits{}); err == nil {
		t.Fatal("fractional value accepted for IntParam")
	}
	if err := New("x", k, WithParam("ms", []float64{16.5})).Validate(Limits{}); err == nil {
		t.Fatal("fractional element accepted for IntsParam")
	}
	if err := New("x", k, WithParam("ms", []int{})).Validate(Limits{}); err == nil {
		t.Fatal("empty list accepted")
	}
	if err := New("x", k, WithParam("rates", []any{})).Validate(Limits{}); err == nil {
		t.Fatal("empty []any accepted")
	}
	if err := New("x", k, WithParam("m", 64.0)).Validate(Limits{}); err != nil {
		t.Fatalf("whole float rejected: %v", err)
	}
}

// TestValidateSizes: a size param below 1 is refused under any limits;
// the zero Limits bound nothing, and non-zero ones bound params and
// struct fields alike.
func TestValidateSizes(t *testing.T) {
	const k = "size-probe-kind"
	registerSchemaProbe(k, map[string]ParamType{"n": IntParam, "ms": IntsParam, "swf": StringParam})
	inline := Limits{MaxJobs: 100, MaxProcs: 8, NoServerPaths: true}
	for _, c := range []struct {
		spec  *Spec
		want  string // refusal under inline limits; "" = accepted
		floor bool   // refused under the zero Limits too
	}{
		{New("x", k, WithParam("n", 0)), `param "n" holds 0, want at least 1`, true},
		{New("x", k, WithParam("ms", []int{4, -1})), `param "ms" holds -1, want at least 1`, true},
		{New("x", "unregistered", WithParam("ms", []int{0})), `param "ms" holds 0`, true},
		{New("x", k, WithParam("n", 100), WithParam("ms", []int{8})), "", false},
		{New("x", k, WithParam("n", 101)), "params.n = 101 (max 100", false},
		{New("x", k, WithParam("ms", []int{4, 9})), "params.ms = 9 (max 8", false},
		{New("x", k, WithParam("swf", "/a.swf")), "sets params.swf", false},
		{New("x", k, WithWorkload(Workload{N: 101})), "workload.n = 101", false},
		{New("x", k, WithGrid(Grid{CampaignTasks: 101})), "grid.campaign_tasks = 101", false},
		{&Spec{ID: "x", Kind: k, Platform: &Platform{Clusters: []Cluster{{Name: "a", M: 9}}}}, "platform.clusters[].m = 9", false},
	} {
		err := c.spec.Validate(inline)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%v: inline error %v, want %q", c.spec.Params, err, c.want)
		}
		if err := c.spec.Validate(Limits{}); (err != nil) != c.floor {
			t.Errorf("%v: unbounded error %v, want refused = %v", c.spec.Params, err, c.floor)
		}
	}
}

// TestRunResultOptionsResolved: Run stamps the resolved seed on the
// Result (consumers report the effective seed without re-deriving the
// precedence rules).
func TestRunResultOptionsResolved(t *testing.T) {
	RegisterKind("probe-kind3", func(s *Spec, opt RunOptions) (*Result, error) {
		return NewCellResult("p", []string{"c"}, 0, nil), nil
	}, nil)
	seed := uint64(99)
	spec := &Spec{ID: "probe3", Kind: "probe-kind3", Seed: &seed}
	res, err := Run(spec, RunOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 99 {
		t.Fatalf("resolved seed = %d, want the spec-pinned 99", res.Seed)
	}
	res, err = Run(spec, RunOptions{Seed: 7, SeedExplicit: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seed != 7 {
		t.Fatalf("resolved seed = %d, want the explicit 7", res.Seed)
	}
}

// TestValidateExchange: a load-exchange period below MinExchangePeriod
// and an imbalance threshold of 1 or less are refused, in params and in
// grid fields alike; the floor itself, a threshold just above 1 and
// absent grid fields are accepted.
func TestValidateExchange(t *testing.T) {
	const k = "exchange-probe-kind"
	registerSchemaProbe(k, map[string]ParamType{"period": FloatParam, "threshold": FloatParam})
	for _, c := range []struct {
		spec *Spec
		want string // "" = accepted
	}{
		{New("x", k, WithParam("period", 0)), "params.period = 0, want an exchange period of at least 1 virtual second"},
		{New("x", k, WithParam("period", 0.5)), "params.period = 0.5"},
		{New("x", k, WithParam("period", 1)), ""},
		{New("x", k, WithParam("threshold", 1)), "params.threshold = 1, want an imbalance threshold above 1"},
		{New("x", k, WithParam("threshold", 1.01)), ""},
		{New("x", k, WithGrid(Grid{})), ""},
		{New("x", k, WithGrid(Grid{ExchangePeriod: 0.999})), "grid.exchange_period = 0.999"},
		{New("x", k, WithGrid(Grid{ExchangePeriod: math.NaN()})), "grid.exchange_period = NaN"},
		{New("x", k, WithGrid(Grid{ExchangePeriod: 1, Threshold: -2})), "grid.threshold = -2"},
	} {
		err := c.spec.Validate(Limits{})
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("params %v, grid %+v: error %v, want %q", c.spec.Params, c.spec.Grid, err, c.want)
		}
	}
}
