package scenario_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/experiments" // registers the kinds, their schemas and the catalog
	"repro/internal/scenario"
)

// FuzzSpecDecode feeds arbitrary bytes through Decode and Validate (with
// and without limits), with the kinds registered so the schemas are
// checked too. Neither may panic; once a spec is accepted, its canonical
// bytes must decode to an accepted spec whose canonical bytes are the
// same. Seeded with every catalog spec and every example spec file.
func FuzzSpecDecode(f *testing.F) {
	for _, spec := range scenario.Catalog() {
		b, err := spec.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	examples, err := filepath.Glob("../../examples/scenario/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example specs: %v", err)
	}
	for _, path := range examples {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := scenario.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = spec.Validate(scenario.Limits{MaxJobs: 100, MaxProcs: 8, NoServerPaths: true})
		if spec.Validate(scenario.Limits{}) != nil {
			return
		}
		first, err := spec.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := scenario.Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("canonical bytes do not decode: %v\n%s", err, first)
		}
		if err := again.Validate(scenario.Limits{}); err != nil {
			t.Fatalf("canonical bytes decode to a refused spec: %v\n%s", err, first)
		}
		second, err := again.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical bytes changed through a round trip:\n%s\nvs\n%s", first, second)
		}
	})
}

// FuzzValueCodec feeds arbitrary (T, V) pairs through Value.Decode, which
// must not panic. A value Decode accepts must encode under the same tag
// and decode again to the same Go type and value: floats bit for bit,
// except that a NaN need only come back as a NaN. Seeded with every tag,
// the float edge cases among them.
func FuzzValueCodec(f *testing.F) {
	for _, v := range []any{
		0, -7, math.MaxInt, math.MinInt, uint64(0), uint64(math.MaxUint64),
		0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 0.1, "", "a b", true, false,
	} {
		ev, err := scenario.EncodeValue(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ev.T, ev.V)
	}
	f.Fuzz(func(t *testing.T, tag, text string) {
		v, err := scenario.Value{T: tag, V: text}.Decode()
		if err != nil {
			return
		}
		ev, err := scenario.EncodeValue(v)
		if err != nil {
			t.Fatalf("%q %q decodes to %v (%T), which does not encode: %v", tag, text, v, v, err)
		}
		if ev.T != tag {
			t.Fatalf("%q %q decodes to %v (%T), which encodes under tag %q", tag, text, v, v, ev.T)
		}
		back, err := ev.Decode()
		if err != nil {
			t.Fatalf("%q %q encodes to %q, which does not decode: %v", tag, text, ev.V, err)
		}
		same := back == v
		if x, ok := v.(float64); ok {
			y, _ := back.(float64)
			same = math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
		}
		if !same {
			t.Fatalf("%q %q decodes to %v (%T), which comes back as %v (%T)", tag, text, v, v, back, back)
		}
	})
}
