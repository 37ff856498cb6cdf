package scenario_test

import (
	"bytes"
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
