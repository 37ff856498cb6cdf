package registry

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/workload"
)

func TestCatalogConsistency(t *testing.T) {
	if len(All()) < 8 {
		t.Fatalf("catalog unexpectedly small: %v", Names())
	}
	for _, e := range All() {
		if e.Name == "" || e.Desc == "" {
			t.Fatalf("entry %+v missing name/desc", e)
		}
		if e.Caps.Online != (e.NewPolicy != nil) {
			t.Fatalf("%s: Online flag %v but NewPolicy nil=%v", e.Name, e.Caps.Online, e.NewPolicy == nil)
		}
		if e.Caps.Offline != (e.Offline != nil) {
			t.Fatalf("%s: Offline flag %v but Offline nil=%v", e.Name, e.Caps.Offline, e.Offline == nil)
		}
		if !e.Caps.Online && !e.Caps.Offline {
			t.Fatalf("%s: supports neither mode", e.Name)
		}
		if e.Caps.Online {
			p := e.NewPolicy()
			if p.Name() != e.Name {
				t.Fatalf("%s: constructed policy is named %q", e.Name, p.Name())
			}
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("definitely-not-a-policy"); err == nil {
		t.Fatal("unknown policy resolved")
	}
	e, err := Get("easy")
	if err != nil || e.Name != "easy" {
		t.Fatalf("Get(easy) = %v, %v", e, err)
	}
}

func TestOfflineEntriesSchedule(t *testing.T) {
	jobs := workload.Parallel(workload.GenConfig{N: 30, M: 16, Seed: 3})
	for _, e := range All() {
		if !e.Caps.Offline {
			continue
		}
		s, err := e.Offline(jobs, 16)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(s.Allocs) != len(jobs) {
			t.Fatalf("%s: scheduled %d of %d jobs", e.Name, len(s.Allocs), len(jobs))
		}
	}
}

func TestWriteCatalog(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCatalog(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("catalog output missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "online") || !strings.Contains(out, "offline") {
		t.Fatalf("catalog output missing capability flags:\n%s", out)
	}
}

func TestGridCatalog(t *testing.T) {
	if len(Grids()) < 4 {
		t.Fatalf("grid catalog unexpectedly small: %v", GridNames())
	}
	for _, e := range Grids() {
		if e.Name == "" || e.Desc == "" || e.New == nil {
			t.Fatalf("grid entry %+v incomplete", e)
		}
		r := e.New(grid.RouterOptions{Seed: 1})
		if r.Name() != e.Name {
			t.Fatalf("grid entry %q constructs router %q", e.Name, r.Name())
		}
	}
	if _, err := GetGrid("nope"); err == nil {
		t.Fatal("unknown grid policy resolved")
	}
	e, err := GetGrid("centralized")
	if err != nil || e.Name != "centralized" {
		t.Fatalf("GetGrid(centralized) = %v, %v", e, err)
	}
	var buf bytes.Buffer
	if err := WriteGridCatalog(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range GridNames() {
		if !strings.Contains(buf.String(), name) {
			t.Fatalf("grid catalog output missing %s:\n%s", name, buf.String())
		}
	}
}

// TestGridCatalogOrderingStable: the grid catalog (and its rendering)
// is sorted by name and stable across calls — consumers like the T15
// scenario sweep and the usage text rely on deterministic order.
func TestGridCatalogOrderingStable(t *testing.T) {
	names := GridNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("GridNames not sorted: %v", names)
	}
	for _, want := range []string{"centralized", "decentralized", "least-loaded", "weighted-random"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("grid catalog missing %q (have %v)", want, names)
		}
	}
	entries := Grids()
	for i, e := range entries {
		if e.Name != names[i] {
			t.Fatalf("Grids()[%d] = %q, want %q (order must match GridNames)", i, e.Name, names[i])
		}
	}
	var a, b bytes.Buffer
	if err := WriteGridCatalog(&a); err != nil {
		t.Fatal(err)
	}
	if err := WriteGridCatalog(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteGridCatalog not byte-stable across calls")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != len(entries) {
		t.Fatalf("%d catalog lines for %d entries", len(lines), len(entries))
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, entries[i].Name) {
			t.Fatalf("line %d %q does not lead with %q", i, line, entries[i].Name)
		}
		// The decentralized router is the one grid.Exchanger.
		if got := entries[i].Exchanges(); got != (entries[i].Name == "decentralized") {
			t.Fatalf("%s: Exchanges() = %v", entries[i].Name, got)
		}
		wantKind := "routing"
		if entries[i].Exchanges() {
			wantKind = "routing+exchange"
		}
		if !strings.Contains(line, wantKind) {
			t.Fatalf("line %d %q missing kind %q", i, line, wantKind)
		}
	}
}

// TestWriteCatalogOrderingStable mirrors the grid test for the queue
// policy catalog.
func TestWriteCatalogOrderingStable(t *testing.T) {
	if !sort.StringsAreSorted(Names()) {
		t.Fatalf("Names not sorted: %v", Names())
	}
	var a, b bytes.Buffer
	if err := WriteCatalog(&a); err != nil {
		t.Fatal(err)
	}
	if err := WriteCatalog(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteCatalog not byte-stable across calls")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	for i, e := range All() {
		if !strings.HasPrefix(lines[i], e.Name) {
			t.Fatalf("line %d %q does not lead with %q", i, lines[i], e.Name)
		}
	}
}
