package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/scenario"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.txt from this build")

// durationMember matches one "duration_seconds" member of the indented
// JSON with the comma that precedes it, so a stripped object reads as
// if the field had been omitted.
var durationMember = regexp.MustCompile(`,\n\s*"duration_seconds": [^\n]*`)

// numericsProbe hashes math.Exp and math.Log over a fixed probe set.
// amd64 with FMA, amd64 without it (GODEBUG=cpu.fma=off) and 386 each
// give a different value, so a recorded probe names the host class the
// digests were taken on.
func numericsProbe() string {
	h := sha256.New()
	for i := 1; i <= 64; i++ {
		x := float64(i) / 97
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Exp(-x))))
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Log(x))))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// localDigests runs every built-in through local -format json at quick
// and paper scale, seeds 42 and 91, and returns one line per run:
// "<scale> <seed> <id> <sha256 of the JSON minus duration_seconds>".
func localDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, scale := range []string{"quick", "paper"} {
		for _, seed := range []string{"42", "91"} {
			for _, s := range scenario.Catalog() {
				args := []string{"-format", "json", "-seed", seed, s.ID}
				if scale == "quick" {
					args = append([]string{"-quick"}, args...)
				}
				out := durationMember.ReplaceAllString(local(t, args...), "")
				lines = append(lines, fmt.Sprintf("%s %s %s %x", scale, seed, s.ID, sha256.Sum256([]byte(out))))
			}
		}
	}
	return lines
}

// TestLocalDigests pins the last bit of every built-in's JSON, where
// the three-decimal text goldens see nothing: each digest in
// testdata/digests.txt must be recomputed unchanged. Float results
// depend on the host's math.Exp and math.Log, so the test runs only
// where the numerics probe matches the one recorded with the digests.
func TestLocalDigests(t *testing.T) {
	path := filepath.Join("..", "..", "testdata", "digests.txt")
	probe := numericsProbe()
	if *updateDigests {
		var b strings.Builder
		b.WriteString("# sha256 of `gridctl local -format json [-quick] -seed S ID` with every\n")
		b.WriteString("# \"duration_seconds\" member removed, taken on amd64 with FMA.\n")
		b.WriteString("# Regenerate: go test ./cmd/gridctl -run TestLocalDigests -update-digests\n")
		fmt.Fprintf(&b, "probe %s\n", probe)
		for _, l := range localDigests(t) {
			b.WriteString(l + "\n")
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	var recorded string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		switch l := sc.Text(); {
		case strings.HasPrefix(l, "#"):
		case strings.HasPrefix(l, "probe "):
			recorded = strings.TrimPrefix(l, "probe ")
		default:
			want = append(want, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if probe != recorded {
		t.Skipf("digests are pinned on amd64 with FMA (numerics probe %s); this host's probe is %s", recorded, probe)
	}
	got := localDigests(t)
	if len(got) != len(want) {
		t.Fatalf("%d digests computed, %d recorded", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
