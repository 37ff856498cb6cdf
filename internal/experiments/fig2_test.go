package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// decodeFig2 decodes a fig2 spec the way `gridctl local spec.json` does.
func decodeFig2(t *testing.T, params string) *scenario.Spec {
	t.Helper()
	spec, err := scenario.Decode(strings.NewReader(`{"id":"fig2-custom","kind":"fig2","params":` + params + `}`))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFig2RefusesOutOfRangeParams: a platform width, replication count
// or task count below 1 is refused with an error naming the param,
// instead of being replaced by a default, printed as a row measured on
// other jobs, averaged into -0.000, or panicking inside a cell.
func TestFig2RefusesOutOfRangeParams(t *testing.T) {
	for _, tc := range []struct {
		params, param string
	}{
		{`{"ns":[0,100]}`, `"ns"`},
		{`{"quick_ns":[10,-5]}`, `"quick_ns"`},
		{`{"reps":-2}`, `"reps"`},
		{`{"reps":0}`, `"reps"`},
		{`{"m":0}`, `"m"`},
		{`{"m":-1}`, `"m"`},
	} {
		t.Run(tc.params, func(t *testing.T) {
			for _, sc := range []scenario.Scale{{}, quick} {
				_, err := scenario.Run(decodeFig2(t, tc.params), scenario.RunOptions{Seed: 3, Scale: sc})
				if err == nil || !strings.Contains(err.Error(), "param "+tc.param) {
					t.Fatalf("scale %+v: error %v, want one naming param %s", sc, err, tc.param)
				}
			}
		})
	}
}

// TestFig2PrintsPlatformWidth: the figure's title gives the width the
// series ran on, not the paper's 100 machines.
func TestFig2PrintsPlatformWidth(t *testing.T) {
	res, err := scenario.Run(decodeFig2(t, `{"m":16,"reps":1,"quick_ns":[10,20]}`), scenario.RunOptions{Seed: 3, Scale: quick})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.Emit(&out, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "on a 16-machine cluster") {
		t.Fatalf("figure does not name the 16-machine platform:\n%s", out.String())
	}
}
