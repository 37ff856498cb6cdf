package bicriteria

import (
	"testing"

	"repro/internal/workload"
)

// SetFig2Generate makes Fig2Series build its instances with gen until
// the test ends.
func SetFig2Generate(t testing.TB, gen func(cfg workload.GenConfig, parallel bool) []*workload.Job) {
	old := fig2Generate
	fig2Generate = gen
	t.Cleanup(func() { fig2Generate = old })
}
