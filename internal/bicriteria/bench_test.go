package bicriteria

import "testing"

// BenchmarkFig2Series regenerates both curves of Figure 2 at the
// paper's scale (100 machines, the full task-count sweep, one
// replication): the doubling scheduler's batch step at every queue
// depth the figure has, for moldable ("parallel") and sequential
// ("non-parallel") jobs.
func BenchmarkFig2Series(b *testing.B) {
	for _, family := range []struct {
		name     string
		parallel bool
	}{{"parallel", true}, {"non-parallel", false}} {
		b.Run(family.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pts, err := Fig2Series(Fig2Config{M: 100, Seed: 11, Reps: 1, Parallel: family.parallel})
				if err != nil {
					b.Fatal(err)
				}
				if len(pts) != len(DefaultNs()) {
					b.Fatal("short series")
				}
			}
		})
	}
}
