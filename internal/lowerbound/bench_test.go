package lowerbound

import (
	"testing"

	"repro/internal/workload"
)

func BenchmarkCmaxDual1000(b *testing.B) {
	jobs := workload.Parallel(workload.GenConfig{N: 1000, M: 100, Seed: 5})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if CmaxDualOf(workload.Costs(jobs, 100), 100) <= 0 {
			b.Fatal("degenerate bound")
		}
	}
}

func BenchmarkSumWeighted1000(b *testing.B) {
	jobs := workload.Parallel(workload.GenConfig{N: 1000, M: 100, Seed: 6, Weighted: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if SumWeightedCompletion(jobs, 100) <= 0 {
			b.Fatal("degenerate bound")
		}
	}
}
