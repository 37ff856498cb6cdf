package moldable

import (
	"testing"

	"repro/internal/lowerbound"
	"repro/internal/workload"
)

func benchInstance(n, m int) []*workload.Job {
	return workload.Parallel(workload.GenConfig{N: n, M: m, Seed: 99})
}

func BenchmarkMRT100x64(b *testing.B) {
	jobs := benchInstance(100, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MRT(jobs, 64, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRT1000x100(b *testing.B) {
	jobs := benchInstance(1000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MRT(jobs, 100, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectAllotments(b *testing.B) {
	jobs := benchInstance(500, 100)
	lambda := lowerbound.CmaxDualOf(workload.Costs(jobs, 100), 100)
	costs := workload.Costs(jobs, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := SelectAllotments(costs, 100, lambda*1.2); !ok {
			b.Fatal("infeasible")
		}
	}
}

// The §4.4 batch step as fig2 meets it: the whole admitted list does not
// construct and a handful of evictions follow, all read off one table.
func BenchmarkLargestPrefixForDeadline(b *testing.B) {
	jobs := benchInstance(500, 100)
	costs := workload.Costs(jobs, 100)
	d := evictingDeadline(costs, 100, 5)
	var bld Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, n := bld.LargestPrefixForDeadline(costs, 100, d); n == 0 {
			b.Fatal("construction failed")
		}
	}
}

// evictingDeadline returns a deadline under which the full list fails
// and about want evictions follow before a prefix constructs.
func evictingDeadline(costs []workload.Cost, m, want int) float64 {
	var b Builder
	lo, hi := 0.0, 2*lowerbound.CmaxDualOf(costs, m)
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if _, n := b.LargestPrefixForDeadline(costs, m, mid); n > len(costs)-want {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}
