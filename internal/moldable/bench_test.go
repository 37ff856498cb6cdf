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
	lambda := lowerbound.CmaxDual(jobs, 100)
	costs := workload.Costs(jobs, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := SelectAllotments(costs, 100, lambda*1.2); !ok {
			b.Fatal("infeasible")
		}
	}
}

func BenchmarkConstructForDeadline(b *testing.B) {
	jobs := benchInstance(500, 100)
	d := lowerbound.CmaxDual(jobs, 100) * 1.5
	costs := workload.Costs(jobs, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := ConstructForDeadline(costs, 100, d); !ok {
			b.Fatal("construction failed")
		}
	}
}
