package trace

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// benchArchive is n records shaped like the replay workloads' archives.
func benchArchive(n int) []SWFRecord {
	rng := stats.NewRNG(1)
	recs := make([]SWFRecord, n)
	for i := range recs {
		recs[i] = SWFRecord{
			ID: i, Submit: float64(i) * 0.5,
			Runtime: rng.Range(1, 20), Procs: rng.IntRange(1, 2), Weight: 1,
		}
	}
	return recs
}

// benchArchiveBytes is benchArchive's 10 000 records in the SWF format.
func benchArchiveBytes(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := writeSWF(&buf, benchArchive(10_000)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkSWFScan(b *testing.B) {
	archive := benchArchiveBytes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewSWFScanner(bytes.NewReader(archive))
		n := 0
		for sc.Scan() {
			n++
		}
		if n != 10_000 || sc.Err() != nil {
			b.Fatalf("%d records, err %v", n, sc.Err())
		}
	}
}

// BenchmarkSWFJobSource reads the archive as the replay does: the
// scanner, then each record filled into the next slot of a job slab. It
// reports the time and the allocations per record.
func BenchmarkSWFJobSource(b *testing.B) {
	archive := benchArchiveBytes(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NewSWFJobSource(bytes.NewReader(archive))
		n := 0
		for _, ok := src.Next(); ok; _, ok = src.Next() {
			n++
		}
		if n != 10_000 || src.Err() != nil {
			b.Fatalf("%d jobs, err %v", n, src.Err())
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	records := float64(b.N) * 10_000
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/records, "allocs/record")
}

func BenchmarkSWFWrite(b *testing.B) {
	recs := benchArchive(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewSWFWriter(io.Discard)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
