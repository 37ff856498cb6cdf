package trace

import (
	"bytes"
	"io"
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

func BenchmarkSWFScan(b *testing.B) {
	var buf bytes.Buffer
	if err := writeSWF(&buf, benchArchive(10_000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewSWFScanner(bytes.NewReader(buf.Bytes()))
		n := 0
		for sc.Scan() {
			n++
		}
		if n != 10_000 || sc.Err() != nil {
			b.Fatalf("%d records, err %v", n, sc.Err())
		}
	}
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
