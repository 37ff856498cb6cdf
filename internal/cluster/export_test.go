package cluster

import (
	"io"
	"testing"

	"repro/internal/rigid"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ProfileAsIs returns the Sim's profile as it stands, without bringing it
// up to date the way View.Profile does.
func (s *Sim) ProfileAsIs() *rigid.Profile { return s.profile }

// The replay archive, shared by the replay tests and the decision counts.

// ReplayM is the cluster width the replay stream is shaped for. The
// arrival rate (2 jobs/s) times the mean work per job (~10.5s × ~1.5
// procs) keeps utilization near 50%, so the queue — and with it the
// active set — stays bounded however long the archive is.
const ReplayM = 64

// WriteReplayRecords streams an n-job rigid trace to out in O(1) memory
// (the generator writes line by line; nothing is accumulated).
func WriteReplayRecords(tb testing.TB, out io.Writer, n int) {
	tb.Helper()
	w := trace.NewSWFWriter(out)
	rng := stats.NewRNG(1)
	for i := 0; i < n; i++ {
		if err := w.Write(trace.SWFRecord{
			ID: i, Submit: float64(i) * 0.5, Wait: 0,
			Runtime: rng.Range(1, 20), Procs: rng.IntRange(1, 2), Weight: 1,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
}
