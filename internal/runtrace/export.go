package runtrace

import (
	"cmp"
	"io"
	"slices"

	"repro/internal/trace"
)

// ExportSWF writes the trace's completed local jobs as an SWF archive
// that the replay scenario kind (and loadgen) can consume: one record
// per job with the original submit time, the wait until its final
// start, its final runtime and processor count. Jobs that never
// finished (still queued or killed without completing) are skipped;
// jobs killed and restarted contribute their last start/finish pair.
// Records are sorted by (submit, id) so the archive satisfies the
// non-decreasing-release contract of streamed admission. Returns the
// number of exported jobs.
func ExportSWF(w io.Writer, tr CellTrace) (int, error) {
	type jobState struct {
		submit        float64
		start, finish float64
		procs         int32
		hasSubmit     bool
		hasFinish     bool
	}
	states := map[int32]*jobState{}
	order := []int32{}
	at := func(id int32) *jobState {
		if st, ok := states[id]; ok {
			return st
		}
		st := &jobState{}
		states[id] = st
		order = append(order, id)
		return st
	}
	for _, e := range tr.Events {
		if e.Job < 0 {
			continue
		}
		switch e.Type {
		case EvSubmit:
			st := at(e.Job)
			if !st.hasSubmit {
				st.submit = e.T
				st.hasSubmit = true
			}
		case EvStart:
			st := at(e.Job)
			st.start = e.T
			st.procs = e.Procs
			st.hasFinish = false
		case EvFinish:
			st := at(e.Job)
			st.finish = e.T
			st.hasFinish = true
		}
	}

	recs := make([]trace.SWFRecord, 0, len(order))
	for _, id := range order {
		st := states[id]
		if !st.hasSubmit || !st.hasFinish || st.procs <= 0 {
			continue
		}
		recs = append(recs, trace.SWFRecord{
			ID:     int(id),
			Submit: st.submit,
			Wait:   st.start - st.submit,
			// The runtime is the recorded span, not a model
			// evaluation, so the replay reproduces the source run's
			// schedule on the same platform and policy.
			Runtime: st.finish - st.start,
			Procs:   int(st.procs),
			Weight:  1,
		})
	}
	slices.SortStableFunc(recs, func(a, b trace.SWFRecord) int {
		if a.Submit != b.Submit {
			if a.Submit < b.Submit {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	sw := trace.NewSWFWriter(w)
	for _, rec := range recs {
		if err := sw.Write(rec); err != nil {
			return 0, err
		}
	}
	return len(recs), sw.Flush()
}
