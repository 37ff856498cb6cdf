package cluster

import "repro/internal/workload"

// readAheadBatch is the number of jobs one fill reads. Replaying 100 000
// SWF jobs on a 2-core host (BenchmarkReplayMillionJobs), batches of 64
// were no faster than reading in line, 512 and 1024 were the fastest
// (about −25 %), and 4096 gained nothing more.
const readAheadBatch = 1024

// readAhead reads a source one batch ahead of the Sim on a second
// goroutine, so that parsing or generating jobs overlaps the simulation
// instead of running in series with it. At most one fill is in flight:
// the consumer starts the next one when it takes a finished batch from
// the channel, which orders every source call of one fill before every
// call of the next. Only one goroutine touches the source at a time, and
// none once Next has reported the end or stop has returned.
type readAhead struct {
	batch   []*workload.Job // the batch being consumed; taken slots are nil
	next    int
	src     workload.Source
	fills   chan readFill // capacity 1: a fill sends its batch and exits
	filling bool          // a fill is in flight
	// err and panicked are the source's Err and the value of a panic in
	// its Next, once the batch they ended is taken.
	err      error
	panicked any
}

// readFill is one finished batch. end is set when the source ran out or
// panicked inside it, err to the source's Err at that point.
type readFill struct {
	jobs     []*workload.Job
	end      bool
	err      error
	panicked any
}

func newReadAhead(src workload.Source) *readAhead {
	// One array holds both batches: the one being consumed and the one
	// being filled. The three-index slices keep each fill in its half.
	buf := make([]*workload.Job, 2*readAheadBatch)
	r := &readAhead{
		batch: buf[readAheadBatch:readAheadBatch:len(buf)],
		src:   src,
		fills: make(chan readFill, 1),
	}
	r.fill(buf[:0:readAheadBatch])
	return r
}

// fill reads up to cap(buf) jobs into buf on a new goroutine. A panic in
// the source ends the batch; Next raises it again on the Sim's goroutine,
// at the stream position where it happened, so that a caller containing
// panics can still recover it.
func (r *readAhead) fill(buf []*workload.Job) {
	r.filling = true
	go func(src workload.Source, fills chan<- readFill) {
		f := readFill{jobs: buf}
		defer func() {
			if f.panicked = recover(); f.panicked != nil {
				f.end = true
			}
			fills <- f
		}()
		for len(f.jobs) < cap(f.jobs) {
			j, ok := src.Next()
			if !ok {
				f.end = true
				if es, hasErr := src.(interface{ Err() error }); hasErr {
					f.err = es.Err()
				}
				break
			}
			f.jobs = append(f.jobs, j)
		}
	}(r.src, r.fills)
}

// Next returns the source's next job. After the last one it reports
// false, and err holds the source's Err.
func (r *readAhead) Next() (*workload.Job, bool) {
	for r.next == len(r.batch) {
		if !r.filling {
			if r.panicked != nil {
				panic(r.panicked)
			}
			return nil, false
		}
		f := <-r.fills
		r.filling = false
		spare := r.batch[:0]
		r.batch, r.next = f.jobs, 0
		if f.end {
			r.err, r.panicked = f.err, f.panicked
		} else {
			r.fill(spare)
		}
	}
	j := r.batch[r.next]
	r.batch[r.next] = nil
	r.next++
	return j, true
}

// stop waits for the fill in flight, if any, and drops what is left.
func (r *readAhead) stop() {
	if r.filling {
		<-r.fills
		r.filling = false
	}
	r.batch, r.next = nil, 0
}
