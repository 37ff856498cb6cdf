package metrics

// Retention is the completion-history store of a simulation. The §3
// criteria never need it — they stream through an Accumulator — so
// keeping records is a policy choice: batch experiments and goldens
// retain everything, and archive replays retain nothing (or a bounded
// tail for inspection).
type Retention interface {
	// Add stores one completion record.
	Add(c Completion)
	// Len returns the number of records still retrievable.
	Len() int
	// Completions returns the retained records, oldest first. The
	// returned slice is owned by the caller unless the implementation
	// documents otherwise.
	Completions() []Completion
}

// fullRetention keeps every record in memory — the historical behaviour
// and the default of cluster simulations (tests, goldens and the
// offline tables all read the full history).
type fullRetention struct {
	cs []Completion
}

// NewFullRetention retains every completion record (O(total jobs)).
func NewFullRetention() Retention { return &fullRetention{} }

func (f *fullRetention) Add(c Completion)          { f.cs = append(f.cs, c) }
func (f *fullRetention) Len() int                  { return len(f.cs) }
func (f *fullRetention) Completions() []Completion { return append([]Completion(nil), f.cs...) }

// ringRetention keeps the most recent capacity records.
type ringRetention struct {
	buf  []Completion
	next int
	full bool
}

// NewRing retains only the most recent capacity completion records —
// the bounded store of streaming replays that still want a tail to
// inspect. capacity must be positive.
func NewRing(capacity int) Retention {
	if capacity <= 0 {
		capacity = 1
	}
	return &ringRetention{buf: make([]Completion, 0, capacity)}
}

func (r *ringRetention) Add(c Completion) {
	if !r.full {
		r.buf = append(r.buf, c)
		if len(r.buf) == cap(r.buf) {
			r.full = true
		}
		return
	}
	r.buf[r.next] = c
	r.next = (r.next + 1) % len(r.buf)
}

func (r *ringRetention) Len() int {
	return len(r.buf)
}

func (r *ringRetention) Completions() []Completion {
	out := make([]Completion, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf...)
}

// discardRetention keeps nothing: the pure-streaming mode where the
// accumulator report is the only output (archive replays).
type discardRetention struct{}

// NewDiscard retains no completion records at all.
func NewDiscard() Retention { return &discardRetention{} }

func (d *discardRetention) Add(Completion)            {}
func (d *discardRetention) Len() int                  { return 0 }
func (d *discardRetention) Completions() []Completion { return nil }
