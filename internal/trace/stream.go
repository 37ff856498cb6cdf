package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// maxSWFLine bounds a single trace line. Real SWF archives keep lines
// well under a kilobyte; 4 MiB leaves room for pathological whitespace
// padding while still failing fast (bufio.ErrTooLong) on garbage input
// instead of buffering an unbounded "line".
const maxSWFLine = 4 << 20

// SWFScanner reads an SWF-flavoured trace one record at a time in O(1)
// memory — the streaming counterpart of ReadSWFRecords (which is now a
// Collect over it). Usage mirrors bufio.Scanner:
//
//	sc := trace.NewSWFScanner(r)
//	for sc.Scan() {
//	    rec := sc.Record()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
type SWFScanner struct {
	sc   *bufio.Scanner
	line int
	rec  SWFRecord
	err  error
	done bool
}

// NewSWFScanner returns a scanner over r. Input is buffered; lines are
// capped at 4 MiB.
func NewSWFScanner(r io.Reader) *SWFScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxSWFLine)
	return &SWFScanner{sc: sc}
}

// Scan advances to the next record, skipping blank lines and comments.
// It returns false at end of input or on the first malformed line; Err
// distinguishes the two.
//
// A line is split in place, in the scanner's own buffer, and each of the
// six fields goes to strconv.ParseFloat through a string that does not
// outlive the call, so a record costs no allocation (a field longer than
// the 32 bytes the compiler keeps on the stack for such a string costs
// one). Values and error texts are strconv's own.
func (s *SWFScanner) Scan() bool {
	if s.err != nil || s.done {
		return false
	}
	for s.sc.Scan() {
		s.line++
		var fields [6][]byte
		n := splitFields(s.sc.Bytes(), &fields)
		if n == 0 || fields[0][0] == ';' {
			continue
		}
		if n < 6 {
			s.err = fmt.Errorf("trace: line %d: %d fields, want 6", s.line, n)
			return false
		}
		var vals [6]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				s.err = fmt.Errorf("trace: line %d field %d: %w", s.line, i, err)
				return false
			}
			vals[i] = v
		}
		s.rec = SWFRecord{
			ID: int(vals[0]), Submit: vals[1], Wait: vals[2],
			Runtime: vals[3], Procs: int(vals[4]), Weight: vals[5],
		}
		return true
	}
	s.done = true
	s.err = s.sc.Err()
	return false
}

// asciiSpace marks the ASCII bytes that unicode.IsSpace accepts — the
// table strings.Fields and strings.TrimSpace consult.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields splits line around runs of white space exactly as
// strings.Fields splits a string — a separator is a rune unicode.IsSpace
// accepts, and a byte that starts no valid UTF-8 sequence is a rune of
// its own that is not one — stores the first len(first) fields, which
// alias line, and returns the number of all of them. Leading and trailing
// white space bound no field, so the first field of a line is what
// strings.TrimSpace would leave at its front: no fields is a blank line.
func splitFields(line []byte, first *[6][]byte) int {
	n := 0
	start := -1 // of the field being read; negative between fields
	for i := 0; i < len(line); {
		c := line[i]
		space, width := asciiSpace[c], 1
		if c >= utf8.RuneSelf {
			r, w := utf8.DecodeRune(line[i:])
			space, width = unicode.IsSpace(r), w
		}
		if space && start >= 0 {
			if n < len(first) {
				first[n] = line[start:i]
			}
			n++
			start = -1
		} else if !space && start < 0 {
			start = i
		}
		i += width
	}
	if start >= 0 {
		if n < len(first) {
			first[n] = line[start:]
		}
		n++
	}
	return n
}

// Record returns the record produced by the last successful Scan.
func (s *SWFScanner) Record() SWFRecord { return s.rec }

// Line returns the 1-based input line of the last record (diagnostics).
func (s *SWFScanner) Line() int { return s.line }

// Err returns the first parse or read error, or nil after a clean EOF.
func (s *SWFScanner) Err() error { return s.err }

// SWFJobSource adapts an SWF trace to workload.Source: records are
// materialized as rigid jobs one at a time as the simulation pulls them,
// so replaying a multi-million-job archive never holds more than the
// stream head in memory. A record that cannot become a job (non-positive
// procs or runtime) stops the stream with that error.
type SWFJobSource struct {
	sc  *SWFScanner
	err error
}

// NewSWFJobSource returns a job source streaming from r.
func NewSWFJobSource(r io.Reader) *SWFJobSource {
	return &SWFJobSource{sc: NewSWFScanner(r)}
}

// Next returns the next job in trace order.
func (s *SWFJobSource) Next() (*workload.Job, bool) {
	if s.err != nil {
		return nil, false
	}
	if !s.sc.Scan() {
		s.err = s.sc.Err()
		return nil, false
	}
	j, err := s.sc.Record().Job()
	if err != nil {
		s.err = err
		return nil, false
	}
	return j, true
}

// Err reports why the stream ended, nil for a clean EOF.
func (s *SWFJobSource) Err() error { return s.err }

// SWFWriter emits records one at a time in the WriteSWFRecords line
// format (header, then "%d %g %g %g %d %g"). Unlike WriteSWFRecords it
// does not sort: records appear in Write order, so callers streaming a
// completion feed get End-time order, not ID order. Reading such a file
// back and rewriting it with WriteSWFRecords canonicalizes the order.
type SWFWriter struct {
	bw  *bufio.Writer
	buf []byte // the line being formatted, reused
	err error
}

// NewSWFWriter wraps w and writes the SWF header line.
func NewSWFWriter(w io.Writer) *SWFWriter {
	bw := bufio.NewWriter(w)
	_, err := fmt.Fprintln(bw, "; id submit wait runtime procs weight")
	return &SWFWriter{bw: bw, err: err}
}

// Write appends one record. After the first error all writes are no-ops
// returning that error.
func (w *SWFWriter) Write(rec SWFRecord) error {
	if w.err != nil {
		return w.err
	}
	w.buf = appendSWFRecord(w.buf[:0], rec)
	_, w.err = w.bw.Write(w.buf)
	return w.err
}

// appendSWFRecord appends rec's line, the bytes of
// fmt.Sprintf("%d %g %g %g %d %g\n", ...) over its fields in order: %g is
// strconv's shortest 'g' form, the one ParseFloat reads back exactly.
func appendSWFRecord(b []byte, rec SWFRecord) []byte {
	b = strconv.AppendInt(b, int64(rec.ID), 10)
	b = strconv.AppendFloat(append(b, ' '), rec.Submit, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ' '), rec.Wait, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, ' '), rec.Runtime, 'g', -1, 64)
	b = strconv.AppendInt(append(b, ' '), int64(rec.Procs), 10)
	b = strconv.AppendFloat(append(b, ' '), rec.Weight, 'g', -1, 64)
	return append(b, '\n')
}

// Flush drains the buffer to the underlying writer.
func (w *SWFWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// SWFSpool is a metrics.Retention that keeps a bounded in-memory tail
// and spools every evicted completion to an SWF stream — the full
// history survives on disk while the simulation's heap stays O(tail).
// Retention.Add cannot return an error, so write failures are sticky:
// check Err (or the Flush result) after the run.
type SWFSpool struct {
	ring metrics.Retention
	w    *SWFWriter
}

// NewSWFSpool spools evictions to w, retaining the last tailCap
// completions in memory (tailCap <= 0 falls back to 1).
func NewSWFSpool(w io.Writer, tailCap int) *SWFSpool {
	sp := &SWFSpool{w: NewSWFWriter(w)}
	sp.ring = metrics.NewSpillRing(tailCap, func(c metrics.Completion) {
		sp.w.Write(RecordOf(c)) //nolint:errcheck // sticky in w.err, surfaced by Err/Flush
	})
	return sp
}

// Add records one completion, spilling the oldest tail entry if full.
func (sp *SWFSpool) Add(c metrics.Completion) { sp.ring.Add(c) }

// Len returns the in-memory tail length.
func (sp *SWFSpool) Len() int { return sp.ring.Len() }

// Completions returns the in-memory tail, oldest first.
func (sp *SWFSpool) Completions() []metrics.Completion { return sp.ring.Completions() }

// Flush drains buffered spilled records. The in-memory tail is NOT
// written: it remains queryable via Completions. Call DrainTail first to
// persist everything.
func (sp *SWFSpool) Flush() error { return sp.w.Flush() }

// DrainTail spools the retained tail to the stream (oldest first) and
// empties it, then flushes. After DrainTail the on-disk file holds every
// completion ever Added, in Add order.
func (sp *SWFSpool) DrainTail() error {
	for _, c := range sp.ring.Completions() {
		if err := sp.w.Write(RecordOf(c)); err != nil {
			return err
		}
	}
	sp.ring = metrics.NewSpillRing(1, func(c metrics.Completion) {
		sp.w.Write(RecordOf(c)) //nolint:errcheck // sticky in w.err
	})
	return sp.w.Flush()
}

// Err returns the first spool write error, if any.
func (sp *SWFSpool) Err() error {
	if sp.w.err != nil {
		return sp.w.err
	}
	return nil
}
