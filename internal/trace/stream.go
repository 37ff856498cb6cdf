package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf8"

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
// A line is decoded in place, in the scanner's own buffer, by one walk
// that splits it and values its plain decimal fields (see swfLine).
// Every other field goes to strconv.ParseFloat through a string that does
// not outlive the call, so a record costs no allocation (a field longer
// than the 32 bytes the compiler keeps on the stack for such a string
// costs one). Values and error texts are strconv's own. The ID and procs
// fields must then hold integers within ±2^53 (see isInt53): any other
// value ends the scan with an error naming the line and the field.
func (s *SWFScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		var l swfLine
		n := l.decode(s.sc.Bytes())
		if n == 0 || l.field[0][0] == ';' {
			continue
		}
		if n < 6 {
			s.err = fmt.Errorf("trace: line %d: %d fields, want 6", s.line, n)
			return false
		}
		for i, f := range l.field {
			if l.exact&(1<<i) != 0 {
				continue
			}
			v, err := strconv.ParseFloat(string(f), 64)
			if err != nil {
				s.err = fmt.Errorf("trace: line %d field %d: %w", s.line, i, err)
				return false
			}
			l.val[i] = v
		}
		for _, i := range [...]int{0, 4} {
			if !isInt53(l.val[i]) {
				s.err = fmt.Errorf("trace: line %d field %d: %q is not an integer within ±2^53", s.line, i, l.field[i])
				return false
			}
		}
		s.rec = SWFRecord{
			ID: int(l.val[0]), Submit: l.val[1], Wait: l.val[2],
			Runtime: l.val[3], Procs: int(l.val[4]), Weight: l.val[5],
		}
		return true
	}
	s.err = s.sc.Err() // nil at EOF; bufio.Scanner stays ended, so a later Scan ends again
	return false
}

// isInt53 reports whether v is an integer of magnitude at most 2^53: a
// value of an integer field (ID, procs) that int(v) converts exactly and
// the same way on every host. For NaN or a value out of int's range the
// conversion is implementation-dependent, and of a fraction it drops.
func isInt53(v float64) bool {
	return math.Abs(v) <= 1<<53 && v == math.Trunc(v)
}

// asciiSpace marks the ASCII bytes that unicode.IsSpace accepts — the
// table strings.Fields and strings.TrimSpace consult.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// pow10 holds 10^0 … 10^19, each exact in a float64 (which holds every
// power of ten up to 10^22 exactly).
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// swfLine is one trace line split into fields, with the values of those
// of its first six fields whose value decode could prove.
type swfLine struct {
	field [6][]byte  // the first six fields, aliasing the line
	val   [6]float64 // val[i] is field i's value where exact has bit i set
	exact uint8      // the fields valued; strconv reads the others
}

// decode splits line around runs of white space exactly as strings.Fields
// splits a string — a separator is a rune unicode.IsSpace accepts, and a
// byte that starts no valid UTF-8 sequence is a rune of its own that is
// not one — keeps the first six fields and returns the number of all of
// them. Leading and trailing white space bound no field, so the first
// field of a line is what strings.TrimSpace would leave at its front: no
// fields is a blank line.
//
// In the same walk it reads each field as a decimal significand. A field
// of the form [+-]digits[.digits] with 1 to 19 digits, leading zeros
// counted, is valued on one of two exact paths, each giving the
// correctly rounded value and so the one strconv.ParseFloat returns, -0
// included:
//
//   - a significand of at most 2^53 is float64(significand), divided by
//     10^fraction when there is a fraction: both operands are exact — the
//     fraction has at most 19 digits — and the division rounds correctly;
//   - a larger one (a %g float of 16 or 17 digits) is significand ×
//     10^-fraction by eiselLemire64, strconv's own next path. Where that
//     cannot tell which way the value rounds, the field is left to
//     strconv, which settles it on its exact slow path.
//
// Any other field — an exponent, hex, Inf, NaN, underscores, no digit,
// more digits — is left to strconv, which also words the errors.
func (l *swfLine) decode(line []byte) int {
	n := 0
	for i := 0; i < len(line); {
		c := line[i]
		if asciiSpace[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, w := utf8.DecodeRune(line[i:])
			if unicode.IsSpace(r) {
				i += w
				continue
			}
		}
		start, neg := i, c == '-'
		if c == '+' || c == '-' {
			i++
		}
		body, dot := i, -1
		var mant uint64 // wraps past 19 digits; such a field is not exact
		plain := true
		for ; i < len(line); i++ {
			c = line[i]
			if d := c - '0'; d < 10 {
				mant = mant*10 + uint64(d)
				continue
			}
			if c == '.' && dot < 0 {
				dot = i
				continue
			}
			if asciiSpace[c] {
				break
			}
			if c >= utf8.RuneSelf {
				r, w := utf8.DecodeRune(line[i:])
				if unicode.IsSpace(r) {
					break
				}
				i += w - 1
			}
			plain = false
		}
		if n < len(l.field) {
			l.field[n] = line[start:i]
			digits, frac := i-body, 0
			if dot >= 0 {
				digits, frac = digits-1, i-dot-1
			}
			if plain && digits >= 1 && digits <= 19 {
				v, ok := float64(mant), true
				if mant > 1<<53 {
					v, ok = eiselLemire64(mant, -frac, neg)
				} else {
					if frac > 0 {
						v /= pow10[frac]
					}
					if neg {
						v = -v
					}
				}
				if ok {
					l.val[n] = v
					l.exact |= 1 << n
				}
			}
		}
		n++
	}
	return n
}

// Record returns the record produced by the last successful Scan.
func (s *SWFScanner) Record() SWFRecord { return s.rec }

// Err returns the first parse or read error, or nil after a clean EOF.
func (s *SWFScanner) Err() error { return s.err }

// swfSlab is the number of jobs SWFJobSource builds in one allocation.
const swfSlab = 64

// SWFJobSource adapts an SWF trace to workload.Source: records are
// materialized as rigid jobs one at a time as the simulation pulls them,
// each in the next slot of a slab of swfSlab jobs, so replaying a
// multi-million-job archive holds only the slabs of live jobs. A record
// that cannot become a job (see SWFRecord.fill) takes no slot and stops
// the stream with that error.
type SWFJobSource struct {
	sc   *SWFScanner    // its err also holds a refused record's, ending the scan
	slab []workload.Job // the slots of the current slab not yet handed out
}

// NewSWFJobSource returns a job source streaming from r.
func NewSWFJobSource(r io.Reader) *SWFJobSource {
	return &SWFJobSource{sc: NewSWFScanner(r)}
}

// Next returns the next job in trace order.
func (s *SWFJobSource) Next() (*workload.Job, bool) {
	if !s.sc.Scan() {
		return nil, false
	}
	if len(s.slab) == 0 {
		s.slab = make([]workload.Job, swfSlab)
	}
	j := &s.slab[0]
	if s.sc.err = s.sc.rec.fill(j); s.sc.err != nil {
		return nil, false
	}
	s.slab = s.slab[1:]
	return j, true
}

// Err reports why the stream ended, nil for a clean EOF.
func (s *SWFJobSource) Err() error { return s.sc.err }

// SWFWriter emits records one at a time in the SWF line format: a
// header, then "%d %g %g %g %d %g" per record, in Write order. Floats use
// %g (the shortest form that parses back exactly), so writing what
// ReadSWFRecords returned reproduces the input bytes. It refuses what
// SWFScanner refuses of an ID or a processor count, so that a written
// trace always reads back.
type SWFWriter struct {
	bw   *bufio.Writer
	buf  []byte // the line being formatted, reused
	line int    // the line last written, the header being line 1
	err  error
}

// NewSWFWriter wraps w and writes the SWF header line.
func NewSWFWriter(w io.Writer) *SWFWriter {
	bw := bufio.NewWriter(w)
	_, err := fmt.Fprintln(bw, "; id submit wait runtime procs weight")
	return &SWFWriter{bw: bw, line: 1, err: err}
}

// Write appends one record. A record whose ID or procs is not an integer
// within ±2^53 writes nothing and fails with the error SWFScanner would
// give its line. After the first error all writes are no-ops returning
// that error.
func (w *SWFWriter) Write(rec SWFRecord) error {
	if w.err != nil {
		return w.err
	}
	w.line++
	for _, f := range [...]struct{ field, v int }{{0, rec.ID}, {4, rec.Procs}} {
		if v := int64(f.v); v < -1<<53 || v > 1<<53 {
			w.err = fmt.Errorf("trace: line %d field %d: %q is not an integer within ±2^53", w.line, f.field, strconv.Itoa(f.v))
			return w.err
		}
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
