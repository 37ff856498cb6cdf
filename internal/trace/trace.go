// Package trace renders schedules and experiment results: ASCII Gantt
// charts for quick eyeballing, CSV exports for plotting, an SWF-flavoured
// (Standard Workload Format) job-trace writer/reader, and the aligned
// text tables every scenario result renders to.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/sched"
	"repro/internal/workload"
)

// Gantt renders an ASCII Gantt chart of the schedule: one row per
// processor, time quantized into width columns. Jobs are labelled by the
// last character of their ID (readable for small demos; the point is
// shape, not identification).
func Gantt(w io.Writer, s *sched.Schedule, width int) error {
	if width <= 0 {
		width = 80
	}
	if len(s.Allocs) == 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	ids, err := s.AssignProcessors()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	mk := s.Makespan()
	grid := make([][]byte, s.M)
	for p := range grid {
		grid[p] = []byte(strings.Repeat(".", width))
	}
	for i, a := range s.Allocs {
		label := byte('0' + byte(a.Job.ID%10))
		c0 := int(a.Start / mk * float64(width))
		c1 := int(a.End() / mk * float64(width))
		if c1 <= c0 {
			c1 = c0 + 1
		}
		if c1 > width {
			c1 = width
		}
		for _, p := range ids[i] {
			for c := c0; c < c1; c++ {
				grid[p][c] = label
			}
		}
	}
	fmt.Fprintf(w, "Gantt: m=%d, makespan=%.4g, one column = %.4g\n", s.M, mk, mk/float64(width))
	for p := s.M - 1; p >= 0; p-- {
		if _, err := fmt.Fprintf(w, "p%02d |%s|\n", p, grid[p]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports a schedule as CSV (job, class, start, end, procs,
// weight, release) for external plotting.
func WriteCSV(w io.Writer, s *sched.Schedule) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "job,class,start,end,procs,weight,release")
	rows := append([]sched.Alloc(nil), s.Allocs...)
	// Equal starts tie, and the permutation of ties is the row order of
	// the file: slices.SortFunc with this cmp gives sort.Slice's, as in
	// lowerbound.SumWeightedCompletionOf.
	slices.SortFunc(rows, func(a, b sched.Alloc) int {
		if a.Start < b.Start {
			return -1
		}
		return 1
	})
	for _, a := range rows {
		fmt.Fprintf(bw, "%d,%s,%g,%g,%d,%g,%g\n",
			a.Job.ID, a.Job.Class, a.Start, a.End(), a.Procs, a.Job.Weight, a.Job.Release)
	}
	return bw.Flush()
}

// SWFRecord is one line of the SWF-flavoured trace, kept in its on-disk
// field layout (submit + wait + runtime) so that a read trace can be
// rewritten byte-identically. Deriving the fields from a Completion and
// re-adding them are NOT inverse operations in floating point — e.g.
// (submit+wait)-submit can round differently from wait — so the record,
// not the Completion, is the canonical round-trip unit.
type SWFRecord struct {
	ID      int
	Submit  float64
	Wait    float64
	Runtime float64
	Procs   int
	Weight  float64
}

// fill materializes the record in place as a rigid job (runtime frozen
// as the sequential profile on the recorded processor count) in *j, which
// must be the zero Job: fill writes only the fields a rigid job sets. A
// record with non-positive procs or runtime, or a submit, runtime or
// weight that is NaN or infinite, becomes no job: fill returns the error
// and leaves *j as it was.
func (rec SWFRecord) fill(j *workload.Job) error {
	if rec.Procs <= 0 || rec.Runtime <= 0 {
		return fmt.Errorf("trace: record %d: procs %d runtime %v", rec.ID, rec.Procs, rec.Runtime)
	}
	for _, v := range [...]float64{rec.Submit, rec.Runtime, rec.Weight} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("trace: record %d: submit %v runtime %v weight %v: not finite",
				rec.ID, rec.Submit, rec.Runtime, rec.Weight)
		}
	}
	// Field by field rather than a composite literal, which would build
	// the whole Job in a temporary and copy it in behind a bulk write
	// barrier.
	j.ID, j.Kind, j.Release = rec.ID, workload.Rigid, math.Max(rec.Submit, 0)
	j.Weight, j.DueDate = rec.Weight, -1
	j.SeqTime, j.MinProcs, j.MaxProcs = rec.Runtime*float64(rec.Procs), rec.Procs, rec.Procs
	j.Model = workload.Linear{}
	return nil
}

// ReadSWFRecords parses the SWFWriter format, preserving every field. It
// is a materializing Collect over SWFScanner; stream-scale callers
// should iterate the scanner (or SWFJobSource) directly.
func ReadSWFRecords(r io.Reader) ([]SWFRecord, error) {
	sc := NewSWFScanner(r)
	var recs []SWFRecord
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// ReadSWF parses the SWFWriter format back into rigid jobs (runtime frozen
// as the sequential profile on the recorded processor count). The jobs
// are built in place in one array.
func ReadSWF(r io.Reader) ([]*workload.Job, error) {
	recs, err := ReadSWFRecords(r)
	if err != nil {
		return nil, err
	}
	slab := make([]workload.Job, len(recs))
	jobs := make([]*workload.Job, len(recs))
	for i, rec := range recs {
		if err := rec.fill(&slab[i]); err != nil {
			return nil, err
		}
		jobs[i] = &slab[i]
	}
	return jobs, nil
}

// Table is an aligned-text experiment table (also exportable as CSV).
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with 4
// significant digits.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = strconv.FormatFloat(v, 'g', 4, 64)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	bw := bufio.NewWriter(w)
	if t.Title != "" {
		fmt.Fprintln(bw, t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(bw, "  ")
			}
			fmt.Fprintf(bw, "%-*s", widths[i], c)
		}
		fmt.Fprintln(bw)
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return bw.Flush()
}

// WriteCSV renders the table as CSV (the title line is not emitted —
// CSV output is for plotting pipelines).
func (t *Table) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, strings.Join(t.Headers, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(bw, strings.Join(r, ","))
	}
	return bw.Flush()
}
