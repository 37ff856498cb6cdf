package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// randomRecs builds an adversarial, ID-sorted record set.
func randomRecs(rng *stats.RNG, n int) []SWFRecord {
	recs := make([]SWFRecord, n)
	for i := range recs {
		recs[i] = SWFRecord{
			ID:      i,
			Submit:  rng.LogNormal(0, 8),
			Wait:    rng.LogNormal(0, 8),
			Runtime: rng.LogNormal(0, 8),
			Procs:   rng.IntRange(1, 512),
			Weight:  float64(rng.Zipf(1.1, 10)),
		}
	}
	return recs
}

// writeSWF writes recs in order through an SWFWriter.
func writeSWF(w io.Writer, recs []SWFRecord) error {
	sw := NewSWFWriter(w)
	for _, rec := range recs {
		sw.Write(rec) //nolint:errcheck // sticky in sw, returned by Flush
	}
	return sw.Flush()
}

// scanReference is SWFScanner as it read a line before it split one in
// place: strings.TrimSpace, strings.Fields, then strconv.ParseFloat on
// each of the first six fields, of which the ID and procs must be
// integers of magnitude at most 2^53 by their exact value (math/big),
// spelled in at most 800 bytes. It returns every record delivered with
// its line number, and the error that ended the scan.

func scanReference(input string) (recs []SWFRecord, lines []int, err error) {
	sc := bufio.NewScanner(strings.NewReader(input))
	sc.Buffer(make([]byte, 0, 64*1024), maxSWFLine)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 6 {
			return recs, lines, fmt.Errorf("trace: line %d: %d fields, want 6", line, len(fields))
		}
		var vals [6]float64
		for i, f := range fields[:6] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return recs, lines, fmt.Errorf("trace: line %d field %d: %w", line, i, err)
			}
			vals[i] = v
		}
		for _, i := range []int{0, 4} {
			r, ok := new(big.Rat).SetString(fields[i])
			if !ok || !r.IsInt() || r.Num().CmpAbs(big.NewInt(1<<53)) > 0 || len(fields[i]) > 800 {
				return recs, lines, fmt.Errorf("trace: line %d field %d: %q is not an integer within ±2^53", line, i, fields[i])
			}
		}
		recs = append(recs, SWFRecord{
			ID: int(vals[0]), Submit: vals[1], Wait: vals[2],
			Runtime: vals[3], Procs: int(vals[4]), Weight: vals[5],
		})
		lines = append(lines, line)
	}
	return recs, lines, sc.Err()
}

// sameRecord compares two records bit for bit (NaN equal to NaN, 0 not
// equal to -0).
func sameRecord(a, b SWFRecord) bool {
	bits := math.Float64bits
	return a.ID == b.ID && a.Procs == b.Procs && bits(a.Submit) == bits(b.Submit) && bits(a.Wait) == bits(b.Wait) &&
		bits(a.Runtime) == bits(b.Runtime) && bits(a.Weight) == bits(b.Weight)
}

// requireMatchesReference scans input with SWFScanner and requires what
// scanReference finds: the same records on the same lines, then the same
// error, to the letter. It returns the records and the error.
func requireMatchesReference(t *testing.T, input string) ([]SWFRecord, error) {
	t.Helper()
	want, wantLines, wantErr := scanReference(input)
	sc := NewSWFScanner(strings.NewReader(input))
	var got []SWFRecord
	for sc.Scan() {
		i := len(got)
		got = append(got, sc.Record())
		if i >= len(want) {
			t.Fatalf("record %d (line %d) %+v: the reference stops at %d records", i, sc.line, got[i], len(want))
		}
		if !sameRecord(got[i], want[i]) || sc.line != wantLines[i] {
			t.Fatalf("record %d: %+v on line %d, the reference %+v on line %d", i, got[i], sc.line, want[i], wantLines[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, the reference %d", len(got), len(want))
	}
	err := sc.Err()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("error %v, the reference %v", err, wantErr)
	}
	if sc.Scan() {
		t.Fatal("scanner advanced after it had stopped")
	}
	return got, err
}

// TestSWFScannerMatchesRead: over randomized traces the streaming scanner
// delivers what the reference parser does, and the materializing reader —
// a Collect over the scanner — the same records again.
func TestSWFScannerMatchesRead(t *testing.T) {
	rng := stats.NewRNG(7)
	for trial := 0; trial < 30; trial++ {
		recs := randomRecs(rng, 1+rng.Intn(60))
		var buf bytes.Buffer
		if err := writeSWF(&buf, recs); err != nil {
			t.Fatal(err)
		}
		got, err := requireMatchesReference(t, buf.String())
		if err != nil || len(got) != len(recs) {
			t.Fatalf("trial %d: scanner saw %d of %d records, err %v", trial, len(got), len(recs), err)
		}
		want, err := ReadSWFRecords(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: scanner and reader diverged:\n%+v\nvs\n%+v", trial, got, want)
		}
	}
}

// swfEdgeCases are inputs at the edges of the line format, each a row of
// TestSWFScannerMalformed and a seed of FuzzSWFScanner: okRecs records are
// delivered, then the scan ends cleanly (errSub empty) or with an error
// that contains errSub.
var swfEdgeCases = []struct {
	name   string
	input  string
	okRecs int
	errSub string
}{
	{"too_few_fields", "; header\n1 0 0 5 2 1\n2 0 0\n", 1, "line 3: 3 fields, want 6"},
	{"unparsable_field", "1 0 0 5 2 1\n2 0 zebra 5 2 1\n", 1, "line 2 field 2"},
	{"truncated_final_record", "1 0 0 5 2 1\n2 1 0", 1, "line 2: 3 fields, want 6"},
	{"garbage_first_line", "<html>not a trace</html>\n", 0, "line 1"},
	{"nan_field_parses", "1 NaN 0 5 2 1\n", 1, ""}, // ParseFloat accepts NaN; policy lives upstream
	// White space is what unicode.IsSpace says, not what ASCII says:
	// U+00A0, U+2003 and U+0085 separate fields and are trimmed.
	{"nbsp_separates", "1\xc2\xa00 0 5 2 1\n", 1, ""},
	{"em_space_separates", "1 0\xe2\x80\x830 5 2 1\n", 1, ""},
	{"nel_separates_and_trails", "\xc2\x851 0 0\xc2\x855 2 1\xc2\x85\n", 1, ""},
	// Bytes that are no UTF-8 are runes of their own, and not spaces.
	{"invalid_utf8_joins_fields", "1 0\xff0 5 2 1\n", 0, "line 1: 5 fields, want 6"},
	{"invalid_utf8_field", "1 0 \xff 0 5 2 1\n", 0, `line 1 field 2: strconv.ParseFloat: parsing "\xff": invalid syntax`},
	{"truncated_utf8_field", "1 0 \xc2 0 5 2 1\n", 0, `line 1 field 2: strconv.ParseFloat: parsing "\xc2"`},
	{"truncated_space_leads", "\xe2\x80 1 0 0 5 2 1\n", 0, `line 1 field 0: strconv.ParseFloat: parsing "\xe2\x80"`},
	{"vt_ff_cr_and_crlf", "1\v0\x0c0\r5 2 1\r\n2 0 0 5 2 1\r\n", 2, ""},
	{"comment_after_blanks", " \t ; 1 2\n\t;\n1 0 0 5 2 1\n", 1, ""},
	{"comment_after_nbsp", "\xc2\xa0; zebra\n1 0 0 5 2 1\n", 1, ""},
	{"semicolon_inside_field", "1;2 0 0 5 2 1\n", 0, `line 1 field 0: strconv.ParseFloat: parsing "1;2"`},
	// Everything strconv reads as a float is a field value.
	{"signed_zeros_and_plus", "-0 +5 -0 +5 +5 -0\n", 1, ""},
	{"underscores", "1_000 0 0 5 2 1\n", 1, ""},
	{"hex_float", "0x1p2 0x1p-2 0 5 2 1\n", 1, ""},
	{"infinities", "1 Inf -inf +Infinity 2 1\n", 1, ""},
	{"nan_spellings", "1 nan NaN 5 2 1\n", 1, ""},
	{"twenty_digit_id", "12345678901234567890 0 0 5 2 1\n", 0, `line 1 field 0: "12345678901234567890" is not an integer within ±2^53`},
	{"forty_byte_field", "1 0." + strings.Repeat("3", 38) + " 0 5 2 1\n", 1, ""}, // beyond the 32-byte stack string
	{"out_of_range", "1 1e999 0 5 2 1\n", 0, `line 1 field 1: strconv.ParseFloat: parsing "1e999": value out of range`},
	{"lone_minus", "1 0 0 5 2 1\n2 - 0 5 2 1\n", 1, `line 2 field 1: strconv.ParseFloat: parsing "-": invalid syntax`},
	// Both sides of every bound of the decoder's exact decimal path.
	{"significand_2p53", "1 9007199254740992 0 5 2 1\n", 1, ""},
	{"significand_2p53_plus_1", "1 9007199254740993 0 5 2 1\n", 1, ""},
	{"significand_2p64_wraps_to_0", "1 18446744073709551616 0 5 2 1\n", 1, ""},
	{"fraction_22_digits", "1 0." + strings.Repeat("0", 21) + "7 0 5 2 1\n", 1, ""},
	{"fraction_23_digits", "1 0." + strings.Repeat("0", 22) + "7 0 5 2 1\n", 1, ""},
	{"19_digits_leading_zeros", "1 " + strings.Repeat("0", 17) + ".25 0 5 2 1\n", 1, ""},
	{"20_digits_leading_zeros", "1 " + strings.Repeat("0", 18) + ".25 0 5 2 1\n", 1, ""},
	{"minus_zero_point_zero", "1 -0.0 0 5 2 1\n", 1, ""},
	{"trailing_point", "1 1. 0 5 2 1\n", 1, ""},
	{"leading_point", "1 .5 0 5 2 1\n", 1, ""},
	{"one_tenth", "1 0.1 0 5 2 1\n", 1, ""},
	{"plus_zero", "1 +0 0 5 2 1\n", 1, ""},
	{"plus_point", "1 +. 0 5 2 1\n", 0, `line 1 field 1: strconv.ParseFloat: parsing "+.": invalid syntax`},
	{"minus_point", "1 -. 0 5 2 1\n", 0, `line 1 field 1: strconv.ParseFloat: parsing "-.": invalid syntax`},
	{"two_points", "1 1.2.5 0 5 2 1\n", 0, `line 1 field 1: strconv.ParseFloat: parsing "1.2.5": invalid syntax`},
	{"inner_sign", "1 1-2 0 5 2 1\n", 0, `line 1 field 1: strconv.ParseFloat: parsing "1-2": invalid syntax`},
	// The ID and procs are integers within ±2^53, whatever their spelling,
	// so that int() converts them alike on every host; the first of the
	// two that is not ends the scan, after every field has been read.
	{"integer_spellings", "1e1 0 0 5 2.0 1\n0x1p2 0 0 5 +2. 1\n-0 0 0 5 0020 1\n", 3, ""},
	{"procs_fraction", "1 0 0 5 2.5 1\n", 0, `line 1 field 4: "2.5" is not an integer within ±2^53`},
	{"id_fraction", "1 0 0 5 2 1\n2.5 0 0 5 2 1\n", 1, `line 2 field 0: "2.5" is not an integer within ±2^53`},
	{"hex_fraction_id", "0x1p-2 0 0 5 2 1\n", 0, `line 1 field 0: "0x1p-2" is not an integer within ±2^53`},
	{"procs_1e300", "1 0 0 5 1e300 1\n", 0, `line 1 field 4: "1e300" is not an integer within ±2^53`},
	{"procs_minus_1e300", "1 0 0 5 -1e300 1\n", 0, `line 1 field 4: "-1e300" is not an integer within ±2^53`},
	{"procs_inf", "1 0 0 5 +Inf 1\n", 0, `line 1 field 4: "+Inf" is not an integer within ±2^53`},
	{"id_nan", "NaN 0 0 5 2 1\n", 0, `line 1 field 0: "NaN" is not an integer within ±2^53`},
	{"id_first_of_both", "0.5 0 0 5 0.5 1\n", 0, `line 1 field 0: "0.5" is not an integer within ±2^53`},
	{"unparsable_before_integer_check", "0.5 0 zebra 5 2 1\n", 0, `line 1 field 2: strconv.ParseFloat: parsing "zebra": invalid syntax`},
	{"id_2p53", "9007199254740992 0 0 5 2 1\n-9007199254740992 0 0 5 2 1\n", 2, ""},
	{"id_2p53_plus_1", "9007199254740993 0 0 5 2 1\n", 0, `line 1 field 0: "9007199254740993" is not an integer within ±2^53`},
	{"id_minus_2p53_minus_1", "-9007199254740993 0 0 5 2 1\n", 0, `line 1 field 0: "-9007199254740993" is not an integer within ±2^53`},
	{"procs_2p53_plus_1", "1 0 0 5 9007199254740993 1\n", 0, `line 1 field 4: "9007199254740993" is not an integer within ±2^53`},
	{"procs_minus_2p53_minus_1", "1 0 0 5 -9007199254740993 1\n", 0, `line 1 field 4: "-9007199254740993" is not an integer within ±2^53`},
	{"id_below_2p53_half", "9007199254740991.5 0 0 5 2 1\n", 0, `line 1 field 0: "9007199254740991.5" is not an integer within ±2^53`},
	{"procs_2p53_spelled_wide", "1 0 0 5 +0009007199254740992.000 1\n2 0 0 5 " + strings.Repeat("0", 30) + "7 1\n", 2, ""},
	{"id_2p53_plus_2", "9007199254740994 0 0 5 2 1\n", 0, `line 1 field 0: "9007199254740994" is not an integer within ±2^53`},
	{"procs_minus_2p53_plus_2", "1 0 0 5 -9007199254740994 1\n", 0, `line 1 field 4: "-9007199254740994" is not an integer within ±2^53`},
	// Spelled with an exponent or in hex, they are judged on what they
	// spell too, not on the float it rounds to.
	{"id_exponent_2p53", "9.007199254740992e15 0 0 5 2 1\n-9.007199254740992E15 0 0 5 2 1\n", 2, ""},
	{"id_exponent_2p53_plus_1", "9.007199254740993e15 0 0 5 2 1\n", 0, `line 1 field 0: "9.007199254740993e15" is not an integer within ±2^53`},
	{"id_exponent_2p52_plus_half", "4.5035996273704965e15 0 0 5 2 1\n", 0, `line 1 field 0: "4.5035996273704965e15" is not an integer within ±2^53`},
	{"procs_exponent_2p53_plus_1", "1 0 0 5 9.007199254740993e15 1\n", 0, `line 1 field 4: "9.007199254740993e15" is not an integer within ±2^53`},
	{"procs_exponent_2p52_plus_half", "1 0 0 5 -4.5035996273704965e15 1\n", 0, `line 1 field 4: "-4.5035996273704965e15" is not an integer within ±2^53`},
	{"procs_exponent_rounds_to_1", "1 0 0 5 1.0000000000000001e0 1\n", 0, `line 1 field 4: "1.0000000000000001e0" is not an integer within ±2^53`},
	{"id_hex_2p53_plus_1", "0x20000000000001p0 0 0 5 2 1\n", 0, `line 1 field 0: "0x20000000000001p0" is not an integer within ±2^53`},
	{"procs_exponent_800_bytes", "1 0 0 5 2." + strings.Repeat("0", 796) + "e0 1\n2 0 0 5 2." + strings.Repeat("0", 797) + "e0 1\n", 1,
		`line 2 field 4: "2.` + strings.Repeat("0", 797) + `e0" is not an integer within ±2^53`},
	// The field count is checked before any field is read.
	{"few_fields_bad_first", "zebra 0 0\n", 0, "line 1: 3 fields, want 6"},
	{"five_fields_trailing_blank", "1 0 0 5 2 \n", 0, "line 1: 5 fields, want 6"},
	{"garbage_in_field_seven", "1 0 0 5 2 1 <garbage> \xff\n2 0 0 5 2 1 7 8 9\n", 2, ""},
	// A line and its newline fill the 4 MiB buffer exactly; a longer one is
	// TestSWFScannerOversizedLine's case.
	{"line_at_cap", "1 0 0 5 2 1\n2 0 0" + strings.Repeat(" ", maxSWFLine-len("2 0 05 2 1\n")) + "5 2 1\n3 0 0 5 2 1\n", 3, ""},
}

// TestSWFScannerMalformed: malformed lines fail with the same error
// surface ReadSWFRecords always had, records before the bad line are
// still delivered, and the scanner stays stopped afterwards — all of it
// what the reference parser says, to the letter.
func TestSWFScannerMalformed(t *testing.T) {
	for _, tc := range swfEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := requireMatchesReference(t, tc.input)
			if len(recs) != tc.okRecs {
				t.Fatalf("delivered %d records, want %d", len(recs), tc.okRecs)
			}
			if tc.errSub == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errSub) {
				t.Fatalf("err = %v, want substring %q", err, tc.errSub)
			}
			// The materializing reader reports the identical error.
			if _, rerr := ReadSWFRecords(strings.NewReader(tc.input)); rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("reader error %v != scanner error %v", rerr, err)
			}
		})
	}
}

// TestSWFScannerZeroAlloc: on ASCII input a record costs no allocation —
// the line is split where bufio left it and no field reaches the heap.
func TestSWFScannerZeroAlloc(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSWF(&buf, randomRecs(stats.NewRNG(5), 2000)); err != nil {
		t.Fatal(err)
	}
	sc := NewSWFScanner(bytes.NewReader(buf.Bytes()))
	allocs := testing.AllocsPerRun(1500, func() {
		if !sc.Scan() {
			t.Fatalf("scan stopped on line %d: %v", sc.line, sc.Err())
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per record, want 0", allocs)
	}
}

// TestSWFScannerOversizedLine: a line beyond the 4 MiB cap fails with
// bufio.ErrTooLong instead of buffering without bound.
func TestSWFScannerOversizedLine(t *testing.T) {
	var b strings.Builder
	b.WriteString("1 0 0 5 2 1\n2 0 0 5 2 ")
	b.WriteString(strings.Repeat("9", maxSWFLine+16))
	b.WriteString("\n")
	sc := NewSWFScanner(strings.NewReader(b.String()))
	n := 0
	for sc.Scan() {
		n++
	}
	if n != 1 {
		t.Fatalf("delivered %d records, want 1", n)
	}
	if err := sc.Err(); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
}

// TestSWFJobSourceStreamsJobs: the Source adapter yields the same jobs
// as the materializing ReadSWF across several slabs, each at its own
// address, and a record that cannot become a job stops the stream with
// an error after the preceding jobs were yielded, leaving them as they
// were and taking no slot.
func TestSWFJobSourceStreamsJobs(t *testing.T) {
	rng := stats.NewRNG(3)
	recs := randomRecs(rng, 200)
	var buf bytes.Buffer
	if err := writeSWF(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want, err := ReadSWF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src := NewSWFJobSource(bytes.NewReader(buf.Bytes()))
	var got []*workload.Job
	for {
		j, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, j)
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d jobs, want %d", len(got), len(want))
	}
	seen := make(map[*workload.Job]int, len(got))
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("job %d diverged: %+v vs %+v", i, got[i], want[i])
		}
		if k, dup := seen[got[i]]; dup {
			t.Fatalf("jobs %d and %d share one address", k, i)
		}
		seen[got[i]] = i
	}
	// Overwriting any one job changes that job alone.
	for k := range got {
		saved := *got[k]
		*got[k] = workload.Job{ID: -1, Weight: math.NaN()}
		for i := range got {
			if i != k && !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("writing job %d changed job %d: %+v", k, i, got[i])
			}
		}
		*got[k] = saved
	}

	// A refused record six slots into the second slab: the 70 jobs
	// before it are yielded, then a hard stop that leaves them and the
	// slab's free slots untouched.
	for _, bad := range []string{"71 0 0 5 0 1", "71 0 0 0 2 1", "71 0 0 NaN 2 1", "71 0 0 5 2 +Inf", "71 0 0 x 2 1", "71 0 0 5 2.5 1"} {
		var in strings.Builder
		for id := 1; id <= 70; id++ {
			fmt.Fprintf(&in, "%d %d 0 5 %d 1\n", id, id, 1+id%3)
		}
		in.WriteString(bad + "\n72 0 0 5 1 1\n")
		src = NewSWFJobSource(strings.NewReader(in.String()))
		var yielded []*workload.Job
		var values []workload.Job
		for {
			j, ok := src.Next()
			if !ok {
				break
			}
			yielded = append(yielded, j)
			values = append(values, *j)
		}
		if len(yielded) != 70 || src.Err() == nil {
			t.Fatalf("%q: yielded %d jobs, err=%v", bad, len(yielded), src.Err())
		}
		for i, j := range yielded {
			if !reflect.DeepEqual(*j, values[i]) {
				t.Fatalf("%q: job %d changed after it was yielded: %+v, was %+v", bad, i, *j, values[i])
			}
		}
		if free := len(src.slab); free != 2*swfSlab-70 {
			t.Fatalf("%q: %d free slots in the slab, want %d", bad, free, 2*swfSlab-70)
		}
		if !reflect.DeepEqual(src.slab[0], workload.Job{}) {
			t.Fatalf("%q: the refused record wrote its slot: %+v", bad, src.slab[0])
		}
		if _, ok := src.Next(); ok || src.Err() == nil {
			t.Fatalf("%q: source restarted after error", bad)
		}
	}
}

// TestSWFWriterMatchesFmt: a line is, byte for byte, what
// fmt.Fprintf("%d %g %g %g %d %g\n") printed before the writer formatted
// with strconv — over the values where the two could part (NaN, the
// infinities, signed zeros, subnormals, both ends of the range where 'g'
// switches to an exponent) and over random bit patterns, long lines and
// short ones sharing the writer's buffer — and what was written reads
// back equal. A record whose ID or procs lies beyond ±2^53
// (math.MaxInt64 and math.MinInt64 among them) is refused instead, with
// the error text SWFScanner gives such a field, and writes nothing.
func TestSWFWriterMatchesFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 123456.789,
		math.NaN(), math.Inf(1), math.Inf(-1),
		5e-324, math.Nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
		1e20, math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, 2e21), 1e22, 123456789012345678901234,
		1e-4, math.Nextafter(1e-4, 0), 1e-5, 1e-7, 0.000012345, 100000, 1e6, 12345678,
	}
	ints := []int{0, 1, -1, 42, 1_000_000, 1 << 53, -1 << 53, 1<<53 + 1, math.MaxInt64, math.MinInt64}
	var recs []SWFRecord
	for i, f := range floats {
		pick := func(k int) float64 { return floats[(i+k)%len(floats)] }
		recs = append(recs, SWFRecord{
			ID: ints[i%len(ints)], Submit: f, Wait: pick(3), Runtime: pick(7), Procs: ints[(i+2)%len(ints)], Weight: pick(11),
		})
	}
	rng := stats.NewRNG(23)
	bitsOf := func() float64 { return math.Float64frombits(rng.Uint64()) }
	intOf := func() int { return int(int64(rng.Uint64()) >> uint(rng.Intn(64))) }
	for i := 0; i < 20000; i++ {
		recs = append(recs, SWFRecord{
			ID: intOf(), Submit: bitsOf(), Wait: bitsOf(), Runtime: bitsOf(), Procs: intOf(), Weight: bitsOf(),
		})
	}

	const header = "; id submit wait runtime procs weight\n"
	var want, got bytes.Buffer
	want.WriteString(header)
	w := NewSWFWriter(&got)
	var written []SWFRecord
	for _, rec := range recs {
		line := fmt.Sprintf("%d %g %g %g %d %g\n", rec.ID, rec.Submit, rec.Wait, rec.Runtime, rec.Procs, rec.Weight)
		// The writer names the first field past ±2^53, and the scanner
		// refuses fmt's line naming one of them, 2^53+1 included.
		var refusals []string
		for _, f := range [...]struct{ field, v int }{{0, rec.ID}, {4, rec.Procs}} {
			if int64(f.v) < -1<<53 || int64(f.v) > 1<<53 {
				refusals = append(refusals, fmt.Sprintf("trace: line 2 field %d: %q is not an integer within ±2^53", f.field, strconv.Itoa(f.v)))
			}
		}
		if len(refusals) > 0 {
			sc := NewSWFScanner(strings.NewReader(header + line))
			if sc.Scan() || sc.Err() == nil || !slices.Contains(refusals, sc.Err().Error()) {
				t.Fatalf("%q: the scanner fails with %v, want one of %q", line, sc.Err(), refusals)
			}
			var out bytes.Buffer
			rw := NewSWFWriter(&out)
			err := rw.Write(rec)
			if err == nil || err.Error() != refusals[0] {
				t.Fatalf("%q: Write returned %v, want %s", line, err, refusals[0])
			}
			if again := rw.Write(SWFRecord{ID: 1, Procs: 1}); again != err {
				t.Fatalf("%q: the next Write returned %v, want the first error", line, again)
			}
			if ferr := rw.Flush(); ferr != err || strings.Contains(out.String(), line) {
				t.Fatalf("%q: Flush returned %v and wrote %q", line, ferr, out.String())
			}
			continue
		}
		want.WriteString(line)
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		written = append(written, rec)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(written) == len(recs) || len(written) < len(recs)/2 {
		t.Fatalf("%d of %d records within ±2^53: both paths are not exercised", len(written), len(recs))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range wantLines {
			if i >= len(gotLines) || gotLines[i] != wantLines[i] {
				t.Fatalf("line %d: wrote %q, fmt prints %q", i+1, gotLines[min(i, len(gotLines)-1)], wantLines[i])
			}
		}
		t.Fatalf("wrote %d lines, fmt prints %d", len(gotLines), len(wantLines))
	}
	back, err := ReadSWFRecords(&got)
	if err != nil || len(back) != len(written) {
		t.Fatalf("read back %d of %d records: %v", len(back), len(written), err)
	}
	for i, rec := range written {
		// A NaN reads back as the one NaN strconv parses, whatever its
		// payload was.
		for _, v := range []*float64{&rec.Submit, &rec.Wait, &rec.Runtime, &rec.Weight} {
			if math.IsNaN(*v) {
				*v = math.NaN()
			}
		}
		if !sameRecord(back[i], rec) {
			t.Fatalf("record %d: wrote %+v, read back %+v", i, rec, back[i])
		}
	}
}

// FuzzSWFScanner: for arbitrary input the scanner must never panic, must
// deliver what scanReference delivers (records, their lines, and the error
// to the letter), and any input that parses cleanly must round-trip
// byte-stably through write→read→write.
func FuzzSWFScanner(f *testing.F) {
	for _, tc := range swfEdgeCases {
		f.Add(tc.input)
	}
	f.Add("; id submit wait runtime procs weight\n1 0 0 5 2 1\n")
	f.Add("1 1e-300 2.5 3 4 5\n2 1e300 0.1 7 1 1")
	f.Add("")
	f.Add(";\n\n  \n")
	f.Add("-1 -2 -3 -4 -5 -6\n")
	f.Add("a b c d e f\n")
	f.Fuzz(func(t *testing.T, input string) {
		want, err := requireMatchesReference(t, input)
		if err != nil {
			return
		}
		// Canonicalize once, then the format is a fixed point.
		var first bytes.Buffer
		if err := writeSWF(&first, want); err != nil {
			t.Fatal(err)
		}
		again, err := ReadSWFRecords(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("canonical form failed to parse: %v", err)
		}
		var second bytes.Buffer
		if err := writeSWF(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→read→write not stable:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

// FuzzSWFDecimal: every field the decoder values itself is one
// strconv.ParseFloat accepts, and its value is strconv's bit for bit (so
// -0 is not 0). Besides the edge rows, the seeds are random uint64s of
// any length behind up to two leading zeros, as they are and with a
// point anywhere and an optional sign: both sides of the exact paths'
// bounds; and decimalSeeds, for the Eisel–Lemire path and its fallback.
func FuzzSWFDecimal(f *testing.F) {
	for _, tc := range swfEdgeCases {
		f.Add(tc.input)
	}
	for _, s := range decimalSeeds() {
		f.Add(s)
	}
	rng := stats.NewRNG(29)
	for i := 0; i < 200; i++ {
		digits := strings.Repeat("0", rng.Intn(3)) + strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(64)), 10)
		at := rng.Intn(len(digits) + 1)
		f.Add([]string{"", "-", "+"}[rng.Intn(3)] + digits[:at] + "." + digits[at:])
		f.Add(digits)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var l swfLine
		n := l.decode([]byte(input))
		for i := range min(n, len(l.field)) {
			if l.exact&(1<<i) == 0 {
				continue
			}
			want, err := strconv.ParseFloat(string(l.field[i]), 64)
			if err != nil {
				t.Fatalf("field %d %q valued %v, strconv rejects it: %v", i, l.field[i], l.val[i], err)
			}
			if math.Float64bits(l.val[i]) != math.Float64bits(want) {
				t.Fatalf("field %d %q valued %v, strconv reads %v", i, l.field[i], l.val[i], want)
			}
		}
	})
}
