package trace

import (
	"bytes"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestDetailedPowersOfTen derives the table again: row k holds 10^-k (k
// from 19 down to 0) as a 128-bit mantissa rounded down, and the linear
// expression eiselLemire64 uses gives its binary exponent.
func TestDetailedPowersOfTen(t *testing.T) {
	if n := len(detailedPowersOfTen); n != detailedPowersOfTenMaxExp10-detailedPowersOfTenMinExp10+1 {
		t.Fatalf("%d rows for exponents %d to %d", n, detailedPowersOfTenMinExp10, detailedPowersOfTenMaxExp10)
	}
	for e := detailedPowersOfTenMinExp10; e <= detailedPowersOfTenMaxExp10; e++ {
		// 10^e = 2^shift / 10^-e × 2^-shift, with shift chosen so that the
		// quotient, rounded down, has 128 bits.
		div := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-e)), nil)
		shift := 127 + div.BitLen()
		m := new(big.Int).Lsh(big.NewInt(1), uint(shift))
		m.Quo(m, div)
		if m.BitLen() > 128 { // 10^0: the quotient is 2^128
			m.Rsh(m, 1)
			shift--
		}
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		if got := detailedPowersOfTen[e-detailedPowersOfTenMinExp10]; got != [2]uint64{lo, hi} {
			t.Errorf("1e%d: row {%#016x, %#016x}, want {%#016x, %#016x}", e, got[0], got[1], lo, hi)
		}
		if exp2 := 217706*e>>16 - 127; exp2 != -shift {
			t.Errorf("1e%d: implied exponent 2^%d, want 2^%d", e, exp2, -shift)
		}
	}
}

// halfwayDecimals are decimals of 16 to 19 digits that lie exactly half
// way between two adjacent float64s, with 0 to 3 fraction digits, and
// that round down, to the even one: (2^53 + r) × 2^-k with r ≡ 1 mod 4,
// where the float64 spacing is 2^(1-k). Told apart from a value a hair
// above, which rounds up, only by the exact value, they are the inputs on
// which Eisel–Lemire reports the ambiguity and the decoder leaves the
// field to strconv. (A half-way value that rounds up, r ≡ 3 mod 4, rounds
// up either way, and the algorithm values it.)
func halfwayDecimals() []string {
	var out []string
	for k := 0; k <= 3; k++ {
		for _, odd := range []uint64{1, 5, 12345, 1<<20 + 1, 1<<52 - 3} {
			v := new(big.Float).SetPrec(128).SetUint64(1<<53 + odd)
			v.SetMantExp(v, -k)
			s := v.Text('f', k)
			out = append(out, s, "-"+s)
		}
	}
	return out
}

// TestEiselLemireAmbiguousFallsBack: on a decimal half way between two
// float64s the algorithm reports the ambiguity, the decoder leaves the
// field to strconv, and the scanner's value is strconv's; one unit of the
// last digit either side, it values the field itself.
func TestEiselLemireAmbiguousFallsBack(t *testing.T) {
	for _, s := range halfwayDecimals() {
		digits := strings.TrimLeft(strings.Replace(s, ".", "", 1), "-")
		mant, err := strconv.ParseUint(digits, 10, 64)
		if err != nil || len(digits) > 19 || mant <= 1<<53 {
			t.Fatalf("%q: not a 16- to 19-digit significand above 2^53 (%v)", s, err)
		}
		frac := 0
		if i := strings.IndexByte(s, '.'); i >= 0 {
			frac = len(s) - i - 1
		}
		if _, ok := eiselLemire64(mant, -frac, s[0] == '-'); ok {
			t.Errorf("%q: Eisel–Lemire rounded a half-way value", s)
		}
		line := "1 " + s + " 0 5 2 1"
		var l swfLine
		l.decode([]byte(line))
		if l.exact&(1<<1) != 0 {
			t.Errorf("%q: the decoder valued a half-way field", s)
		}
		recs, err := requireMatchesReference(t, line+"\n")
		if err != nil || len(recs) != 1 {
			t.Fatalf("%q: %d records, err %v", s, len(recs), err)
		}
		for _, near := range []uint64{mant - 1, mant + 1} {
			f := strconv.FormatUint(near, 10)
			if frac > 0 {
				f = f[:len(f)-frac] + "." + f[len(f)-frac:]
			}
			if s[0] == '-' {
				f = "-" + f
			}
			var l swfLine
			l.decode([]byte(f))
			want, _ := strconv.ParseFloat(f, 64)
			if l.exact&1 == 0 || math.Float64bits(l.val[0]) != math.Float64bits(want) {
				t.Errorf("%q: valued %v (exact %v), strconv reads %v", f, l.val[0], l.exact&1 != 0, want)
			}
		}
	}
}

// TestSWFDecimalNoFallbacks is a counted row: of 10 000 records shaped
// like the replay archives, whose %g runtimes have 16 or 17 digits,
// every field of the six a record reads is valued on an exact path and
// none goes to strconv (5 613 did while the decoder valued significands
// up to 2^53 only).
func TestSWFDecimalNoFallbacks(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSWF(&buf, benchArchive(10_000)); err != nil {
		t.Fatal(err)
	}
	records, fallbacks := 0, 0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		var l swfLine
		if n := l.decode(line); n == 0 || l.field[0][0] == ';' {
			continue
		}
		records++
		fallbacks += len(l.field) - bits.OnesCount8(l.exact)
	}
	if records != 10_000 || fallbacks != 0 {
		t.Fatalf("%d records, %d fields left to strconv; want 10000, 0", records, fallbacks)
	}
}

// decimalSeeds are FuzzSWFDecimal's seeds for the Eisel–Lemire path: a
// random significand of each length from 16 to 19 digits with the point
// at every place that leaves 0 to 19 fraction digits, both signs, and the
// half-way decimals on which the algorithm reports the ambiguity.
func decimalSeeds() []string {
	rng := stats.NewRNG(31)
	var out []string
	for d := 16; d <= 19; d++ {
		lo := uint64(1) // 10^(d-1), the least significand of d digits
		for range d - 1 {
			lo *= 10
		}
		for frac := 0; frac <= d; frac++ {
			digits := strconv.FormatUint(lo+rng.Uint64()%(9*lo), 10)
			s := digits[:d-frac] + "." + digits[d-frac:]
			if frac == 0 && rng.Intn(2) == 0 {
				s = digits
			}
			out = append(out, s, "-"+s)
		}
	}
	return append(out, halfwayDecimals()...)
}
