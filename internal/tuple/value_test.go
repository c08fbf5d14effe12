package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// refFormat is the value formatting the text and JSON encoders used
// before AppendValue: the reference its output must equal byte for byte.
func refFormat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// refParse is Parse as it was before parseCanonical and parseValue, kept
// verbatim as the differential reference.
func refParse(line string) (Tuple, error) {
	s := strings.TrimSpace(line)
	if s == "" {
		return Tuple{}, fmt.Errorf("tuple: empty line")
	}
	timeField, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return Tuple{}, fmt.Errorf("tuple: %q: missing value field", line)
	}
	valueField, name, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)

	ms, err := strconv.ParseInt(timeField, 10, 64)
	if err != nil {
		return Tuple{}, fmt.Errorf("tuple: %q: bad time: %w", line, err)
	}
	v, err := strconv.ParseFloat(valueField, 64)
	if err != nil {
		return Tuple{}, fmt.Errorf("tuple: %q: bad value: %w", line, err)
	}
	return Tuple{Time: ms, Value: v, Name: name}, nil
}

// valueSeeds are the shapes the fast codec must get exactly right: short
// decimals, both edges of the decimal range, the 2^50 mantissa edge, and
// the 17-digit values a sawtooth produces.
var valueSeeds = []float64{
	0, 1, -1, 42, 0.1, 0.25, -0.5, 1.15, 519.53, 1234.5678, 3.14159,
	1e-4, 1e-5, 0.00010000000000000002, 9.9999e-5,
	999999.99, 999999.9999999999, 1e6, 1e6 + 0.5, 1e21, 1e-300,
	1125899906842623e-10, 1125899906842624e-10, 1125899906842625e-10,
	112589990684262.3, 0.1125899906842623,
	1 + 37.0*13/137, 55 + 91.0*449/499, 0.1 + 0.2, 2.0 / 3, 100.0 / 7,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN(),
	-0.0, math.Copysign(0, -1),
}

// parseDecimals renders v the ways a text line may carry it, so the fast
// parser meets non-shortest decimals too.
func parseDecimals(v float64) []string {
	out := []string{refFormat(v)}
	for _, prec := range []int{1, 2, 6, 15, 17} {
		out = append(out, strconv.FormatFloat(v, 'f', prec, 64))
	}
	return out
}

func checkValue(t *testing.T, v float64) {
	t.Helper()
	if got, want := string(AppendValue(nil, v)), refFormat(v); got != want {
		t.Fatalf("AppendValue(%b) = %q, want %q", math.Float64bits(v), got, want)
	}
	if got, want := FormatValue(v), refFormat(v); got != want {
		t.Fatalf("FormatValue(%b) = %q, want %q", math.Float64bits(v), got, want)
	}
	for _, dec := range parseDecimals(v) {
		want, err := strconv.ParseFloat(dec, 64)
		if err != nil {
			continue
		}
		tu, err := Parse("7 " + dec + " x")
		if err != nil {
			t.Fatalf("Parse of %q: %v", dec, err)
		}
		if math.Float64bits(tu.Value) != math.Float64bits(want) {
			t.Fatalf("Parse of %q = %b, strconv %b", dec, math.Float64bits(tu.Value), math.Float64bits(want))
		}
	}
}

func TestAppendValueMatchesStrconv(t *testing.T) {
	for _, v := range valueSeeds {
		checkValue(t, v)
		checkValue(t, -v)
	}
	// Dense sweeps over the decimal shapes telemetry carries.
	for i := -200000; i <= 200000; i += 7 {
		checkValue(t, float64(i)/100)
		checkValue(t, float64(i)/1e4)
	}
	for p := 1; p < 500; p++ {
		for k := int64(0); k < int64(p); k += 13 {
			checkValue(t, 1+37*float64(k)/float64(p))
		}
	}
}

// FuzzAppendValue is differential: AppendValue must be byte-equal to the
// strconv formatting it replaced, and Parse must read every decimal
// rendering of the value bit-equal to strconv.ParseFloat.
func FuzzAppendValue(f *testing.F) {
	for _, v := range valueSeeds {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		checkValue(t, v)
	})
}

// parseSeeds are canonical lines and the edges around them: lines
// parseCanonical must leave to the general path, and value fields
// parseValue must leave to strconv.
var parseSeeds = []string{
	"1500 42.5 CWND", "0 0", "1 2", "1 2 x", " 1 2 3 ", "1 .5", "1 5.", "1 1_0 x",
	"1 0x1p-2", "1 +.5 a b", "1 +5 a", "+1 5 a", "1\t2 x", "1 2\tx", "1 2 x\t",
	"1 2  x", "1 2 x ", "1 2 x\u0085", "1 2 x\r", "1 2  x",
	"1234567890123456789 1 x", "-1234567890123456789 1 x", "123456789012345678 1 x",
	"99999999999999999999 1 x", "-0.0", "1 -0.0", "1 -0", "-0 -0 -",
	"1 0.000000000000000000001", "1 0.0000000000000000000001", "1 0.00000000000000000000001",
	"1 123456789012345", "1 1234567890123456", "1 000000000000000000001.5",
	"1 1.5e3 x", "1 1e", "1 nan x", "1 Inf", "-", "1 -", "1 - x", "", " ", "x 1",
	"1 2 name with spaces", "1 2 é", "7 2.50 x", "7 0.30000000000000004 s",
}

// FuzzParseDifferential compares Parse with its strconv-only reference:
// every line must decode to the same tuple, bit for bit, or fail with the
// same error.
func FuzzParseDifferential(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, gerr := Parse(line)
		want, werr := refParse(line)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("Parse(%q) error %v, reference %v", line, gerr, werr)
		}
		if got.Time != want.Time || got.Name != want.Name ||
			math.Float64bits(got.Value) != math.Float64bits(want.Value) {
			t.Fatalf("Parse(%q) = %+v, reference %+v", line, got, want)
		}
	})
}

func TestParseCanonicalCoversEncoderOutput(t *testing.T) {
	for _, line := range []string{"1500 42.5 CWND", "0 0", "-3 -0.25 a b", "60000 1000042 net.flow0.cwnd", "9 519.53 s", "9 4.5109489051094895 s"} {
		if _, ok := parseCanonical(line); !ok {
			t.Errorf("parseCanonical(%q) declined an encoder-shaped line", line)
		}
	}
}

func TestValueCodecZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, v := range []float64{42, 519.53, 1 + 37.0*13/137} {
		if n := testing.AllocsPerRun(100, func() { buf = AppendValue(buf[:0], v) }); n != 0 {
			t.Errorf("AppendValue(%v) allocates %.1f times per call", v, n)
		}
	}
	var sink Tuple
	if n := testing.AllocsPerRun(100, func() { sink, _ = Parse("60000 519.53 net.flow0.cwnd") }); n != 0 {
		t.Errorf("Parse allocates %.1f times per call", n)
	}
	_ = sink
	batch := []Tuple{{1, 0.5, "a b"}, {2, 3, "a b"}, {3, math.NaN(), "c\"d"}, {4, 1.25, "c\"d"}}
	if n := testing.AllocsPerRun(100, func() { buf = AppendJSONBatch(buf[:0], batch) }); n != 0 {
		t.Errorf("AppendJSONBatch allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = AppendWireBatch(buf[:0], batch) }); n != 0 {
		t.Errorf("AppendWireBatch allocates %.1f times per call", n)
	}
}

func TestAppendJSONBatchRunsMatchPerTuple(t *testing.T) {
	batch := []Tuple{{1, 0.5, "a b"}, {2, 3, "a b"}, {3, math.NaN(), "c\"d"}, {4, 1.25, "c\"d"}, {5, -1, "a b"}, {6, 2, ""}}
	var want []byte
	want = append(want, '[')
	for i, tu := range batch {
		if i > 0 {
			want = append(want, ',')
		}
		want = append(want, '[')
		want = strconv.AppendInt(want, tu.Time, 10)
		want = append(want, ',')
		want = AppendJSONValue(want, tu.Value)
		want = append(want, ',')
		want = AppendJSONString(want, tu.Name)
		want = append(want, ']')
	}
	want = append(want, ']')
	if got := AppendJSONBatch(nil, batch); string(got) != string(want) {
		t.Fatalf("AppendJSONBatch = %s, want %s", got, want)
	}
}
