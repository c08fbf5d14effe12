package tuple

import (
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// The decimal value codec behind every text and JSON encoder and the
// text decoder. Both directions are exact: the bytes and the bits are
// strconv's. In the plain range 1e-4 ≤ |v| < 1e6, where the 'g' form is a
// plain decimal, integers and short decimals (counters, fixed-precision
// gauges) take a shortcut sized to those shapes, and the remaining values
// (full-precision doubles of 16–17 significant digits, which sawtooth and
// noise signals produce) take a Schubfach formatter and an Eisel–Lemire
// parser over one 128-bit power-of-ten table. strconv is left with the
// values 'g' prints in exponent form, fields of more than 19 significant
// digits or 20 fraction digits, and the parses Eisel–Lemire reports
// ambiguous.

// pow10 holds the exactly representable powers of ten 10^0 … 10^22.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

const (
	// maxDecimalPlaces is the most decimals the short-decimal search tries.
	maxDecimalPlaces = 15
	// decimalLimit bounds the search's scaled mantissa. Below it a
	// multiply by 10^k is within 1/4 of the true scaled value, so a
	// round-tripping k-decimal form cannot be missed, and k-decimal forms
	// lie more than 4 ulps apart, so at most one round-trips.
	decimalLimit = 1 << 50
	// maxExactDigits is the most significant digits the exact parse path
	// takes: the mantissa stays below 10^15 < 2^52, the bound of
	// strconv's own exact path.
	maxExactDigits = 15
	// maxParseDigits is the most significant digits the parser takes at
	// all: 10^19 - 1 is the largest such mantissa a uint64 holds.
	maxParseDigits = 19
	// maxParseFrac is the most fraction digits Eisel–Lemire takes: the
	// longest fraction AppendValue writes, 17 digits after "0.000".
	maxParseFrac = 20
)

// pow10x128 holds 10^e for pow10x128Min ≤ e ≤ 20 as the 128-bit
// {high, low} words of ⌊10^e·2^-r⌋, r chosen to put the top bit at 2^127.
// The formatter reaches 10^10 … 10^20 (the scale of the plain range's
// binary exponents) and the parser 10^-20 … 10^0 (fraction lengths up to
// maxParseFrac); TestPow10x128 regenerates the table and checks its range.
var pow10x128 = [...][2]uint64{
	{0xBCE5086492111AEA, 0x88F4BB1CA6BCF584}, // 1e-20
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5}, // 1e-19
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF}, // 1e-18
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2}, // 1e-17
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3}, // 1e-16
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10}, // 1e-15
	{0xB424DC35095CD80F, 0x538484C19EF38C94}, // 1e-14
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9}, // 1e-13
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3}, // 1e-12
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748}, // 1e-11
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B}, // 1e-10
	{0x89705F4136B4A597, 0x31680A88F8953030}, // 1e-9
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D}, // 1e-8
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C}, // 1e-7
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F}, // 1e-6
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53}, // 1e-5
	{0xD1B71758E219652B, 0xD3C36113404EA4A8}, // 1e-4
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9}, // 1e-3
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3}, // 1e-2
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}, // 1e-1
	{0x8000000000000000, 0x0000000000000000}, // 1e0
	{0xA000000000000000, 0x0000000000000000}, // 1e1
	{0xC800000000000000, 0x0000000000000000}, // 1e2
	{0xFA00000000000000, 0x0000000000000000}, // 1e3
	{0x9C40000000000000, 0x0000000000000000}, // 1e4
	{0xC350000000000000, 0x0000000000000000}, // 1e5
	{0xF424000000000000, 0x0000000000000000}, // 1e6
	{0x9896800000000000, 0x0000000000000000}, // 1e7
	{0xBEBC200000000000, 0x0000000000000000}, // 1e8
	{0xEE6B280000000000, 0x0000000000000000}, // 1e9
	{0x9502F90000000000, 0x0000000000000000}, // 1e10
	{0xBA43B74000000000, 0x0000000000000000}, // 1e11
	{0xE8D4A51000000000, 0x0000000000000000}, // 1e12
	{0x9184E72A00000000, 0x0000000000000000}, // 1e13
	{0xB5E620F480000000, 0x0000000000000000}, // 1e14
	{0xE35FA931A0000000, 0x0000000000000000}, // 1e15
	{0x8E1BC9BF04000000, 0x0000000000000000}, // 1e16
	{0xB1A2BC2EC5000000, 0x0000000000000000}, // 1e17
	{0xDE0B6B3A76400000, 0x0000000000000000}, // 1e18
	{0x8AC7230489E80000, 0x0000000000000000}, // 1e19
	{0xAD78EBC5AC620000, 0x0000000000000000}, // 1e20
}

// pow10x128Min is the exponent of pow10x128[0].
const pow10x128Min = -maxParseFrac

// AppendValue appends v in the wire's compact number form and returns
// the extended slice: integral values without a decimal point, everything
// else in strconv's shortest 'g' form, which round-trips exactly.
//
// In the plain range 1e-4 ≤ |v| < 1e6 the digits are found directly:
// first by shortDecimal, which settles short decimals with one multiply,
// then by the Schubfach kernel for the full-precision rest.
//
//gscope:hotpath
func AppendValue(dst []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	if a := math.Abs(v); a >= 1e-4 && a < 1e6 {
		m, k, ok := shortDecimal(a)
		if !ok {
			m, k = schubfach(a)
		}
		return appendDecimal(dst, v < 0, m, k)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// shortDecimal finds a's shortest form m·10^-k when it has at most 15
// decimals, with one test: at the largest k ≤ 15 for which
// m = round(a·10^k) is below 2^50, m/10^k == a holds exactly when a has a
// round-tripping form of at most k decimals, and that form is unique.
// Stripping m's trailing zeros then gives the fewest decimals, so the
// digits are exactly strconv's shortest output. a is a non-integer in the
// plain range; ok is false when it needs more digits.
//
//gscope:hotpath
func shortDecimal(a float64) (m uint64, k int, ok bool) {
	k = maxDecimalPlaces
	r := a * pow10[k]
	for r >= decimalLimit { // at most 6 steps: a·10^9 < 2^50
		k--
		r = a * pow10[k]
	}
	// A round-tripping m lies within r·2^-52 of r; the bound has 2×
	// slack. The division settles the candidates that pass.
	m = uint64(r + 0.5)
	if math.Abs(r-float64(m)) > r*0x1p-51 || float64(m)/pow10[k] != a {
		return 0, 0, false
	}
	// a is not an integer, so fewer than k zeros trail m: one pass of
	// 8, 4, 2 and 1 strips them all.
	if m%1e8 == 0 {
		m, k = m/1e8, k-8
	}
	if m%1e4 == 0 {
		m, k = m/1e4, k-4
	}
	if m%100 == 0 {
		m, k = m/100, k-2
	}
	if m%10 == 0 {
		m, k = m/10, k-1
	}
	return m, k, true
}

// schubfach returns a's shortest decimal form m·10^-k: of the decimals
// with the fewest significant digits in a's rounding interval, the one
// closest to a, ties to even — strconv's shortest digits. It is
// Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
// for a normal, non-integral a in the plain range, whose binary exponents
// -66 ≤ q ≤ -33 need only 10^10 … 10^20 from pow10x128.
//
// At the decimal scale 10^e, e = ⌊q·log10(2)⌋, the interval is at least
// one unit wide but less than ten, so it holds at most one multiple of
// ten, the only candidate with a digit fewer: if it does, that is the
// shortest form; otherwise the shortest forms are the integers s and s+1
// around the scaled value, and the closer one in the interval wins.
//
//gscope:hotpath
func schubfach(a float64) (m uint64, k int) {
	b := math.Float64bits(a)
	c := b&(1<<52-1) | 1<<52
	q := int(b>>52) - 1075
	// The rounding interval [cbl, cbr] around cb, in units of 2^q/4. It is
	// closed when c is even and open when c is odd, but that never
	// matters here: scaled by 10^-e, a bound is an odd multiple of 2^j
	// with j ≤ q-e-1 ≤ -24, so it never equals a decimal tested against it.
	// A power of two has a gap below it half the gap above; the kernel
	// takes the even interval anyway, since the powers of two here,
	// 2^-13 … 2^-1, are short decimals whose digits it still finds.
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	e := flog10pow2(q)
	// Scale by 10^-e with g = ⌊10^-e·2^-r⌋ + 1, the paper's choice of g.
	// These powers are exact in the table's high word, so the low word is
	// zero and the +1 never carries.
	g := &pow10x128[-e-pow10x128Min]
	gh, gl := g[0], g[1]+1
	h := q + flog2pow10(-e) + 1 // 1 ≤ h ≤ 4
	vb := roundOdd(gh, gl, cb<<h)
	vbl := roundOdd(gh, gl, cbl<<h)
	vbr := roundOdd(gh, gl, cbr<<h)
	s := vb >> 2
	sp := s / 10 * 10
	tp := sp + 10
	upin := vbl <= sp<<2
	wpin := tp<<2 <= vbr
	t := s + 1
	uin := vbl <= s<<2
	win := t<<2 <= vbr
	switch {
	case upin != wpin:
		m = tp
		if upin {
			m = sp
		}
	case uin != win:
		m = t
		if uin {
			m = s
		}
	default: // both s and t lie in the interval: the closer, ties to even
		m = t
		if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
			m = s
		}
	}
	// a is not an integer, so neither is its shortest form: the zeros
	// stop short of the point.
	for m%10 == 0 {
		m /= 10
		e++
	}
	return m, -e
}

// roundOdd returns ⌊g·cp/2^128⌋ with its low bit set when the product has
// a fraction (round to odd, "rop" in the paper), g = gh·2^64 + gl. The
// low word of cp·gl is dropped. On the plain range this is exact: the
// scaled bounds are multiples of 2^-46, which the dropped word (below
// 2^-64) cannot hide, and g's +1 lands entirely inside it.
//
//gscope:hotpath
func roundOdd(gh, gl, cp uint64) uint64 {
	x1, _ := bits.Mul64(gl, cp)
	y1, y0 := bits.Mul64(gh, cp)
	z, carry := bits.Add64(y0, x1, 0)
	r := y1 + carry
	if z != 0 {
		r |= 1
	}
	return r
}

// flog10pow2 returns ⌊q·log10(2)⌋ and flog2pow10 ⌊e·log2(10)⌋:
// fixed-point forms from the Schubfach paper, exact far beyond the
// exponents used here.
//
//gscope:hotpath
func flog10pow2(q int) int { return int(int64(q) * 661971961083 >> 41) }

//gscope:hotpath
func flog2pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// appendDecimal appends ±m·10^-k as a plain decimal with exactly k
// fraction digits.
//
//gscope:hotpath
func appendDecimal(dst []byte, neg bool, m uint64, k int) []byte {
	var b [24]byte // sign, point, 17 digits, leading zeros up to k
	i := len(b)
	for ; k > 0; k-- {
		i--
		b[i] = byte('0' + m%10)
		m /= 10
	}
	i--
	b[i] = '.'
	for {
		i--
		b[i] = byte('0' + m%10)
		m /= 10
		if m == 0 {
			break
		}
	}
	if neg {
		i--
		b[i] = '-'
	}
	return append(dst, b[i:]...)
}

// FormatValue renders a sample value the way the wire encoders do (see
// AppendValue).
func FormatValue(v float64) string {
	var b [32]byte
	return string(AppendValue(b[:0], v))
}

// parseValue parses a tuple's value field, bit-equal to
// strconv.ParseFloat and with the same errors. It takes a plain decimal,
// with a digit on both sides of any point, of m's significant digits and
// frac fraction digits. Up to 15 digits it computes float64(m)/10^frac,
// strconv's own exact path; 16–19 digits with at most 20 fraction digits
// go to Eisel–Lemire. Any other field, and any ambiguous Eisel–Lemire
// case, goes to ParseFloat.
//
//gscope:hotpath
func parseValue(s string) (float64, error) {
	i, n := 0, len(s)
	neg := n > 0 && s[0] == '-'
	if neg {
		i++
	}
	start := i
	var m uint64
	digits, frac, point := 0, 0, -1
	for ; i < n; i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			if m != 0 || c != '0' {
				if digits++; digits > maxParseDigits {
					return strconv.ParseFloat(s, 64)
				}
			}
			m = m*10 + uint64(c-'0')
			if point >= 0 {
				frac++
			}
		case c == '.' && point < 0:
			point = i
		default:
			return strconv.ParseFloat(s, 64)
		}
	}
	if n == start || point == start || point == n-1 {
		return strconv.ParseFloat(s, 64)
	}
	var v float64
	switch {
	case digits <= maxExactDigits && frac < len(pow10):
		v = float64(m) / pow10[frac]
	case digits > maxExactDigits && frac <= maxParseFrac:
		var ok bool
		if v, ok = eiselLemire(m, frac); !ok {
			return strconv.ParseFloat(s, 64)
		}
	default:
		return strconv.ParseFloat(s, 64)
	}
	if neg {
		v = -v
	}
	return v, nil
}

// eiselLemire returns m·10^-frac correctly rounded, for 10^15 ≤ m < 10^19
// and frac ≤ maxParseFrac, by D. Lemire's algorithm ("Number Parsing at a
// Gigabyte per Second", 2021): the top bits of m times the truncated
// 128-bit 10^-frac settle the rounding unless they sit on a halfway
// boundary, which ok=false reports. The result is always a normal double
// (1e-5 ≤ m·10^-frac < 1e19), so no range checks are needed.
//
//gscope:hotpath
func eiselLemire(m uint64, frac int) (v float64, ok bool) {
	g := &pow10x128[-frac-pow10x128Min]
	lz := bits.LeadingZeros64(m)
	m <<= lz
	exp := uint64(flog2pow10(-frac) + 64 + 1023 - lz)
	hi, lo := bits.Mul64(m, g[0])
	if hi&0x1FF == 0x1FF && lo+m < m {
		// The 64-bit product may be off in the bits that decide the
		// rounding: widen it with the table's low word.
		hi2, lo2 := bits.Mul64(m, g[1])
		var carry uint64
		lo, carry = bits.Add64(lo, hi2, 0)
		hi += carry
		if hi&0x1FF == 0x1FF && lo+1 == 0 && lo2+m < m {
			return 0, false
		}
	}
	top := hi >> 63
	mant := hi >> (top + 9)
	exp -= 1 ^ top
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // exactly halfway at 54 bits: round-to-even needs the rest
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp++
	}
	return math.Float64frombits(exp<<52 | mant&(1<<52-1)), true
}

// parseCanonical decodes the line shape the encoders write — "time value"
// or "time value name", single spaces, a name without surrounding white
// space — without the general path's trimming and re-splitting. ok is
// false for any other line, which Parse then decodes the general way.
//
//gscope:hotpath
func parseCanonical(line string) (t Tuple, ok bool) {
	i, n := 0, len(line)
	neg := n > 0 && line[0] == '-'
	if neg {
		i++
	}
	start := i
	for ; i < n && line[i] >= '0' && line[i] <= '9'; i++ {
		t.Time = t.Time*10 + int64(line[i]-'0')
	}
	if i == start || i-start > 18 || i == n || line[i] != ' ' {
		return Tuple{}, false
	}
	if neg {
		t.Time = -t.Time
	}
	valueField, name, named := strings.Cut(line[i+1:], " ")
	if named && (name == "" || trimmable(name[0]) || trimmable(name[len(name)-1])) {
		return Tuple{}, false
	}
	v, err := parseValue(valueField)
	if err != nil {
		return Tuple{}, false
	}
	t.Value, t.Name = v, name
	return t, true
}

// trimmable reports whether strings.TrimSpace could remove b from the
// edge of a name: ASCII white space, or any byte of a multi-byte rune
// (which might be a Unicode space).
//
//gscope:hotpath
func trimmable(b byte) bool {
	switch b {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return b >= 0x80
}
