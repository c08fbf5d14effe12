package tuple

import (
	"math"
	"strconv"
	"strings"
)

// The decimal value codec behind every text and JSON encoder and the
// text decoder. For integers and short decimals (counters, fixed-precision
// gauges) strconv's general shortest-float algorithms do far more work
// than the answer needs. Both directions take an exact shortcut for those
// shapes and hand everything else to strconv, so the bytes and the bits
// are exactly strconv's.

// pow10 holds the exactly representable powers of ten 10^0 … 10^22.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

const (
	// maxDecimalPlaces is the most decimals the fast formatter tries.
	maxDecimalPlaces = 15
	// decimalLimit bounds the fast formatter's scaled mantissa. Below
	// it a multiply by 10^k is within 1/4 of the true scaled value, so a
	// round-tripping k-decimal form cannot be missed, and k-decimal forms
	// lie more than 4 ulps apart, so at most one round-trips.
	decimalLimit = 1 << 50
	// maxParseDigits is the most significant digits the fast parser
	// takes: the mantissa stays below 10^15 < 2^52, the bound of
	// strconv's own exact path.
	maxParseDigits = 15
)

// AppendValue appends v in the wire's compact number form and returns
// the extended slice: integral values without a decimal point, everything
// else in strconv's shortest 'g' form, which round-trips exactly.
//
// For 1e-4 ≤ |v| < 1e6 (where 'g' prints plain decimals) the digits are
// found directly, with one test: at the largest k ≤ 15 for which
// m = round(|v|·10^k) is below 2^50, m/10^k == |v| holds exactly when |v|
// has a round-tripping form of at most k decimals, and that form is
// unique. Stripping m's trailing zeros then gives the fewest decimals, so
// the digits are exactly strconv's shortest output. Values outside that
// range, or needing more digits, go to strconv after that one test.
//
//gscope:hotpath
func AppendValue(dst []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	a := math.Abs(v)
	if a >= 1e-4 && a < 1e6 {
		k := maxDecimalPlaces
		r := a * pow10[k]
		for r >= decimalLimit { // at most 6 steps: a·10^9 < 2^50
			k--
			r = a * pow10[k]
		}
		// A round-tripping m lies within r·2^-52 of r; the bound has 2×
		// slack. The division settles the candidates that pass.
		m := uint64(r + 0.5)
		if math.Abs(r-float64(m)) <= r*0x1p-51 && float64(m)/pow10[k] == a {
			// v is not an integer, so fewer than k zeros trail m: one pass
			// of 8, 4, 2 and 1 strips them all.
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
			return appendDecimal(dst, v < 0, m, k)
		}
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendDecimal appends ±m·10^-k as a plain decimal with exactly k
// fraction digits.
//
//gscope:hotpath
func appendDecimal(dst []byte, neg bool, m uint64, k int) []byte {
	var b [24]byte // sign, 16 digits, point, leading zeros up to k
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
// strconv.ParseFloat and with the same errors. A plain decimal of at most
// 15 significant digits, with a digit on both sides of any point, is
// float64(m)/10^k, the computation strconv's own exact path does; any
// other field goes to ParseFloat.
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
	if n == start || point == start || point == n-1 || frac >= len(pow10) {
		return strconv.ParseFloat(s, 64)
	}
	v := float64(m) / pow10[frac]
	if neg {
		v = -v
	}
	return v, nil
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
