package tuple

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON batch encoding, the web gateway's payload format: a batch renders
// as a JSON array of [timeMS, value, "name"] triples — the most compact
// shape a browser can index without a schema. Appenders only, into
// caller-retained buffers, so the per-client stream encode path stays
// allocation-free in steady state like the wire encoders.

// AppendJSONBatch appends batch as a JSON array of [timeMS, value, "name"]
// triples to dst and returns the extended slice. Values JSON cannot carry
// (NaN, ±Inf) encode as null; names encode as JSON strings with full
// escaping (the §3.3 grammar allows spaces and arbitrary non-newline
// bytes in names). Batches carry runs of one signal, so a run's name is
// escaped once and copied for the rest of the run, as AppendWireBatch
// cleans it once.
//
//gscope:hotpath
func AppendJSONBatch(dst []byte, batch []Tuple) []byte {
	dst = append(dst, '[')
	var name string
	var ns, ne int // the escaped name of the current run, in dst
	for i, t := range batch {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, t.Time, 10)
		dst = append(dst, ',')
		dst = AppendJSONValue(dst, t.Value)
		dst = append(dst, ',')
		if i == 0 || t.Name != name {
			name, ns = t.Name, len(dst)
			dst = AppendJSONString(dst, name)
			ne = len(dst)
		} else {
			dst = append(dst, dst[ns:ne]...)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

// AppendJSONValue appends v as a JSON number, compactly: integers without
// a decimal point (AppendValue's form), NaN and ±Inf as null (JSON has no
// encoding for them).
//
//gscope:hotpath
func AppendJSONValue(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	return AppendValue(dst, v)
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal: quote and
// backslash escaped, control bytes as \u00XX, invalid UTF-8 bytes as the
// replacement character (JSON strings must be valid Unicode).
//
//gscope:hotpath
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case b == '"' || b == '\\':
				dst = append(dst, '\\', b)
			case b >= 0x20:
				dst = append(dst, b)
			case b == '\n':
				dst = append(dst, '\\', 'n')
			case b == '\r':
				dst = append(dst, '\\', 'r')
			case b == '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, "�"...)
			i++
			continue
		}
		dst = append(dst, s[i:i+size]...)
		i += size
	}
	return append(dst, '"')
}
