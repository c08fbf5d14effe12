// Package fuzzgen turns raw fuzz bytes into structured inputs for every
// externally-parseable surface of the pipeline: tuple wire streams (with
// comment, blank and garbage lines interleaved), subscriber handshake
// lines, control frames, param commands, and reclog segment/index files
// with seeded corruption. The native fuzz targets in tuple, core,
// netscope and reclog draw from one Source per execution, so the fuzzing
// engine's byte-level mutations translate into structural mutations —
// more signals, skewed stamps, a torn segment tail — instead of being
// rejected at the first parse.
//
// A Source is deterministic: the same input bytes produce the same
// decisions, which is what lets the engine minimize crashers. When the
// bytes run out every further decision reads as zero, so generation
// always terminates.
package fuzzgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/tuple"
)

// Source is a deterministic decision stream over fuzz input bytes.
type Source struct {
	data []byte
	pos  int
}

// New wraps fuzz input bytes.
func New(data []byte) *Source { return &Source{data: data} }

// Exhausted reports whether every input byte has been consumed (all
// further decisions read as zero).
func (s *Source) Exhausted() bool { return s.pos >= len(s.data) }

// Byte consumes one decision byte (zero once exhausted).
func (s *Source) Byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

// Bool consumes one decision bit.
func (s *Source) Bool() bool { return s.Byte()&1 == 1 }

// Intn returns a decision in [0, n); n <= 1 consumes nothing.
func (s *Source) Intn(n int) int {
	if n <= 1 {
		return 0
	}
	v := int(s.Byte())<<8 | int(s.Byte())
	return v % n
}

// Int63n returns a decision in [0, n); n <= 1 consumes nothing.
func (s *Source) Int63n(n int64) int64 {
	if n <= 1 {
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.Byte())
	}
	return int64(v % uint64(n))
}

// floatPalette holds boundary values worth hitting far more often than
// random bit patterns would. NaN is deliberately absent: generated
// tuples feed round-trip equality checks, which NaN breaks trivially
// (the raw-line fuzz targets still cover NaN via engine mutations).
var floatPalette = []float64{
	0, 1, -1, 0.5, -0.25, 3, 1e-9, 1e300, -1e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1),
	float64(1 << 53), -float64(1<<53) - 1,
}

// Float returns a sample value: a palette boundary value, a small
// integer, or a fraction with a short decimal expansion. Never NaN.
func (s *Source) Float() float64 {
	switch s.Intn(4) {
	case 0:
		return floatPalette[s.Intn(len(floatPalette))]
	case 1:
		return float64(s.Int63n(2001) - 1000)
	default:
		return float64(s.Int63n(1<<20)-(1<<19)) / 16
	}
}

// namePalette are valid signal names (tuple.ValidateName passes),
// including the awkward corners the grammar allows: interior spaces,
// multi-byte runes, single characters.
var namePalette = []string{
	"cpu.user", "cpu.sys", "mem", "net rx bytes", "disk-io",
	"x", "αβγ", "pub0.sig0", "pub1.sig2", "a b c",
}

// Name returns a valid signal name.
func (s *Source) Name() string {
	n := namePalette[s.Intn(len(namePalette))]
	if s.Intn(4) == 0 {
		n = n + "." + strconv.Itoa(s.Intn(100))
	}
	return n
}

// maxTupleTimeMS bounds generated timestamps so that every downstream
// conversion (time.Duration via Timestamp, decimation arithmetic) stays
// far from int64 overflow while still exercising multi-day timelines.
const maxTupleTimeMS = int64(1) << 40

// Tuples generates up to max tuples across a handful of signals. Each
// signal's stamps mostly advance; with monotonic false, occasional
// backward jumps model skewed publisher clocks. Names are valid and
// values are never NaN, so the result survives a wire round trip
// byte-exactly.
func (s *Source) Tuples(max int, monotonic bool) []tuple.Tuple {
	n := s.Intn(max + 1)
	if n == 0 {
		return nil
	}
	k := 1 + s.Intn(4)
	names := make([]string, k)
	clocks := make([]int64, k)
	base := s.Int63n(maxTupleTimeMS / 2)
	for i := range names {
		names[i] = s.Name()
		clocks[i] = base + s.Int63n(1000)
	}
	out := make([]tuple.Tuple, 0, n)
	for i := 0; i < n; i++ {
		j := s.Intn(k)
		switch {
		case !monotonic && s.Intn(16) == 0:
			clocks[j] -= s.Int63n(5000)
		case s.Intn(4) != 0:
			clocks[j] += s.Int63n(100)
		}
		out = append(out, tuple.Tuple{Time: clocks[j], Value: s.Float(), Name: names[j]})
	}
	return out
}

// skipNoise are lines a tuple reader skips silently — comments and
// blanks — so WireStream can interleave them without disturbing the
// payload. Garbage that fails to parse does NOT belong here: a reader
// surfaces it as ErrBadLine rather than skipping it.
var skipNoise = []string{
	"",
	"#",
	"# comment 1 2 3",
	"# gscope-hub 1",
	"# snapshot tuples=3 window-ms=5000",
	"# seal tuples=0 first=0 last=0",
	"  # indented comment",
}

// noiseLines extends skipNoise with garbage for surfaces that must
// tolerate arbitrary junk lines (handshakes, command channels).
var noiseLines = append([]string{
	"bogus line",
	"1",
	"9 nope x",
	"time value name",
	"-",
}, skipNoise...)

// WireStream renders ts as wire bytes with noise interleaved: the exact
// stream a publisher socket or a segment file could carry. Spacing
// occasionally deviates from canonical (leading blanks, double
// separators) in ways the grammar still parses to the same tuple.
func (s *Source) WireStream(ts []tuple.Tuple) []byte {
	var b []byte
	noise := func() {
		// Bounded: an exhausted source decides 0 forever, and an unbounded
		// "while the dice say so" loop would never terminate on it.
		for n := 0; n < 3 && s.Intn(4) == 0 && !s.Exhausted(); n++ {
			b = append(b, skipNoise[s.Intn(len(skipNoise))]...)
			b = append(b, '\n')
		}
	}
	for _, t := range ts {
		noise()
		if s.Intn(8) == 0 {
			// Non-canonical but equivalent spacing.
			b = append(b, fmt.Sprintf("  %d  %s %s\n", t.Time, tuple.FormatValue(t.Value), t.Name)...)
			continue
		}
		b = tuple.AppendWire(b, t)
	}
	noise()
	return b
}

// TextLines generates up to max text lines, without their newlines, for
// decoders that must treat every line exactly as tuple.Parse does: tuple
// lines in the encoders' shape and in every shape the general grammar
// accepts (CRLF endings, leading and doubled blanks, names with interior
// spaces, exponent and special values, names numbered out of a large
// space), comments, blanks, near-misses and arbitrary bytes. No line
// starts with tuple.FrameMarker, so the lines stay text.
func (s *Source) TextLines(max int) []string {
	n := s.Intn(max + 1)
	out := make([]string, 0, n)
	for i := 0; i < n && !s.Exhausted(); i++ {
		ms := s.Int63n(maxTupleTimeMS) - maxTupleTimeMS/4
		var ln string
		switch s.Intn(8) {
		case 0:
			ln = tuple.Tuple{Time: ms, Value: s.Float(), Name: s.Name()}.String()
		case 1:
			ln = tuple.Tuple{Time: ms, Value: s.Float(), Name: s.Name()}.String() + "\r"
		case 2:
			ln = fmt.Sprintf(" %d  %s  %s ", ms, tuple.FormatValue(s.Float()), s.Name())
		case 3:
			ln = fmt.Sprintf("%d %e %s", ms, s.Float(), s.Name())
		case 4:
			ln = fmt.Sprintf("%d %s n%d", ms, []string{"NaN", "+Inf", "-0", "1_0", "0x1p-2", ".5"}[s.Intn(6)], s.Intn(1<<16))
		case 5:
			ln = noiseLines[s.Intn(len(noiseLines))]
		case 6:
			ln = fmt.Sprintf("%d", ms)
		default:
			b := make([]byte, s.Intn(40))
			for j := range b {
				if b[j] = s.Byte(); b[j] == '\n' {
					b[j] = ' '
				}
			}
			if len(b) > 0 && b[0] == tuple.FrameMarker {
				b[0] = '#'
			}
			ln = string(b)
		}
		out = append(out, ln)
	}
	return out
}

// controlTokens are space-free field tokens for control frames.
var controlTokens = []string{
	"a", "k=v", "tuples=3", "since-ms=-12", "weird==x", "π", "0", "param-ok",
}

// ControlFrame generates a verb and fields that AppendControl can carry
// and ParseControl must return unchanged: nonempty, space-free tokens.
func (s *Source) ControlFrame() (verb string, fields []string) {
	verbs := []string{"gscope-hub", "snapshot", "backfill", "param", "error", "x1", "#"}
	verb = verbs[s.Intn(len(verbs))]
	for i := s.Intn(5); i > 0; i-- {
		fields = append(fields, controlTokens[s.Intn(len(controlTokens))])
	}
	return verb, fields
}

// Handshake field palettes: per key, a mix of valid and hostile values.
var (
	hsSignals = []string{"cpu.*", "mem", "*", "sig?", "[a-z]x", "bad[", "a..b"}
	hsRates   = []string{"30", "0.5", "1000", "-1", "1e309", "abc", "0"}
	hsSince   = []string{"-2000", "5000", "0", "-9223372036854775808", "9223372036854775807", "99999999999999999999", "x"}
	hsCols    = []string{"64", "1", "0", "-3", "1000000000", "y"}
)

// HandshakeLine generates a subscriber first line: usually a v2
// handshake (valid or hostile in one field), sometimes a wrong version
// or junk that must fall back to v1. No trailing newline.
func (s *Source) HandshakeLine() string {
	switch s.Intn(8) {
	case 0:
		return "gscope-sub " + []string{"1", "3", "x", ""}[s.Intn(4)]
	case 1:
		return noiseLines[s.Intn(len(noiseLines))]
	}
	parts := []string{"gscope-sub", "2"}
	if s.Intn(8) == 0 {
		parts = append(parts, "noequals")
	}
	if s.Bool() {
		k := 1 + s.Intn(3)
		pats := make([]string, k)
		for i := range pats {
			pats[i] = hsSignals[s.Intn(len(hsSignals))]
		}
		parts = append(parts, "signals="+strings.Join(pats, ","))
	}
	if s.Bool() {
		parts = append(parts, "max-rate="+hsRates[s.Intn(len(hsRates))])
	}
	if s.Bool() {
		parts = append(parts, "since="+hsSince[s.Intn(len(hsSince))])
	}
	if s.Bool() {
		parts = append(parts, "cols="+hsCols[s.Intn(len(hsCols))])
	}
	if s.Bool() {
		parts = append(parts, "stream="+[]string{"0", "1", ""}[s.Intn(3)])
	}
	if s.Intn(8) == 0 {
		parts = append(parts, "future-key=whatever")
	}
	return strings.Join(parts, " ")
}

// ParamCommand generates a control-plane command line: the real verbs
// with valid and invalid arguments, plus junk the server must answer
// with an error frame rather than fall over.
func (s *Source) ParamCommand() string {
	names := []string{"delay", "threshold", "missing", "π", "="}
	vals := []string{"1", "-2.5", "1e309", "abc", "0"}
	switch s.Intn(8) {
	case 0, 1:
		return "param list"
	case 2, 3:
		return "param get " + names[s.Intn(len(names))]
	case 4, 5:
		return "param set " + names[s.Intn(len(names))] + " " + vals[s.Intn(len(vals))]
	case 6:
		return []string{"param", "param set", "param frob x", "params"}[s.Intn(4)]
	default:
		return noiseLines[s.Intn(len(noiseLines))]
	}
}

// --- reclog on-disk material -----------------------------------------------

// SegmentFile renders a well-formed reclog segment for seq holding ts:
// magic header, wire tuples, seal footer — the format package reclog
// documents and its scanner verifies.
func SegmentFile(seq int64, ts []tuple.Tuple) []byte {
	b := []byte(fmt.Sprintf("# gscope-reclog 1 seq=%d\n", seq))
	b = tuple.AppendWireBatch(b, ts)
	var first, last int64
	for i, t := range ts {
		if i == 0 || t.Time < first {
			first = t.Time
		}
		if i == 0 || t.Time > last {
			last = t.Time
		}
	}
	return append(b, fmt.Sprintf("# seal tuples=%d first=%d last=%d\n", len(ts), first, last)...)
}

// IndexEntry mirrors one reclog.index line.
type IndexEntry struct {
	Seq, First, Last, Offset, Bytes, Tuples int64
}

// IndexFile renders a reclog session index from entries.
func IndexFile(entries []IndexEntry) []byte {
	var b strings.Builder
	b.WriteString("# gscope-reclog-index 1\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "%d %d %d %d %d %d\n", e.Seq, e.First, e.Last, e.Offset, e.Bytes, e.Tuples)
	}
	return []byte(b.String())
}

// CorruptSegment damages seg the ways a crash, a partial write, or a
// hostile edit can: torn tail, clipped header, flipped byte, appended
// garbage, or a lying seal. The result may equal the input when the
// source decides not to corrupt.
func (s *Source) CorruptSegment(seg []byte) []byte {
	out := append([]byte(nil), seg...)
	switch s.Intn(6) {
	case 0: // torn tail: truncate mid-line
		if len(out) > 1 {
			out = out[:1+s.Intn(len(out)-1)]
		}
	case 1: // clipped header: drop the first line's prefix
		if n := s.Intn(20); n < len(out) {
			out = out[n:]
		}
	case 2: // flipped byte
		if len(out) > 0 {
			i := s.Intn(len(out))
			out[i] ^= byte(1 + s.Intn(255))
		}
	case 3: // trailing garbage after the seal
		out = append(out, "garbage after seal\n9 nope\n"...)
	case 4: // forged seal counts
		out = append(out, fmt.Sprintf("# seal tuples=%d first=%d last=%d\n",
			s.Intn(1000), s.Int63n(1000), s.Int63n(1000))...)
	}
	return out
}
