// Package tuple implements gscope's tuple formats: the §3.3 textual format
// described here — the on-wire and on-disk representation used for
// streaming signals to a scope, recording them, and replaying them — and
// the optional v3 compressed binary framing (see binary.go and the
// normative spec in docs/WIRE.md) that interleaves with the text stream
// for bandwidth-sensitive connections. Text is the universal fallback;
// every peer and every file reader understands it.
//
// Each tuple is one line of text holding a millisecond timestamp, a value,
// and a signal name:
//
//	1500 42.5 CWND
//
// As a special case, a stream carrying only one signal may omit the name,
// making tuples plain time-value pairs:
//
//	1500 42.5
//
// Timestamps in a well-formed stream are in non-decreasing order; Reader can
// enforce that.
//
// # Grammar
//
// A stream is a sequence of newline-terminated lines:
//
//	stream  = { line } ;
//	line    = comment | tuple ;
//	comment = [ ws ] [ "#" any-text ] newline ;       (blank lines included)
//	tuple   = [ ws ] time ws value [ ws name ] [ ws ] newline ;
//	time    = integer ;                               (milliseconds)
//	value   = Go floating-point literal ;             (strconv.ParseFloat)
//	name    = any-text ;                              (may contain spaces)
//	ws      = one or more spaces ;
//
// The name field, when present, extends to the end of the line, so signal
// names may contain spaces — but not line breaks, and not leading or
// trailing whitespace, which Parse trims away: ValidateName rejects such
// names at the registration APIs, and the encoders sanitize them
// (CleanName) rather than emit lines that parse back differently or, for a
// crafted name with an embedded newline, forge extra tuples. Values
// round-trip through AppendValue: integral values print without a decimal
// point, everything else in strconv's shortest 'g' form. Both directions
// of the value codec are exact and allocation-free without strconv for
// every plain decimal (1e-4 ≤ |v| < 1e6, up to 19 significant digits):
// a shortcut for short decimals, then Schubfach and Eisel–Lemire kernels
// for full-precision values (value.go). strconv is left with values in
// exponent form, longer fields and ambiguous parses.
//
// # Embedded protocols
//
// Because readers skip comments, higher layers frame richer protocols with
// '#' lines while staying valid tuple streams. Recorders stamp files with
// "# ..." metadata headers, and the netscope fan-out hub frames its
// subscriber handshake and connect-time snapshot this way:
//
//	# gscope-hub 1
//	# snapshot tuples=2 window-ms=5000
//	1500 42.5 CWND
//	1550 41 CWND
//	# snapshot-end
//
// (see package repro/internal/netscope for that protocol's semantics), and
// the flight recorder frames its on-disk segments the same way:
//
//	# gscope-reclog 1 seq=3
//	1500 42.5 CWND
//	1550 41 CWND
//	# seal tuples=2 first=1500 last=1550
//
// (see package repro/internal/reclog for the segment/rotation semantics).
// A consumer using Reader sees only the tuples; a protocol-aware consumer
// inspects the comment lines before discarding them.
package tuple

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// ErrBadLine tags data-level stream errors from Reader.Read — a line that
// does not parse, or an out-of-order timestamp in strict mode — so
// consumers can distinguish bad data (in an append-only file, a torn tail)
// from transport/I-O errors, which Read returns unwrapped.
var ErrBadLine = errors.New("bad tuple line")

// ErrBadName tags signal names the textual wire format cannot carry
// faithfully (see ValidateName). Registration APIs and Writer.Write reject
// such names with an error wrapping this one.
var ErrBadName = errors.New("invalid signal name")

// ValidateName reports whether a signal name survives the wire format
// unchanged. The name is the trailing field of a tuple line, so interior
// spaces are fine, but a newline or carriage return splits the line —
// worse than losing the name, it lets a crafted name forge whole tuples —
// and leading or trailing whitespace is silently dropped by Parse's
// trimming. Both are rejected. The empty name is valid: it selects the
// two-field tuple form.
//
//gscope:hotpath
func ValidateName(name string) error {
	if name == "" {
		return nil
	}
	if strings.ContainsAny(name, "\n\r") {
		return fmt.Errorf("%w: %q contains a line break", ErrBadName, name) //gscope:allow hotpath error construction happens only when a name is rejected
	}
	if strings.TrimSpace(name) != name {
		return fmt.Errorf("%w: %q has leading or trailing whitespace", ErrBadName, name) //gscope:allow hotpath error construction happens only when a name is rejected
	}
	return nil
}

// CleanName returns the closest valid form of name: line breaks become
// spaces and surrounding whitespace is trimmed. Valid names come back
// unchanged (and unallocated). It is the sanitization AppendWire applies to
// names it cannot reject. The slow path below the nameClean check allocates,
// but only for names that failed validation — never for registered names.
//
//gscope:hotpath
func CleanName(name string) string {
	if nameClean(name) {
		return name
	}
	if ValidateName(name) == nil {
		return name // multi-byte edge rune that is not a space
	}
	//gscope:allow hotpath sanitizing slow path, reached only for invalid names
	name = strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, name)
	return strings.TrimSpace(name)
}

// nameClean is the fast-path check behind CleanName/AppendWire: ASCII edge
// bytes that TrimSpace would keep, and no line breaks anywhere. Multi-byte
// edge runes fall through to the slow path, which handles Unicode spaces.
//
//gscope:hotpath
func nameClean(name string) bool {
	if name == "" {
		return true
	}
	if strings.IndexByte(name, '\n') >= 0 || strings.IndexByte(name, '\r') >= 0 {
		return false
	}
	first, last := name[0], name[len(name)-1]
	return !edgeSuspect(first) && !edgeSuspect(last)
}

// edgeSuspect reports whether a leading/trailing byte could be trimmed by
// TrimSpace. Bytes ≥ 0x80 may start or end a Unicode space rune, so they
// are suspect and resolved on the slow path.
//
//gscope:hotpath
func edgeSuspect(b byte) bool {
	switch b {
	case ' ', '\t', '\v', '\f':
		return true
	}
	return b >= 0x80
}

// Tuple is one timestamped sample of a named signal. Name may be empty in
// the single-signal form.
type Tuple struct {
	// Time is the sample timestamp in milliseconds since the start of the
	// stream (the paper's streams use relative millisecond clocks).
	Time int64
	// Value is the sample value.
	Value float64
	// Name identifies the signal; empty in the two-field form.
	Name string
}

// Timestamp converts the millisecond time to a Duration offset.
//
//gscope:hotpath
func (t Tuple) Timestamp() time.Duration { return time.Duration(t.Time) * time.Millisecond }

// Sample is one timestamped value without a name — the payload of the
// probe fast paths, where the signal identity travels once per batch (as a
// SignalID or probe handle) instead of once per sample. At keeps the
// caller's full sub-millisecond precision; encoding truncates to the
// millisecond wire granularity exactly like Tuple.
type Sample struct {
	// At is the sample timestamp as an offset on the stream timeline.
	At time.Duration
	// Value is the sample value.
	Value float64
}

// Tuple converts the sample to a named wire tuple.
//
//gscope:hotpath
func (s Sample) Tuple(name string) Tuple {
	return Tuple{Time: s.At.Milliseconds(), Value: s.Value, Name: name}
}

// String formats the tuple in wire form (without a trailing newline).
// Names the wire format cannot carry are sanitized the way AppendWire
// sanitizes them.
func (t Tuple) String() string {
	b := AppendWire(nil, t)
	return string(b[:len(b)-1])
}

// AppendWire appends the newline-terminated wire form of t to dst and
// returns the extended slice. It is the allocation-free encoder behind the
// batch streaming paths (client writer, hub broadcast); the result parses
// back with Parse. AppendWire cannot return an error, so a name the wire
// format cannot carry (see ValidateName) is sanitized with CleanName
// instead of corrupting the stream; valid names — the only kind the
// registration APIs hand out — are encoded byte-identically to before.
//
//gscope:hotpath
func AppendWire(dst []byte, t Tuple) []byte {
	return AppendWirePrepared(dst, t.Time, t.Value, CleanName(t.Name))
}

// AppendWirePrepared encodes one line from parts, trusting name to be
// already validated or sanitized (CleanName output, an interned canonical
// name). It is the shared tail of AppendWire and the run encoders: batch
// paths that encode many tuples of one signal clean the name once per run
// and call this per tuple.
//
//gscope:hotpath
func AppendWirePrepared(dst []byte, timeMS int64, v float64, name string) []byte {
	dst = strconv.AppendInt(dst, timeMS, 10)
	dst = append(dst, ' ')
	dst = AppendValue(dst, v)
	if name != "" {
		dst = append(dst, ' ')
		dst = append(dst, name...)
	}
	return append(dst, '\n')
}

// AppendWireBatch appends every tuple in batch to dst in wire form.
// Publisher batches overwhelmingly carry runs of one signal, so the name
// is validated once per run, not once per tuple.
//
//gscope:hotpath
func AppendWireBatch(dst []byte, batch []Tuple) []byte {
	for i := 0; i < len(batch); {
		name := batch[i].Name
		clean := CleanName(name)
		j := i
		for ; j < len(batch) && batch[j].Name == name; j++ {
			dst = AppendWirePrepared(dst, batch[j].Time, batch[j].Value, clean)
		}
		i = j
	}
	return dst
}

// Parse decodes one tuple line. Both the two-field (time value) and
// three-field (time value name) forms are accepted. Signal names may
// contain spaces: everything after the second field is the name. Lines in
// the encoders' own shape skip the trimming and re-splitting
// (parseCanonical); both paths read the value with parseValue.
func Parse(line string) (Tuple, error) {
	if t, ok := parseCanonical(line); ok {
		return t, nil
	}
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
	v, err := parseValue(valueField)
	if err != nil {
		return Tuple{}, fmt.Errorf("tuple: %q: bad value: %w", line, err)
	}
	return Tuple{Time: ms, Value: v, Name: name}, nil
}

// IsComment reports whether a line is blank or a '#' comment, both of which
// readers skip.
//
//gscope:hotpath
func IsComment(line string) bool {
	s := strings.TrimSpace(line)
	return s == "" || strings.HasPrefix(s, "#")
}

// Writer serializes tuples to an underlying stream, one per line.
type Writer struct {
	w   *bufio.Writer
	n   int
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one tuple. A name the wire format cannot carry (see
// ValidateName) is rejected with an error wrapping ErrBadName; the rejection
// is per tuple — it does not poison the writer the way an I/O error does.
func (tw *Writer) Write(t Tuple) error {
	if tw.err != nil {
		return tw.err
	}
	if err := ValidateName(t.Name); err != nil {
		return err
	}
	_, tw.err = tw.w.WriteString(t.String())
	if tw.err == nil {
		tw.err = tw.w.WriteByte('\n')
	}
	if tw.err == nil {
		tw.n++
	}
	return tw.err
}

// Comment emits a '#' comment line (recorders stamp files with metadata).
func (tw *Writer) Comment(text string) error {
	if tw.err != nil {
		return tw.err
	}
	for _, line := range strings.Split(text, "\n") {
		if _, tw.err = fmt.Fprintf(tw.w, "# %s\n", line); tw.err != nil {
			return tw.err
		}
	}
	return nil
}

// Count returns the number of tuples written.
func (tw *Writer) Count() int { return tw.n }

// Flush flushes buffered output.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	tw.err = tw.w.Flush()
	return tw.err
}

// Reader decodes a tuple stream, skipping comments and blank lines. It is a
// StreamReader with the §3.3 ordering check on top, so it also decodes v3
// binary frames, and a bad line, a bad frame or an I/O error ends it the
// way it ends a StreamReader.
type Reader struct {
	sr       *StreamReader
	strict   bool
	lastTime int64
	n        int // tuples returned
}

// NewReader wraps r. When strict is true, Read rejects tuples whose
// timestamps go backwards, enforcing the §3.3 ordering requirement.
func NewReader(r io.Reader, strict bool) *Reader {
	return &Reader{sr: NewStreamReader(r), strict: strict}
}

// Read returns the next tuple, or io.EOF at end of stream.
func (tr *Reader) Read() (Tuple, error) {
	t, err := tr.sr.Read()
	if err != nil {
		return Tuple{}, err
	}
	if tr.strict && tr.n > 0 && t.Time < tr.lastTime {
		return Tuple{}, fmt.Errorf("tuple %d: %w: time %d before previous %d", tr.n+1, ErrBadLine, t.Time, tr.lastTime)
	}
	tr.lastTime = t.Time
	tr.n++
	return t, nil
}

// ReadAll consumes the stream and returns every tuple.
func (tr *Reader) ReadAll() ([]Tuple, error) {
	var out []Tuple
	for {
		t, err := tr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// Names returns the distinct signal names in tuples, in first-seen order.
// A stream in two-field form yields a single empty name.
func Names(tuples []Tuple) []string {
	seen := make(map[string]bool)
	var names []string
	for _, t := range tuples {
		if !seen[t.Name] {
			seen[t.Name] = true
			names = append(names, t.Name)
		}
	}
	return names
}
