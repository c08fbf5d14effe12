package tuple

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unsafe"
)

// This file is the v3 binary wire encoding: a compressed framing that can
// interleave with the §3.3 text stream on the same connection. The
// normative specification — frame grammar, negotiation, error handling,
// worked examples — is docs/WIRE.md; the comments here only summarize it.
//
// A v3 stream is a sequence of text lines and binary frames. Every frame
// opens with FrameMarker (0xF5), a byte that can never begin a UTF-8 text
// line, so the two encodings need no out-of-band mode switch: a decoder
// positioned at a line/frame boundary looks at one byte. Frames carry
// per-stream dense signal IDs (declared by DICT frames once per new name),
// zigzag-varint delta-of-delta timestamps, and byte-aligned XOR-compressed
// float values, columnar per same-signal run. Every DATA run is
// self-contained — its timestamp and value predictors reset at the run
// head — so frames can be sliced, buffered and fanned out independently;
// the ID dictionary is the only cross-frame state.

const (
	// FrameMarker opens every binary frame. 0xF5 is not a valid leading
	// byte anywhere in UTF-8 text (and tuple lines never contain it), so a
	// decoder at a boundary distinguishes text from binary unambiguously
	// (WIRE.md §B1).
	FrameMarker byte = 0xF5
	// FrameDict declares one stream-local signal ID → name binding.
	FrameDict byte = 0x01
	// FrameData carries same-signal runs of compressed tuples.
	FrameData byte = 0x02

	// MaxFramePayload bounds one frame's declared payload length; a frame
	// claiming more is malformed (WIRE.md §B2), which caps how much a
	// decoder ever buffers waiting for a frame to complete.
	MaxFramePayload = 1 << 20

	// maxStreamSignals caps a stream's ID dictionary on both sides. An
	// encoder that hits the cap falls back to text lines for further names
	// (always legal in a mixed stream); a decoder treats a DICT frame past
	// the cap as malformed.
	maxStreamSignals = 1 << 20

	// maxRunTuples bounds one encoded run, and with flushPayload keeps
	// every DATA frame far below MaxFramePayload.
	maxRunTuples = 4096
	// flushPayload is the encoder's soft frame-size threshold: once the
	// pending payload reaches it, the frame is closed.
	flushPayload = 1 << 16

	// maxStreamLine bounds one text line in a mixed stream, matching the
	// line-watch limit the server read path has always enforced.
	maxStreamLine = 1 << 20
)

// ErrBadFrame tags malformed binary framing. Unlike a bad text line —
// skippable, because newlines resynchronize — a bad frame loses the frame
// boundaries, so the rest of the stream is undecodable: connections drop,
// file scans stop at the prefix that decoded (WIRE.md §B7).
var ErrBadFrame = errors.New("bad binary frame")

// errLineTooLong reports a text line exceeding maxStreamLine: the newline
// that would resynchronize the stream was never found, so like bufio's
// ErrTooLong — and unlike ErrBadLine — it is a transport-level failure,
// not a skippable parse error.
var errLineTooLong = fmt.Errorf("tuple: stream line exceeds %d bytes", maxStreamLine)

// zigzag maps a signed delta onto the unsigned varint domain so small
// negative values stay small (WIRE.md §B5).
//
//gscope:hotpath
func zigzag(v int64) uint64 { return uint64(v)<<1 ^ uint64(v>>63) }

//gscope:hotpath
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendXOR appends one XOR-compressed value residual: control byte 0x00
// for a repeat (x == 0), otherwise 1 + 8·L + T for L leading and T
// trailing zero bytes of x, followed by the 8−L−T middle bytes
// most-significant first (WIRE.md §B6).
//
//gscope:hotpath
func appendXOR(dst []byte, x uint64) []byte {
	if x == 0 {
		return append(dst, 0)
	}
	l := bits.LeadingZeros64(x) >> 3
	t := bits.TrailingZeros64(x) >> 3
	dst = append(dst, byte(1+l<<3+t))
	for i := 7 - l; i >= t; i-- {
		dst = append(dst, byte(x>>(uint(i)*8)))
	}
	return dst
}

// readXOR decodes one value residual, returning the remaining payload.
func readXOR(p []byte) (uint64, []byte, error) {
	if len(p) == 0 {
		return 0, nil, fmt.Errorf("%w: truncated value", ErrBadFrame)
	}
	c := p[0]
	p = p[1:]
	if c == 0 {
		return 0, p, nil
	}
	c--
	l, t := int(c>>3), int(c&7)
	if l+t > 7 {
		return 0, nil, fmt.Errorf("%w: bad value control byte %#x", ErrBadFrame, c+1)
	}
	m := 8 - l - t
	if len(p) < m {
		return 0, nil, fmt.Errorf("%w: truncated value", ErrBadFrame)
	}
	var x uint64
	for i := 0; i < m; i++ {
		x = x<<8 | uint64(p[i])
	}
	return x << (uint(t) * 8), p[m:], nil
}

// BinaryEncoder encodes tuple batches into v3 binary frames. It owns one
// stream's encode state: the name → ID dictionary (IDs are assigned densely
// in first-use order and declared in-band with DICT frames) and reusable
// scratch, so a steady-state publisher allocates nothing per batch. An
// encoder is stream-local — its output is only decodable as one contiguous
// stream — and not safe for concurrent use.
type BinaryEncoder struct {
	ids     map[string]uint64
	names   []string // ID → cleaned name, for AppendDict catch-up
	payload []byte   // pending DATA payload, flushed as frames into dst
}

// NewBinaryEncoder returns an encoder with an empty dictionary.
func NewBinaryEncoder() *BinaryEncoder {
	return &BinaryEncoder{ids: make(map[string]uint64)}
}

// Reset forgets the dictionary, starting a new stream (a reconnected
// publisher, a fresh self-contained reclog segment).
func (e *BinaryEncoder) Reset() {
	clear(e.ids)
	e.names = e.names[:0]
	e.payload = e.payload[:0]
}

// Signals returns how many names the dictionary holds.
func (e *BinaryEncoder) Signals() int { return len(e.names) }

// appendDictFrame encodes one DICT frame: uvarint ID, then the name bytes
// to the end of the payload (WIRE.md §B3).
//
//gscope:hotpath
func appendDictFrame(dst []byte, id uint64, name string) []byte {
	var idb [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(idb[:], id)
	dst = append(dst, FrameMarker, FrameDict)
	dst = binary.AppendUvarint(dst, uint64(n+len(name)))
	dst = append(dst, idb[:n]...)
	return append(dst, name...)
}

// AppendDict appends DICT frames declaring every binding in the
// dictionary, in ID order — the catch-up a fan-out hub sends a subscriber
// joining a shared stream mid-flight. It does not change encoder state.
//
//gscope:hotpath
func (e *BinaryEncoder) AppendDict(dst []byte) []byte {
	for id, name := range e.names {
		dst = appendDictFrame(dst, uint64(id), name)
	}
	return dst
}

// appendRunPayload appends one self-contained run to p: uvarint ID,
// uvarint count, the timestamp column (first stamp zigzag absolute, then
// delta-of-delta), then the value column (XOR against the previous value
// bits, 0 at the run head). WIRE.md §B4–B6. Shared by the stream encoder
// and the datagram encoder, whose payloads differ only in ID scope.
//
//gscope:hotpath
func appendRunPayload(p []byte, id uint64, run []Tuple) []byte {
	p = binary.AppendUvarint(p, id)
	p = binary.AppendUvarint(p, uint64(len(run)))
	var lastT, lastD int64
	for k, t := range run {
		var dod int64
		if k == 0 {
			dod = t.Time
			lastT, lastD = t.Time, 0
		} else {
			d := t.Time - lastT
			dod = d - lastD
			lastT, lastD = t.Time, d
		}
		p = binary.AppendUvarint(p, zigzag(dod))
	}
	var prev uint64
	for _, t := range run {
		b := math.Float64bits(t.Value)
		p = appendXOR(p, b^prev)
		prev = b
	}
	return p
}

// appendRun appends one run to the pending payload (WIRE.md §B4–B6).
//
//gscope:hotpath
func (e *BinaryEncoder) appendRun(id uint64, run []Tuple) {
	e.payload = appendRunPayload(e.payload, id, run)
}

// flush closes the pending payload into one DATA frame appended to dst.
//
//gscope:hotpath
func (e *BinaryEncoder) flush(dst []byte) []byte {
	if len(e.payload) == 0 {
		return dst
	}
	dst = append(dst, FrameMarker, FrameData)
	dst = binary.AppendUvarint(dst, uint64(len(e.payload)))
	dst = append(dst, e.payload...)
	e.payload = e.payload[:0]
	return dst
}

// AppendBatch appends batch encoded as v3 frames — DICT frames for names
// new to the stream, then DATA frames — and returns the extended buffer.
// Same-name runs share one run header; names past the dictionary cap are
// appended as text lines in place (a legal mixed stream), preserving tuple
// order exactly. This is the binary counterpart of AppendWireBatch.
//
//gscope:hotpath
func (e *BinaryEncoder) AppendBatch(dst []byte, batch []Tuple) []byte {
	for i := 0; i < len(batch); {
		name := batch[i].Name
		j := i + 1
		for j < len(batch) && batch[j].Name == name {
			j++
		}
		id, ok := e.ids[name]
		if !ok && len(e.names) < maxStreamSignals {
			clean := strings.Clone(CleanName(name)) //gscope:allow hotpath dictionary growth copies each name once per stream
			id = uint64(len(e.names))
			e.ids[strings.Clone(name)] = id //gscope:allow hotpath dictionary growth copies each name once per stream
			e.names = append(e.names, clean)
			dst = appendDictFrame(dst, id, clean)
			ok = true
		}
		if !ok {
			// Dictionary full: this run rides as text, in order.
			dst = e.flush(dst)
			dst = AppendWireBatch(dst, batch[i:j])
		} else {
			for k := i; k < j; k += maxRunTuples {
				end := k + maxRunTuples
				if end > j {
					end = j
				}
				e.appendRun(id, batch[k:end])
				if len(e.payload) >= flushPayload {
					dst = e.flush(dst)
				}
			}
		}
		i = j
	}
	return e.flush(dst)
}

// AppendBatchReadOnly encodes batch without mutating the dictionary: runs
// of already-declared names become DATA frames, anything else text lines.
// A hub uses it to serve one subscriber's snapshot/backfill from a shared
// stream encoder — the private frames must not invent IDs that other
// subscribers of the same stream never saw declared.
//
//gscope:hotpath
func (e *BinaryEncoder) AppendBatchReadOnly(dst []byte, batch []Tuple) []byte {
	for i := 0; i < len(batch); {
		name := batch[i].Name
		j := i + 1
		for j < len(batch) && batch[j].Name == name {
			j++
		}
		if id, ok := e.ids[name]; ok {
			for k := i; k < j; k += maxRunTuples {
				end := k + maxRunTuples
				if end > j {
					end = j
				}
				e.appendRun(id, batch[k:end])
				if len(e.payload) >= flushPayload {
					dst = e.flush(dst)
				}
			}
		} else {
			dst = e.flush(dst)
			dst = AppendWireBatch(dst, batch[i:j])
		}
		i = j
	}
	return e.flush(dst)
}

// errShortFrame signals an incomplete frame still waiting for bytes.
var errShortFrame = errors.New("short frame")

// StreamDecoder incrementally decodes a mixed text/binary tuple stream
// from arbitrarily sliced chunks. It is the one framer of tuple streams:
// publisher ingest and the Subscriber feed it each read of a
// glib.WatchReaderSize watch, the datagram receiver each datagram, and
// StreamReader (hence Reader) each read of a file or socket. Feed parses
// text tuple lines in place on the fed bytes and hands their tuples to
// batch, in stream order with the tuples of v3 DATA frames; the other
// text lines (comments, blanks, lines that do not parse) go to line,
// newline stripped, one trailing \r trimmed, bounded at 1 MiB. DICT
// frames update the dictionary invisibly; unknown frame types are
// skipped by length for forward compatibility (WIRE.md §B2).
//
// Framing errors are sticky and fatal: once Feed returns a non-nil error
// the stream is undecodable past that point (WIRE.md §B7). Names never
// point into the fed bytes: they come from the decoder's name table,
// shared by text lines and DICT frames and kept across Reset, so the
// tuples of one signal share one string. Past maxCanonicalNames names,
// each run of a new name gets its own copy.
type StreamDecoder struct {
	names []string          // stream-local DICT ID → name
	table map[string]string // name table: each name's own copy
	prev  string            // the last name resolved, for runs
	carry []byte
	tup   []Tuple
	lines int // text lines delivered, for StreamReader's messages
	err   error
}

// NewStreamDecoder returns a decoder with an empty dictionary.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// Reset clears the dictionary, any carried partial input, and a sticky
// error, making the decoder ready for a new self-contained stream. The
// datagram receive path resets one decoder per datagram (every datagram
// is its own stream, WIRE.md §D2); the name table survives Reset, so a
// name each datagram declares again resolves without a copy.
//
//gscope:hotpath
func (d *StreamDecoder) Reset() {
	d.names = d.names[:0]
	d.carry = d.carry[:0]
	d.tup = d.tup[:0]
	d.lines = 0
	d.err = nil
}

// Feed consumes the next chunk of the stream. line and batch are invoked
// synchronously, in stream order. The batch slice is reused across calls
// and valid only for the duration of the call; the tuples' names, and
// the strings passed to line, are the caller's to keep. A warmed decoder
// allocates nothing for a chunk of tuple lines whose names it has seen.
func (d *StreamDecoder) Feed(data []byte, line func(string), batch func([]Tuple)) error {
	if d.err != nil {
		return d.err
	}
	if len(d.carry) > 0 {
		d.carry = append(d.carry, data...)
		data = d.carry
	}
	pos := 0
	for pos < len(data) {
		var n int
		var err error
		if data[pos] == FrameMarker {
			n, err = d.frame(data[pos:], batch)
		} else {
			n, err = d.textRun(data[pos:], line, batch)
		}
		if err == errShortFrame {
			break
		}
		if err != nil {
			return d.fail(err)
		}
		if n == 0 {
			break // an unterminated line
		}
		pos += n
	}
	rest := data[pos:]
	if len(rest) > maxStreamLine && rest[0] != FrameMarker {
		return d.fail(errLineTooLong)
	}
	d.carry = append(d.carry[:0], rest...)
	return nil
}

// textRun delivers the run of complete text lines at the head of b, up to
// the next frame or an unterminated line, and returns the bytes consumed.
func (d *StreamDecoder) textRun(b []byte, line func(string), batch func([]Tuple)) (int, error) {
	end := 0
	var err error
	for end < len(b) && b[end] != FrameMarker {
		nl := bytes.IndexByte(b[end:], '\n')
		if nl < 0 {
			break
		}
		if nl > maxStreamLine {
			err = errLineTooLong
			break
		}
		d.text(b[end:end+nl], line, batch)
		end += nl + 1
	}
	d.flush(batch)
	return end, err
}

// text handles one text line: a tuple joins the pending batch; any other
// line first flushes the batch, keeping stream order, then goes to line
// as a string of its own.
func (d *StreamDecoder) text(b []byte, line func(string), batch func([]Tuple)) {
	d.lines++
	if len(b) > 0 && b[len(b)-1] == '\r' {
		b = b[:len(b)-1] // CRLF streams decode as LF
	}
	ln := unsafe.String(unsafe.SliceData(b), len(b))
	if t, ok := d.parseLine(ln); ok {
		d.tup = append(d.tup, t)
		return
	}
	d.flush(batch)
	line(strings.Clone(ln))
}

// flush hands the pending tuples to batch.
func (d *StreamDecoder) flush(batch func([]Tuple)) {
	if len(d.tup) > 0 {
		batch(d.tup)
		d.tup = d.tup[:0]
	}
}

// parseLine decodes one tuple line in place. ln points into the fed
// bytes, so the tuple's name is swapped for the name table's copy. A
// blank or '#' line is never parsed, so comments build no error.
//
//gscope:hotpath
func (d *StreamDecoder) parseLine(ln string) (t Tuple, ok bool) {
	if t, ok = parseCanonical(ln); !ok && !IsComment(ln) {
		var err error
		t, err = Parse(ln) //gscope:allow hotpath lines off the encoders' shape take Parse's general split, which builds an error only for a line that fails
		ok = err == nil
	}
	if ok {
		t.Name = d.name(t.Name)
	}
	return t, ok
}

// name returns the decoder's own copy of a name that may point into the
// fed bytes: the previous name for a run, else the table's copy. A new
// name is copied once and entered while the table has room and the name
// is one a DICT frame may declare (ValidateName); otherwise each run of
// it gets its own copy.
//
//gscope:hotpath
func (d *StreamDecoder) name(s string) string {
	if s == d.prev {
		return d.prev
	}
	c, ok := d.table[s]
	if !ok {
		c = strings.Clone(s) //gscope:allow hotpath a name is copied once into the table; past its cap, once per run
		if len(d.table) < maxCanonicalNames && ValidateName(c) == nil {
			if d.table == nil {
				d.table = make(map[string]string) //gscope:allow hotpath the table is made once per decoder
			}
			d.table[c] = c
		}
	}
	d.prev = c
	return c
}

func (d *StreamDecoder) fail(err error) error {
	d.err = err
	d.carry = nil
	return err
}

// TornFrame reports whether the decoder is holding the start of a binary
// frame it has not yet received in full. A stream transport just keeps
// feeding; a datagram transport, whose chunk must be self-contained
// (WIRE.md §D2), treats a torn frame after the final Feed as a malformed
// datagram.
//
//gscope:hotpath
func (d *StreamDecoder) TornFrame() bool {
	return len(d.carry) > 0 && d.carry[0] == FrameMarker
}

// Tail finishes the stream: an unterminated trailing text line is still a
// line (the way bufio.Scanner treats one) and is delivered like any other,
// a tuple to batch and anything else to line; an incomplete trailing
// frame is a torn tail and is discarded.
func (d *StreamDecoder) Tail(line func(string), batch func([]Tuple)) {
	if d.err == nil && len(d.carry) > 0 && d.carry[0] != FrameMarker {
		d.text(d.carry, line, batch)
		d.flush(batch)
	}
	d.carry = d.carry[:0]
}

// frame decodes one frame at the head of b, returning the bytes consumed,
// or errShortFrame if b does not yet hold the whole frame.
func (d *StreamDecoder) frame(b []byte, batch func([]Tuple)) (int, error) {
	if len(b) < 3 {
		return 0, errShortFrame
	}
	plen, n := binary.Uvarint(b[2:])
	if n == 0 {
		if len(b)-2 >= binary.MaxVarintLen64 {
			return 0, fmt.Errorf("%w: bad payload length varint", ErrBadFrame)
		}
		return 0, errShortFrame
	}
	if n < 0 || plen > MaxFramePayload {
		return 0, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, plen, MaxFramePayload)
	}
	total := 2 + n + int(plen)
	if len(b) < total {
		return 0, errShortFrame
	}
	payload := b[2+n : total]
	switch b[1] {
	case FrameDict:
		if err := d.dict(payload); err != nil {
			return 0, err
		}
	case FrameData:
		if err := d.data(payload, batch); err != nil {
			return 0, err
		}
	default:
		// Unknown frame types are skipped by length, the binary analogue
		// of ignoring unknown handshake keys.
	}
	return total, nil
}

// dict applies one DICT payload. IDs must arrive densely: id == len(dict)
// appends; id < len(dict) must re-declare the same name (redundant
// catch-up declarations are legal, WIRE.md §B3); a gap is malformed. The
// name resolves through the name table, whose names are all valid, so a
// known name costs neither a copy nor a validation.
func (d *StreamDecoder) dict(payload []byte) error {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return fmt.Errorf("%w: bad dict id varint", ErrBadFrame)
	}
	raw := unsafe.String(unsafe.SliceData(payload[n:]), len(payload)-n)
	if _, known := d.table[raw]; !known {
		if err := ValidateName(raw); err != nil {
			return fmt.Errorf("%w: dict name: %v", ErrBadFrame, err)
		}
	}
	name := d.name(raw)
	switch {
	case id < uint64(len(d.names)):
		if d.names[id] != name {
			return fmt.Errorf("%w: dict id %d redeclared %q as %q", ErrBadFrame, id, d.names[id], name)
		}
	case id == uint64(len(d.names)):
		if len(d.names) >= maxStreamSignals {
			return fmt.Errorf("%w: dict exceeds %d signals", ErrBadFrame, maxStreamSignals)
		}
		d.names = append(d.names, name)
	default:
		return fmt.Errorf("%w: dict id %d leaves a gap (have %d)", ErrBadFrame, id, len(d.names))
	}
	return nil
}

// data decodes one DATA payload's runs into the scratch batch and hands it
// to the callback.
func (d *StreamDecoder) data(payload []byte, batch func([]Tuple)) error {
	p := payload
	for len(p) > 0 {
		id, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("%w: bad run id varint", ErrBadFrame)
		}
		p = p[n:]
		if id >= uint64(len(d.names)) {
			return fmt.Errorf("%w: run id %d not declared (have %d)", ErrBadFrame, id, len(d.names))
		}
		name := d.names[id]
		cnt, n := binary.Uvarint(p)
		if n <= 0 {
			return fmt.Errorf("%w: bad run count varint", ErrBadFrame)
		}
		p = p[n:]
		// Every tuple takes at least one timestamp byte, so the count can
		// never exceed the remaining payload — reject before allocating.
		if cnt == 0 || cnt > uint64(len(p)) {
			return fmt.Errorf("%w: run count %d exceeds payload", ErrBadFrame, cnt)
		}
		base := len(d.tup)
		var lastT, lastD int64
		for k := 0; k < int(cnt); k++ {
			u, n := binary.Uvarint(p)
			if n <= 0 {
				return fmt.Errorf("%w: bad timestamp varint", ErrBadFrame)
			}
			p = p[n:]
			var t int64
			if k == 0 {
				t = unzigzag(u)
				lastT, lastD = t, 0
			} else {
				lastD += unzigzag(u)
				t = lastT + lastD
				lastT = t
			}
			d.tup = append(d.tup, Tuple{Time: t, Name: name})
		}
		var prev uint64
		for k := 0; k < int(cnt); k++ {
			x, rest, err := readXOR(p)
			if err != nil {
				return err
			}
			p = rest
			prev ^= x
			d.tup[base+k].Value = math.Float64frombits(prev)
		}
	}
	d.flush(batch)
	return nil
}
