package tuple_test

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// decodeStream runs a whole stream through a StreamReader and returns
// every decoded tuple (from either encoding, comments skipped).
func decodeStream(t *testing.T, stream []byte) []tuple.Tuple {
	t.Helper()
	sr := tuple.NewStreamReader(bytes.NewReader(stream))
	var out []tuple.Tuple
	for {
		tu, err := sr.Read()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("decoding stream: %v\nstream: %q", err, stream)
		}
		out = append(out, tu)
	}
}

func sampleBatch() []tuple.Tuple {
	return []tuple.Tuple{
		{Time: 1500, Value: 42.5, Name: "CWND"},
		{Time: 1510, Value: 42.5, Name: "CWND"},
		{Time: 1520, Value: 43, Name: "CWND"},
		{Time: 1520, Value: -1, Name: "rtt ms"},
		{Time: 1531, Value: 0.125, Name: "rtt ms"},
		{Time: 1542, Value: 0.125, Name: ""},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	batch := sampleBatch()
	enc := tuple.NewBinaryEncoder()
	stream := enc.AppendBatch(nil, batch)
	got := decodeStream(t, stream)
	if len(got) != len(batch) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(batch))
	}
	for i := range got {
		if got[i] != batch[i] {
			t.Fatalf("tuple %d: %+v != %+v", i, got[i], batch[i])
		}
	}
}

// Encoding the same signals again must not re-emit dictionary frames, and
// the stream must stay decodable across batches.
func TestBinaryDictOncePerSignal(t *testing.T) {
	batch := sampleBatch()
	enc := tuple.NewBinaryEncoder()
	first := enc.AppendBatch(nil, batch)
	second := enc.AppendBatch(nil, batch)
	if bytes.Contains(second, []byte("CWND")) {
		t.Fatalf("second batch re-emitted a dictionary name: %q", second)
	}
	if len(second) >= len(first) {
		t.Fatalf("second batch (%d bytes) not smaller than first (%d) despite warm dictionary", len(second), len(first))
	}
	got := decodeStream(t, append(append([]byte(nil), first...), second...))
	if want := len(batch) * 2; len(got) != want {
		t.Fatalf("decoded %d tuples, want %d", len(got), want)
	}
}

// Special float values must survive bit-exactly: the XOR codec operates on
// raw IEEE-754 bits, so NaN payloads, infinities and signed zero are all
// preserved (text normalizes -0; binary does not need to).
func TestBinaryValueBitExact(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000123)} // NaN with a payload
	batch := make([]tuple.Tuple, len(vals))
	for i, v := range vals {
		batch[i] = tuple.Tuple{Time: int64(i) * 7, Value: v, Name: "x"}
	}
	enc := tuple.NewBinaryEncoder()
	got := decodeStream(t, enc.AppendBatch(nil, batch))
	if len(got) != len(batch) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(batch))
	}
	for i := range got {
		if math.Float64bits(got[i].Value) != math.Float64bits(batch[i].Value) {
			t.Fatalf("value %d: %x != %x", i,
				math.Float64bits(got[i].Value), math.Float64bits(batch[i].Value))
		}
	}
}

// Extreme timestamps (including ones whose deltas overflow int64) must
// round trip exactly: both sides use wrapping two's-complement arithmetic.
func TestBinaryTimestampExtremes(t *testing.T) {
	times := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 12345, math.MinInt64 + 1}
	batch := make([]tuple.Tuple, len(times))
	for i, ms := range times {
		batch[i] = tuple.Tuple{Time: ms, Value: float64(i), Name: "t"}
	}
	enc := tuple.NewBinaryEncoder()
	got := decodeStream(t, enc.AppendBatch(nil, batch))
	for i := range got {
		if got[i].Time != batch[i].Time {
			t.Fatalf("time %d: %d != %d", i, got[i].Time, batch[i].Time)
		}
	}
}

// A mixed stream — text lines, comments, binary frames interleaved —
// decodes to all tuples in stream order.
func TestBinaryMixedStream(t *testing.T) {
	enc := tuple.NewBinaryEncoder()
	var stream []byte
	stream = append(stream, "# a comment\n1000 1 text.sig\n"...)
	stream = enc.AppendBatch(stream, []tuple.Tuple{{Time: 1010, Value: 2, Name: "bin.sig"}})
	stream = append(stream, "1020 3 text.sig\r\n"...)
	stream = enc.AppendBatch(stream, []tuple.Tuple{{Time: 1030, Value: 4, Name: "bin.sig"}})
	want := []tuple.Tuple{
		{Time: 1000, Value: 1, Name: "text.sig"},
		{Time: 1010, Value: 2, Name: "bin.sig"},
		{Time: 1020, Value: 3, Name: "text.sig"},
		{Time: 1030, Value: 4, Name: "bin.sig"},
	}
	got := decodeStream(t, stream)
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tuple %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// The incremental decoder must produce identical results however the
// stream is sliced — here, one byte at a time.
func TestStreamDecoderIncremental(t *testing.T) {
	enc := tuple.NewBinaryEncoder()
	var stream []byte
	stream = enc.AppendBatch(stream, sampleBatch())
	stream = append(stream, "2000 9 late\n"...)
	stream = enc.AppendBatch(stream, sampleBatch())

	whole := decodeStream(t, stream)

	dec := tuple.NewStreamDecoder()
	var got []tuple.Tuple
	onLine := func(ln string) { t.Fatalf("line %q is not a tuple", ln) }
	onTuples := func(ts []tuple.Tuple) { got = append(got, ts...) }
	for i := range stream {
		if err := dec.Feed(stream[i:i+1], onLine, onTuples); err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
	}
	dec.Tail(onLine, onTuples)
	if len(got) != len(whole) {
		t.Fatalf("byte-wise decode yielded %d tuples, whole-stream %d", len(got), len(whole))
	}
	for i := range got {
		if got[i] != whole[i] {
			t.Fatalf("tuple %d: %+v != %+v", i, got[i], whole[i])
		}
	}
}

// AppendDict catch-up plus redundant re-declarations must decode cleanly,
// and AppendBatchReadOnly must never invent IDs: unknown names ride as
// text.
func TestBinaryDictCatchupAndReadOnly(t *testing.T) {
	enc := tuple.NewBinaryEncoder()
	live := enc.AppendBatch(nil, sampleBatch()) // declares CWND, "rtt ms", ""

	// A late joiner's stream: catch-up dict, then a read-only encoding of
	// tuples whose names are partly unknown to the shared dictionary.
	joiner := enc.AppendDict(nil)
	joiner = enc.AppendDict(joiner) // redundant catch-up must be tolerated
	private := []tuple.Tuple{
		{Time: 10, Value: 1, Name: "CWND"},
		{Time: 20, Value: 2, Name: "never.declared"},
	}
	joiner = enc.AppendBatchReadOnly(joiner, private)
	if !bytes.Contains(joiner, []byte("20 2 never.declared\n")) {
		t.Fatalf("read-only encode should fall back to text for unknown names: %q", joiner)
	}
	got := decodeStream(t, joiner)
	if len(got) != len(private) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(private))
	}
	for i := range got {
		if got[i] != private[i] {
			t.Fatalf("tuple %d: %+v != %+v", i, got[i], private[i])
		}
	}
	// The shared dictionary must be unchanged by the read-only pass.
	if enc.Signals() != 3 {
		t.Fatalf("read-only encode mutated the dictionary: %d signals", enc.Signals())
	}
	_ = live
}

func TestBinaryEncoderReset(t *testing.T) {
	enc := tuple.NewBinaryEncoder()
	first := enc.AppendBatch(nil, sampleBatch())
	enc.Reset()
	if enc.Signals() != 0 {
		t.Fatalf("Reset left %d signals", enc.Signals())
	}
	second := enc.AppendBatch(nil, sampleBatch())
	if !bytes.Equal(first, second) {
		t.Fatalf("post-Reset encoding differs from a fresh stream")
	}
	// Each stream decodes independently from byte zero.
	decodeStream(t, second)
}

func TestStreamDecoderErrors(t *testing.T) {
	enc := tuple.NewBinaryEncoder()
	valid := enc.AppendBatch(nil, []tuple.Tuple{{Time: 1, Value: 2, Name: "a"}})

	cases := map[string][]byte{
		// DATA frame (type 0x02) with a run referencing undeclared id 7.
		"undeclared id": {tuple.FrameMarker, tuple.FrameData, 2, 7, 1},
		// DICT frame with id 5 when the dictionary is empty (a gap).
		"dict gap": {tuple.FrameMarker, tuple.FrameDict, 2, 5, 'x'},
		// DICT name the text grammar cannot carry (embedded newline).
		"dict bad name": {tuple.FrameMarker, tuple.FrameDict, 3, 0, 'x', '\n'},
		// Declared payload length over the cap.
		"oversized payload": append([]byte{tuple.FrameMarker, tuple.FrameData},
			0x81, 0x80, 0xc0, 0x00), // uvarint > MaxFramePayload
		// Redeclaring id 0 with a different name.
		"dict redeclare": append(append([]byte(nil), valid...),
			tuple.FrameMarker, tuple.FrameDict, 2, 0, 'z'),
	}
	for name, stream := range cases {
		dec := tuple.NewStreamDecoder()
		err := dec.Feed(stream, func(string) {}, func([]tuple.Tuple) {})
		if !errors.Is(err, tuple.ErrBadFrame) {
			t.Errorf("%s: got %v, want ErrBadFrame", name, err)
			continue
		}
		// The error must be sticky.
		if err2 := dec.Feed([]byte("1 2 c\n"), func(string) {}, func([]tuple.Tuple) {}); !errors.Is(err2, tuple.ErrBadFrame) {
			t.Errorf("%s: error not sticky: %v", name, err2)
		}
	}
}

// An unterminated trailing text line is delivered by Tail, a tuple to
// batch and anything else to line; a torn trailing frame is silently
// discarded (the torn-tail rule for crash recovery).
func TestStreamDecoderTail(t *testing.T) {
	for _, tc := range []struct{ stream, tuple, line string }{
		{"1 2 a\n3 4 unterminated", "3 4 unterminated", ""},
		{"1 2 a\n# unterminated\r", "", "# unterminated"},
	} {
		dec := tuple.NewStreamDecoder()
		var lines, tuples []string
		onLine := func(ln string) { lines = append(lines, ln) }
		onTuples := func(ts []tuple.Tuple) {
			for _, tu := range ts {
				tuples = append(tuples, tu.String())
			}
		}
		if err := dec.Feed([]byte(tc.stream), onLine, onTuples); err != nil {
			t.Fatal(err)
		}
		if len(tuples) != 1 || len(lines) != 0 {
			t.Fatalf("%q: Feed delivered tuples %q, lines %q", tc.stream, tuples, lines)
		}
		dec.Tail(onLine, onTuples)
		if tc.tuple != "" && (len(tuples) != 2 || tuples[1] != tc.tuple || len(lines) != 0) {
			t.Fatalf("%q: tail tuple not delivered: tuples %q, lines %q", tc.stream, tuples, lines)
		}
		if tc.line != "" && (len(tuples) != 1 || len(lines) != 1 || lines[0] != tc.line) {
			t.Fatalf("%q: tail line not delivered: tuples %q, lines %q", tc.stream, tuples, lines)
		}
	}

	enc := tuple.NewBinaryEncoder()
	stream := enc.AppendBatch(nil, sampleBatch())
	dec := tuple.NewStreamDecoder()
	var tuples int
	if err := dec.Feed(stream[:len(stream)-3], func(string) {}, func(ts []tuple.Tuple) {
		tuples += len(ts)
	}); err != nil {
		t.Fatal(err)
	}
	dec.Tail(func(ln string) { t.Fatalf("torn frame surfaced as text line %q", ln) }, func([]tuple.Tuple) {
		t.Fatal("torn frame surfaced as a tuple")
	})
	if tuples != 0 {
		t.Fatalf("torn frame yielded %d tuples", tuples)
	}
}

// StreamReader surfaces a bad text line as ErrBadLine after delivering
// everything decoded before it — the same torn-tail contract tuple.Reader
// gives the flight recorder.
func TestStreamReaderBadLine(t *testing.T) {
	enc := tuple.NewBinaryEncoder()
	stream := enc.AppendBatch(nil, []tuple.Tuple{{Time: 1, Value: 2, Name: "a"}})
	stream = append(stream, "not a tuple at all\n"...)
	sr := tuple.NewStreamReader(bytes.NewReader(stream))
	if _, err := sr.Read(); err != nil {
		t.Fatalf("first tuple: %v", err)
	}
	_, err := sr.Read()
	if !errors.Is(err, tuple.ErrBadLine) {
		t.Fatalf("got %v, want ErrBadLine", err)
	}
	// The error names the text line and carries Parse's reason.
	_, reason := tuple.Parse("not a tuple at all")
	if msg := err.Error(); !strings.HasPrefix(msg, "line 1: ") || !strings.HasSuffix(msg, reason.Error()) {
		t.Fatalf("error %q lacks the line number or Parse's reason %q", msg, reason)
	}
	if _, err := sr.Read(); !errors.Is(err, tuple.ErrBadLine) {
		t.Fatalf("error not sticky: %v", err)
	}
}

// Unknown frame types must be skipped by length, so future frame kinds do
// not break old decoders.
func TestStreamDecoderSkipsUnknownFrames(t *testing.T) {
	stream := []byte{tuple.FrameMarker, 0x7e, 3, 0xde, 0xad, 0xbf}
	stream = append(stream, "5 6 after\n"...)
	var got []string
	dec := tuple.NewStreamDecoder()
	if err := dec.Feed(stream, func(ln string) { t.Fatalf("line %q", ln) }, func(ts []tuple.Tuple) {
		for _, tu := range ts {
			got = append(got, tu.String())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "5 6 after" {
		t.Fatalf("stream after unknown frame mangled: %q", got)
	}
}

// Names that need cleaning must decode equal to what the text encoder
// would have produced for the same tuples.
func TestBinaryNameCleaning(t *testing.T) {
	dirty := []tuple.Tuple{{Time: 1, Value: 2, Name: " padded "}}
	text := tuple.AppendWireBatch(nil, dirty)
	wantT, err := tuple.Parse(strings.TrimSuffix(string(text), "\n"))
	if err != nil {
		t.Fatal(err)
	}
	enc := tuple.NewBinaryEncoder()
	got := decodeStream(t, enc.AppendBatch(nil, dirty))
	if len(got) != 1 || got[0] != wantT {
		t.Fatalf("binary decode %+v, text decode %+v", got, wantT)
	}
}

// The steady-state encode path must not allocate: dictionaries warm, the
// destination buffer reused — the contract the publish-path benchmark
// gates.
func TestBinaryEncoderZeroAlloc(t *testing.T) {
	enc := tuple.NewBinaryEncoder()
	batch := make([]tuple.Tuple, 256)
	for i := range batch {
		batch[i] = tuple.Tuple{Time: int64(1000 + 10*i), Value: float64(i % 17), Name: "steady.signal"}
	}
	buf := enc.AppendBatch(nil, batch)
	allocs := testing.AllocsPerRun(100, func() {
		buf = enc.AppendBatch(buf[:0], batch)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendBatch allocates %.1f times per batch", allocs)
	}
}
