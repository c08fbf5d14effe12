package tuple_test

// Fuzzing for the v3 binary wire codec. The differential target is the
// spec's enforcement arm: every invariant it asserts traces to a clause of
// docs/WIRE.md (cited inline). The raw target throws arbitrary bytes at
// the mixed-stream decoder, which must never panic and must fail closed
// (sticky ErrBadFrame) on malformed framing.

import (
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/tuple"
)

// FuzzWireV3Differential: a generated tuple stream encoded as text and as
// v3 binary must decode to identical tuple sequences.
//
//   - WIRE.md §B8 (equivalence): binary decode == text decode, tuple for
//     tuple, in order — names, timestamps and value bits all equal.
//   - WIRE.md §B4 (self-contained runs): the stream is encoded in batches
//     chosen by the fuzzer, so run/frame boundaries move; decode must not.
//   - WIRE.md §B3 (dictionary): names repeat across batches, so later
//     batches exercise warm-dictionary encoding with no DICT re-emission.
//   - WIRE.md §B1 (marker): text and binary interleave in one stream when
//     the fuzzer opts some batches into text.
func FuzzWireV3Differential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("differential decision bytes"))
	f.Add(bytes.Repeat([]byte{0xf5, 0x01, 0x9c}, 50))
	f.Add(bytes.Repeat([]byte{0x07, 0x80, 0xff, 0x00}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzgen.New(data)
		ts := src.Tuples(512, false)

		// Slice the payload into batches at fuzzer-chosen points and
		// encode each batch text and binary; interleave some batches as
		// text inside the "binary" stream (legal per §B1).
		enc := tuple.NewBinaryEncoder()
		var text, mixed []byte
		for i := 0; i < len(ts); {
			n := 1 + src.Intn(64)
			if i+n > len(ts) {
				n = len(ts) - i
			}
			batch := ts[i : i+n]
			text = tuple.AppendWireBatch(text, batch)
			if src.Intn(4) == 0 {
				mixed = tuple.AppendWireBatch(mixed, batch)
			} else {
				mixed = enc.AppendBatch(mixed, batch)
			}
			i += n
		}

		decode := func(stream []byte) []tuple.Tuple {
			sr := tuple.NewStreamReader(bytes.NewReader(stream))
			var out []tuple.Tuple
			for {
				tu, err := sr.Read()
				if err == io.EOF {
					return out
				}
				if err != nil {
					t.Fatalf("decoding: %v\nstream: %q", err, stream)
				}
				out = append(out, tu)
			}
		}
		fromText := decode(text)
		fromMixed := decode(mixed)

		if len(fromText) != len(ts) || len(fromMixed) != len(ts) {
			t.Fatalf("decoded %d text / %d mixed tuples, want %d", len(fromText), len(fromMixed), len(ts))
		}
		for i := range ts {
			if fromText[i] != fromMixed[i] {
				t.Fatalf("tuple %d diverges: text %+v, binary %+v", i, fromText[i], fromMixed[i])
			}
			if fromMixed[i].Name != ts[i].Name || fromMixed[i].Time != ts[i].Time {
				t.Fatalf("tuple %d: decoded %+v, source %+v", i, fromMixed[i], ts[i])
			}
			// §B6: values round trip bit-exactly through the XOR codec.
			if math.Float64bits(fromMixed[i].Value) != math.Float64bits(ts[i].Value) {
				t.Fatalf("tuple %d value bits: %x != %x", i,
					math.Float64bits(fromMixed[i].Value), math.Float64bits(ts[i].Value))
			}
		}

		// §B4: re-decoding the binary stream one byte at a time must agree
		// (frame boundaries never depend on read-chunk boundaries).
		dec := tuple.NewStreamDecoder()
		var rechunked []tuple.Tuple
		onLine := func(ln string) {
			if !tuple.IsComment(ln) {
				t.Fatalf("line %q is not a tuple", ln)
			}
		}
		onTuples := func(b []tuple.Tuple) { rechunked = append(rechunked, b...) }
		step := 1 + src.Intn(7)
		for off := 0; off < len(mixed); off += step {
			end := off + step
			if end > len(mixed) {
				end = len(mixed)
			}
			if err := dec.Feed(mixed[off:end], onLine, onTuples); err != nil {
				t.Fatalf("incremental decode: %v", err)
			}
		}
		dec.Tail(onLine, onTuples)
		if len(rechunked) != len(ts) {
			t.Fatalf("incremental decode yielded %d tuples, want %d", len(rechunked), len(ts))
		}
	})
}

// FuzzBinaryStream: arbitrary bytes through the mixed-stream decoder. The
// decoder must never panic, must keep every reported error under
// ErrBadFrame/ErrBadLine semantics (§B7: fail closed and sticky), and
// whatever it does decode must be re-encodable.
func FuzzBinaryStream(f *testing.F) {
	f.Add([]byte("1500 42.5 CWND\n"))
	f.Add([]byte{tuple.FrameMarker, tuple.FrameDict, 2, 0, 'a'})
	f.Add([]byte{tuple.FrameMarker, tuple.FrameData, 4, 0, 1, 2, 0})
	seed := tuple.NewBinaryEncoder().AppendBatch(nil, []tuple.Tuple{
		{Time: 1500, Value: 42.5, Name: "CWND"},
		{Time: 1550, Value: 41, Name: "CWND"},
	})
	f.Add(seed)
	f.Add(append(append([]byte("10 1 x\n"), seed...), 0xf5, 0x7f, 0x02))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := tuple.NewStreamDecoder()
		var decoded []tuple.Tuple
		err := dec.Feed(data, func(string) {}, func(b []tuple.Tuple) {
			decoded = append(decoded, b...)
		})
		if err != nil {
			// §B7: the error must be sticky — further feeds keep failing.
			if err2 := dec.Feed([]byte("1 2 a\n"), func(string) {}, func([]tuple.Tuple) {}); err2 == nil {
				t.Fatalf("decoder accepted data after framing error %v", err)
			}
			return
		}
		dec.Tail(func(string) {}, func(b []tuple.Tuple) { decoded = append(decoded, b...) })
		// Whatever decoded must survive a binary re-encode round trip.
		if len(decoded) > 0 {
			enc := tuple.NewBinaryEncoder()
			re := enc.AppendBatch(nil, decoded)
			sr := tuple.NewStreamReader(bytes.NewReader(re))
			for i := 0; ; i++ {
				tu, rerr := sr.Read()
				if rerr == io.EOF {
					if i != len(decoded) {
						t.Fatalf("re-encode yielded %d tuples, want %d", i, len(decoded))
					}
					break
				}
				if rerr != nil {
					t.Fatalf("re-encoded stream unreadable: %v", rerr)
				}
				if i >= len(decoded) || math.Float64bits(tu.Value) != math.Float64bits(decoded[i].Value) ||
					tu.Time != decoded[i].Time || tuple.CleanName(decoded[i].Name) != tu.Name {
					t.Fatalf("re-encode tuple %d mismatch: %+v vs %+v", i, tu, decoded[i])
				}
			}
		}
	})
}
