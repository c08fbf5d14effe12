package tuple

import (
	"math"
	"testing"
)

// decodeChunk decodes one self-contained chunk with a fresh decoder.
func decodeChunk(t *testing.T, chunk []byte) []Tuple {
	t.Helper()
	dec := NewStreamDecoder()
	var out []Tuple
	if err := dec.Feed(chunk, func(line string) {
		t.Fatalf("text line %q is not a tuple", line)
	}, func(b []Tuple) {
		out = append(out, append([]Tuple(nil), b...)...)
	}); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	return out
}

func TestDatagramEncoderSelfContained(t *testing.T) {
	enc := NewDatagramEncoder()
	batches := [][]Tuple{
		{{Time: 100, Value: 1.5, Name: "a"}, {Time: 150, Value: 2, Name: "a"}, {Time: 150, Value: 7, Name: "b"}},
		{{Time: 200, Value: 3, Name: "b"}, {Time: 250, Value: math.NaN(), Name: "a"}},
		{{Time: 300, Value: -0.0, Name: "c"}},
	}
	// Decode each chunk in isolation, deliberately out of order: chunk 1
	// then 0 then 2. Every chunk must carry its own dictionary.
	var chunks [][]byte
	for _, b := range batches {
		chunks = append(chunks, enc.AppendDatagram(nil, b))
	}
	for _, i := range []int{1, 0, 2} {
		got := decodeChunk(t, chunks[i])
		want := batches[i]
		if len(got) != len(want) {
			t.Fatalf("chunk %d: got %d tuples, want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k].Time != want[k].Time || got[k].Name != want[k].Name ||
				math.Float64bits(got[k].Value) != math.Float64bits(want[k].Value) {
				t.Fatalf("chunk %d tuple %d: got %+v want %+v", i, k, got[k], want[k])
			}
		}
	}
}

func TestDatagramEncoderLocalIDsDense(t *testing.T) {
	enc := NewDatagramEncoder()
	// First chunk declares a=0, b=1. Second chunk uses b only: a
	// stream-dictionary encoder would emit run ID 1 with no binding; the
	// datagram encoder must re-declare b as chunk-local ID 0.
	enc.AppendDatagram(nil, []Tuple{{Time: 1, Value: 1, Name: "a"}, {Time: 1, Value: 1, Name: "b"}})
	chunk := enc.AppendDatagram(nil, []Tuple{{Time: 2, Value: 2, Name: "b"}})
	got := decodeChunk(t, chunk)
	if len(got) != 1 || got[0].Name != "b" || got[0].Time != 2 {
		t.Fatalf("got %+v, want the single b tuple", got)
	}
}

func TestDatagramEncoderReusedDecoder(t *testing.T) {
	enc := NewDatagramEncoder()
	dec := NewStreamDecoder()
	for i := 0; i < 5; i++ {
		chunk := enc.AppendDatagram(nil, []Tuple{
			{Time: int64(i * 10), Value: float64(i), Name: "x"},
			{Time: int64(i * 10), Value: float64(-i), Name: "y"},
		})
		dec.Reset()
		var n int
		if err := dec.Feed(chunk, func(string) { t.Fatal("unexpected text") },
			func(b []Tuple) { n += len(b) }); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if n != 2 {
			t.Fatalf("chunk %d: decoded %d tuples, want 2", i, n)
		}
	}
}

func TestStreamDecoderResetClearsError(t *testing.T) {
	dec := NewStreamDecoder()
	bad := []byte{FrameMarker, FrameData, 5, 0xff, 0xff, 0xff, 0xff, 0xff}
	if err := dec.Feed(bad, func(string) {}, func([]Tuple) {}); err == nil {
		t.Fatal("malformed frame did not error")
	}
	if err := dec.Feed([]byte("1 2 a\n"), func(string) {}, func([]Tuple) {}); err == nil {
		t.Fatal("sticky error did not stick")
	}
	dec.Reset()
	var tuples int
	if err := dec.Feed([]byte("1 2 a\n"), func(string) {}, func(ts []Tuple) { tuples += len(ts) }); err != nil {
		t.Fatalf("Feed after Reset: %v", err)
	}
	if tuples != 1 {
		t.Fatalf("got %d tuples after Reset, want 1", tuples)
	}
}

func TestDatagramEncoderZeroAllocSteadyState(t *testing.T) {
	enc := NewDatagramEncoder()
	batch := make([]Tuple, 64)
	for i := range batch {
		name := "sig.a"
		if i%2 == 1 {
			name = "sig.b"
		}
		batch[i] = Tuple{Time: int64(i * 5), Value: float64(i) * 1.25, Name: name}
	}
	var dst []byte
	// Warm the name table and the dst/payload capacities.
	for i := 0; i < 8; i++ {
		dst = enc.AppendDatagram(dst[:0], batch)
	}
	// AllocsPerRun measures at GOMAXPROCS 1, so no other goroutine
	// allocates in parallel with the loop. One run holds all 200 rounds,
	// so an allocation amortized over rounds still counts.
	rounds := func() {
		for i := 0; i < 200; i++ {
			dst = enc.AppendDatagram(dst[:0], batch)
		}
	}
	if allocs := testing.AllocsPerRun(1, rounds); allocs > 2 {
		t.Fatalf("steady-state AppendDatagram allocated %.0f times over 200 rounds", allocs)
	}
}
