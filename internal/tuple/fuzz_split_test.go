package tuple_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/tuple"
)

// decodeEvents feeds chunks through one StreamDecoder and returns what it
// delivered, in order: each line, each frame tuple, then the error that
// ended the stream or, without one, the Tail line.
func decodeEvents(chunks [][]byte) []string {
	var ev []string
	line := func(ln string) { ev = append(ev, "line "+ln) }
	batch := func(ts []tuple.Tuple) {
		for _, t := range ts {
			ev = append(ev, fmt.Sprintf("tuple %d %x %s", t.Time, math.Float64bits(t.Value), t.Name))
		}
	}
	dec := tuple.NewStreamDecoder()
	for _, c := range chunks {
		if err := dec.Feed(c, line, batch); err != nil {
			return append(ev, "error "+err.Error())
		}
	}
	dec.Tail(line)
	return ev
}

// FuzzStreamDecoderSplit: the same bytes fed whole and fed split at
// fuzzer-chosen points yield the same lines, tuples and error — framing,
// CR trimming, the 1 MiB line bound and the 32 KiB line blocks never
// depend on read boundaries (WIRE.md §B4). The stream is head, then fill
// repeated n mod 2 MiB times, then tail, so seeds carry lines of any
// length without megabyte corpus files. Each big-endian uint16 pair of
// cuts is the length of the next chunk; what the cuts leave is fed whole.
func FuzzStreamDecoderSplit(f *testing.F) {
	f.Add([]byte("10 1 a\r\n\r\n\n20 2 b\r\n# c\r\n"), byte(0), uint32(0), []byte("30 3"), []byte{0, 5, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, head []byte, fill byte, n uint32, tail []byte, cuts []byte) {
		stream := slices.Concat(head, bytes.Repeat([]byte{fill}, int(n%(2<<20))), tail)
		whole := decodeEvents([][]byte{stream})

		var chunks [][]byte
		rest := stream
		for ; len(cuts) >= 2; cuts = cuts[2:] {
			k := min(int(cuts[0])<<8|int(cuts[1]), len(rest))
			chunks = append(chunks, rest[:k])
			rest = rest[k:]
		}
		split := decodeEvents(append(chunks, rest))

		if !slices.Equal(whole, split) {
			i := 0
			for i < len(whole) && i < len(split) && whole[i] == split[i] {
				i++
			}
			t.Fatalf("split decode diverges at event %d of %d/%d:\nwhole %.200q\nsplit %.200q",
				i, len(whole), len(split), at(whole, i), at(split, i))
		}
	})
}

func at(ev []string, i int) string {
	if i < len(ev) {
		return ev[i]
	}
	return "<end>"
}
