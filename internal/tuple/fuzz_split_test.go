package tuple_test

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/fuzzgen"
	"repro/internal/tuple"
)

// decodeEvents feeds chunks through one StreamDecoder and returns what it
// delivered, in order: each line, each tuple, then the error that ended
// the stream or, without one, what Tail delivered.
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
	dec.Tail(line, batch)
	return ev
}

// FuzzStreamDecoderSplit: the same bytes fed whole and fed split at
// fuzzer-chosen points yield the same lines, tuples and error — framing,
// CR trimming, in-place parsing and the 1 MiB line bound never depend on
// read boundaries (WIRE.md §B4). The stream is head, then fill
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

// FuzzStreamDecoderText is the differential check of the decoder's
// in-place line parse against tuple.Parse. The stream is distinct
// numbered tuple lines (distinct mod 8192, past the name table's cap when
// above 4096), then fuzzgen text lines, the last one sometimes
// unterminated, fed in fuzzgen-chosen splits from one reused buffer that
// is overwritten after every Feed. Every line Parse accepts must arrive
// through batch as an equal tuple (time, value bits, name), every other
// line through line unchanged, in stream order — and both must still
// read the same once the buffer they were decoded from is gone.
func FuzzStreamDecoderText(f *testing.F) {
	f.Add([]byte("\x00\x08\x00\x01\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x03\x00\x01"), uint16(0))
	f.Add([]byte("\x00\x20\x01\x02\x03\x04\x05\x06\x07\x08\x00\x03\x00\x02"), uint16(4200))
	f.Fuzz(func(t *testing.T, data []byte, distinct uint16) {
		src := fuzzgen.New(data)
		var stream []byte
		for i := 0; i < int(distinct%8192); i++ {
			stream = fmt.Appendf(stream, "%d 1 d%05d\n", i, i)
		}
		for _, ln := range src.TextLines(64) {
			stream = append(append(stream, ln...), '\n')
		}
		if len(stream) > 0 && src.Bool() {
			stream = stream[:len(stream)-1]
		}

		var want []string
		for _, ln := range strings.SplitAfter(string(stream), "\n") {
			if ln == "" {
				continue
			}
			ln = strings.TrimSuffix(strings.TrimSuffix(ln, "\n"), "\r")
			if tu, err := tuple.Parse(ln); err == nil {
				want = append(want, tupleEvent(tu))
			} else {
				want = append(want, "line "+ln)
			}
		}

		var kept []tuple.Tuple
		var lines []string
		var order []bool // true: the next kept tuple, false: the next line
		line := func(ln string) {
			lines = append(lines, ln)
			order = append(order, false)
		}
		batch := func(ts []tuple.Tuple) {
			kept = append(kept, ts...)
			for range ts {
				order = append(order, true)
			}
		}
		dec := tuple.NewStreamDecoder()
		buf := make([]byte, len(stream))
		for rest := stream; len(rest) > 0; {
			k := len(rest)
			if !src.Exhausted() {
				k = 1 + src.Intn(min(len(rest), 1<<12))
			}
			n := copy(buf, rest[:k])
			if err := dec.Feed(buf[:n], line, batch); err != nil {
				t.Fatal(err)
			}
			scribble(buf[:n])
			rest = rest[k:]
		}
		dec.Tail(line, batch)

		got := make([]string, 0, len(order))
		for _, isTuple := range order {
			if isTuple {
				got, kept = append(got, tupleEvent(kept[0])), kept[1:]
			} else {
				got, lines = append(got, "line "+lines[0]), lines[1:]
			}
		}
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("decode diverges from Parse at line %d of %d/%d:\ngot  %.200q\nwant %.200q",
				i, len(got), len(want), at(got, i), at(want, i))
		}
	})
}

func tupleEvent(t tuple.Tuple) string {
	return fmt.Sprintf("tuple %d %x %q", t.Time, math.Float64bits(t.Value), t.Name)
}
