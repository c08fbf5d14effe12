package fuzzgen

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// sampleData is an arbitrary but fixed decision stream used across tests.
func sampleData() []byte {
	b := make([]byte, 512)
	for i := range b {
		b[i] = byte(i*37 + 11)
	}
	return b
}

func TestSourceDeterministic(t *testing.T) {
	a, b := New(sampleData()), New(sampleData())
	ta := a.Tuples(64, false)
	tb := b.Tuples(64, false)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatal("same input bytes produced different tuples")
	}
	if !bytes.Equal(a.WireStream(ta), b.WireStream(tb)) {
		t.Fatal("same input bytes produced different wire streams")
	}
	if a.HandshakeLine() != b.HandshakeLine() {
		t.Fatal("same input bytes produced different handshake lines")
	}
}

func TestExhaustedSourceTerminates(t *testing.T) {
	s := New(nil)
	if !s.Exhausted() {
		t.Fatal("empty source not exhausted")
	}
	ts := s.Tuples(1000, true)
	_ = s.WireStream(ts)
	_, _ = s.ControlFrame()
	_ = s.HandshakeLine()
	_ = s.ParamCommand()
	_ = s.CorruptSegment(SegmentFile(1, ts))
}

func TestGeneratedTuplesAreWireClean(t *testing.T) {
	s := New(sampleData())
	ts := s.Tuples(200, false)
	if len(ts) == 0 {
		t.Fatal("generator produced no tuples from a rich source")
	}
	for _, tu := range ts {
		if err := tuple.ValidateName(tu.Name); err != nil {
			t.Fatalf("generated invalid name %q: %v", tu.Name, err)
		}
		if tu.Value != tu.Value {
			t.Fatalf("generated NaN value for %q", tu.Name)
		}
		again, err := tuple.Parse(tu.String())
		if err != nil {
			t.Fatalf("generated tuple does not parse: %v", err)
		}
		if again != tu {
			t.Fatalf("generated tuple not round-trippable: %+v vs %+v", tu, again)
		}
	}
}

// TestWireStreamYieldsExactlyTheTuples is the generator's own contract
// check: noise must be invisible to a reader and every payload tuple
// must come back identical, in order.
func TestWireStreamYieldsExactlyTheTuples(t *testing.T) {
	s := New(sampleData())
	ts := s.Tuples(100, false)
	stream := s.WireStream(ts)
	got, err := tuple.NewReader(bytes.NewReader(stream), false).ReadAll()
	if err != nil {
		t.Fatalf("reading generated stream: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("stream yielded %d tuples, generated %d", len(got), len(ts))
	}
	for i := range got {
		if got[i] != ts[i] {
			t.Fatalf("tuple %d mismatch: %+v vs %+v", i, got[i], ts[i])
		}
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	s := New(sampleData())
	for i := 0; i < 50; i++ {
		verb, fields := s.ControlFrame()
		line := string(tuple.AppendControl(nil, verb, fields...))
		f, ok := tuple.ParseControl(strings.TrimSuffix(line, "\n"))
		if !ok {
			t.Fatalf("generated control frame does not parse: %q", line)
		}
		if f.Verb != verb || len(f.Fields) != len(fields) {
			t.Fatalf("control round trip mismatch: %q -> %+v", line, f)
		}
		for j := range fields {
			if f.Fields[j] != fields[j] {
				t.Fatalf("field %d mismatch: %q vs %q", j, f.Fields[j], fields[j])
			}
		}
	}
}

func TestSegmentFileScansClean(t *testing.T) {
	s := New(sampleData())
	ts := s.Tuples(50, true)
	seg := SegmentFile(3, ts)
	got, err := tuple.NewReader(bytes.NewReader(seg), false).ReadAll()
	if err != nil {
		t.Fatalf("segment does not read as a tuple stream: %v", err)
	}
	if len(got) != len(ts) {
		t.Fatalf("segment yields %d tuples, wrote %d", len(got), len(ts))
	}
	if !strings.HasPrefix(string(seg), "# gscope-reclog 1 seq=3\n") {
		t.Fatalf("segment header malformed: %q", string(seg[:32]))
	}
}

func TestCorruptSegmentCoversModes(t *testing.T) {
	base := SegmentFile(1, New(sampleData()).Tuples(20, true))
	changed := false
	for i := 0; i < 64; i++ {
		s := New([]byte{byte(i), byte(i * 3), byte(i * 7), byte(i * 13)})
		out := s.CorruptSegment(base)
		if !bytes.Equal(out, base) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("64 corruption attempts never changed the segment")
	}
	if !bytes.Equal(base, SegmentFile(1, New(sampleData()).Tuples(20, true))) {
		t.Fatal("CorruptSegment mutated its input")
	}
}

// TestTextLinesStayText: generated lines never hold a newline or open
// with the binary frame marker, and across inputs they include lines
// Parse accepts and lines it rejects.
func TestTextLinesStayText(t *testing.T) {
	parsed, rejected := 0, 0
	for i := 0; i < 64; i++ {
		for _, ln := range New(sampleData()[i:]).TextLines(64) {
			if strings.Contains(ln, "\n") || (ln != "" && ln[0] == tuple.FrameMarker) {
				t.Fatalf("line %q is not a text line", ln)
			}
			if _, err := tuple.Parse(ln); err == nil {
				parsed++
			} else {
				rejected++
			}
		}
	}
	if parsed == 0 || rejected == 0 {
		t.Fatalf("%d lines parsed and %d were rejected; want both", parsed, rejected)
	}
}
