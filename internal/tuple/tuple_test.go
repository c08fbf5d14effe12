package tuple

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseThreeField(t *testing.T) {
	got, err := Parse("1500 42.5 CWND")
	if err != nil {
		t.Fatal(err)
	}
	want := Tuple{Time: 1500, Value: 42.5, Name: "CWND"}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestParseTwoField(t *testing.T) {
	got, err := Parse("99 -3")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "" || got.Time != 99 || got.Value != -3 {
		t.Fatalf("got %+v", got)
	}
}

func TestParseNameWithSpaces(t *testing.T) {
	got, err := Parse("10 1 conn errors per sec")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "conn errors per sec" {
		t.Fatalf("name = %q", got.Name)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "   ", "abc 1 x", "1 abc x", "12"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseExtraWhitespace(t *testing.T) {
	got, err := Parse("  5   7.5   sig  ")
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != 5 || got.Value != 7.5 || got.Name != "sig" {
		t.Fatalf("got %+v", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(ms int32, v float64, withName bool) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		name := ""
		if withName {
			name = "sig"
		}
		in := Tuple{Time: int64(ms), Value: v, Name: name}
		if ms < 0 {
			in.Time = -in.Time
		}
		out, err := Parse(in.String())
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFormatValueIntegers(t *testing.T) {
	if FormatValue(42) != "42" {
		t.Fatalf("FormatValue(42) = %q", FormatValue(42))
	}
	if FormatValue(-0.5) != "-0.5" {
		t.Fatalf("FormatValue(-0.5) = %q", FormatValue(-0.5))
	}
}

func TestTimestamp(t *testing.T) {
	tu := Tuple{Time: 1500}
	if tu.Timestamp() != 1500*time.Millisecond {
		t.Fatalf("Timestamp = %v", tu.Timestamp())
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Comment("recorded by test"); err != nil {
		t.Fatal(err)
	}
	in := []Tuple{
		{Time: 0, Value: 1, Name: "a"},
		{Time: 50, Value: 2.5, Name: "b"},
		{Time: 50, Value: 3, Name: "a"},
		{Time: 100, Value: -1, Name: "b"},
	}
	for _, tu := range in {
		if err := w.Write(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(in) {
		t.Fatalf("Count = %d", w.Count())
	}

	r := NewReader(&buf, true)
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d tuples, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("tuple %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	src := "# header\n\n10 1 x\n   \n# more\n20 2 x\n"
	r := NewReader(strings.NewReader(src), true)
	out, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d tuples", len(out))
	}
}

func TestReaderStrictOrdering(t *testing.T) {
	src := "10 1 x\n5 2 x\n"
	r := NewReader(strings.NewReader(src), true)
	if _, err := r.ReadAll(); err == nil {
		t.Fatal("strict reader should reject out-of-order timestamps")
	}
	r2 := NewReader(strings.NewReader(src), false)
	out, err := r2.ReadAll()
	if err != nil || len(out) != 2 {
		t.Fatalf("lenient reader failed: %v %d", err, len(out))
	}
}

func TestReaderEqualTimesAllowed(t *testing.T) {
	src := "10 1 x\n10 2 y\n"
	r := NewReader(strings.NewReader(src), true)
	out, err := r.ReadAll()
	if err != nil || len(out) != 2 {
		t.Fatalf("equal timestamps should pass strict mode: %v", err)
	}
}

func TestReaderReadEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""), true)
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

func TestReaderBadLineReportsLineNumber(t *testing.T) {
	src := "10 1 x\nbogus line here\n"
	r := NewReader(strings.NewReader(src), true)
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should carry line number: %v", err)
	}
}

func TestNames(t *testing.T) {
	in := []Tuple{{Name: "b"}, {Name: "a"}, {Name: "b"}, {Name: "c"}}
	got := Names(in)
	want := []string{"b", "a", "c"}
	if len(got) != len(want) {
		t.Fatalf("Names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names = %v, want %v", got, want)
		}
	}
}

func TestIsComment(t *testing.T) {
	if !IsComment("# x") || !IsComment("   ") || !IsComment("") {
		t.Fatal("comment detection failed")
	}
	if IsComment("10 1 x") {
		t.Fatal("data line marked as comment")
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failWriter{})
	w.Write(Tuple{Time: 1, Value: 1}) //nolint:errcheck
	if err := w.Flush(); err == nil {
		t.Fatal("expected sticky error")
	}
	if err := w.Write(Tuple{Time: 2, Value: 2}); err == nil {
		t.Fatal("writes after failure should keep failing")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

func TestAppendWireRoundTrip(t *testing.T) {
	cases := []Tuple{
		{Time: 1500, Value: 42.5, Name: "CWND"},
		{Time: 0, Value: -3, Name: ""},
		{Time: 123456789, Value: 0.1, Name: "name with spaces"},
		{Time: -7, Value: 1e300, Name: "big"},
	}
	var buf []byte
	for _, want := range cases {
		buf = AppendWire(buf[:0], want)
		if buf[len(buf)-1] != '\n' {
			t.Fatalf("%+v: no trailing newline in %q", want, buf)
		}
		got, err := Parse(string(buf[:len(buf)-1]))
		if err != nil {
			t.Fatalf("%+v: parse back: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip: %+v != %+v", got, want)
		}
		// AppendWire and String produce the same wire form.
		if string(buf) != want.String()+"\n" {
			t.Fatalf("AppendWire %q != String %q", buf, want.String())
		}
	}
}

// TestAppendWireExactLines pins the exact bytes of the named and the
// two-field (unnamed signal) line forms.
func TestAppendWireExactLines(t *testing.T) {
	for _, c := range []struct {
		in   Tuple
		want string
	}{
		{Tuple{Time: 1500, Value: 42.5, Name: "CWND"}, "1500 42.5 CWND\n"},
		{Tuple{Time: 1000, Value: 7}, "1000 7\n"},
	} {
		if got := string(AppendWire(nil, c.in)); got != c.want {
			t.Fatalf("AppendWire(%+v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestAppendWireBatch(t *testing.T) {
	batch := []Tuple{{Time: 1, Value: 2, Name: "a"}, {Time: 3, Value: 4, Name: "b"}}
	out := AppendWireBatch(nil, batch)
	if string(out) != "1 2 a\n3 4 b\n" {
		t.Fatalf("AppendWireBatch = %q", out)
	}
}
