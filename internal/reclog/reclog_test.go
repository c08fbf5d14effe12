package reclog

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/testutil"
	"repro/internal/tuple"
)

// The recorder promises its writer goroutine exits when Close drains;
// a leaked writer fails the whole package.
func TestMain(m *testing.M) {
	testutil.VerifyTestMain(m)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	testutil.WaitFor(t, "recorder condition", cond)
}

// record writes tuples through a Log in batches of batchSize and closes it.
// Unless the test configures one, the queue is sized so the drop-oldest
// bound cannot fire: these tests assert lossless round trips, and a burst
// of appends can outrun the writer's first segment open.
func record(t *testing.T, dir string, opts Options, tuples []tuple.Tuple, batchSize int) {
	t.Helper()
	if opts.QueueLimit == 0 {
		opts.QueueLimit = len(tuples) + 1
	}
	lg, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tuples); i += batchSize {
		end := i + batchSize
		if end > len(tuples) {
			end = len(tuples)
		}
		if !lg.Append(tuples[i:end]) {
			t.Fatalf("Append refused at %d: %v", i, lg.Err())
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll drains a session as fast as possible into one slice.
func replayAll(t *testing.T, dir string) []tuple.Tuple {
	t.Helper()
	sess, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(sess)
	rep.SetSpeed(0)
	var out []tuple.Tuple
	if err := rep.Run(func(b []tuple.Tuple) error {
		out = append(out, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// stream generates a deterministic multi-signal tuple stream.
func stream(n int, stepMS int64) []tuple.Tuple {
	names := []string{"cps", "errps", "tput"}
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{
			Time:  int64(i) * stepMS,
			Value: float64(i%97) + 0.5,
			Name:  names[i%len(names)],
		}
	}
	return out
}

// TestRecordReplayRoundTrip is the tentpole property: recording a session
// (across many rotated segments) and replaying it as fast as possible
// reproduces a byte-identical wire stream, modulo the '#' framing comments.
func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := stream(5000, 3)
	// Tiny segments force dozens of rotations mid-stream.
	record(t, dir, Options{SegmentBytes: 4096}, in, 64)

	got := replayAll(t, dir)
	want := tuple.AppendWireBatch(nil, in)
	have := tuple.AppendWireBatch(nil, got)
	if !bytes.Equal(want, have) {
		t.Fatalf("replay differs: recorded %d tuples, replayed %d", len(in), len(got))
	}

	sess, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tuples() != int64(len(in)) {
		t.Fatalf("session counts %d tuples, want %d", sess.Tuples(), len(in))
	}
	if len(sess.Segments()) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(sess.Segments()))
	}
}

// TestRoundTripProperty fuzzes batch sizes, segment bounds and values: the
// replayed wire stream must always be byte-identical to the recorded one.
func TestRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(2000)
		in := make([]tuple.Tuple, n)
		at := int64(0)
		for i := range in {
			at += int64(rng.Intn(20))
			in[i] = tuple.Tuple{Time: at, Value: rng.NormFloat64() * 1e3, Name: "sig"}
		}
		dir := t.TempDir()
		record(t, dir, Options{SegmentBytes: int64(512 + rng.Intn(8192))}, in, 1+rng.Intn(200))
		got := replayAll(t, dir)
		return bytes.Equal(tuple.AppendWireBatch(nil, in), tuple.AppendWireBatch(nil, got))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestSealFooterAndHeader checks the on-disk framing documented in the
// package comment: magic header, tuple lines, seal footer.
func TestSealFooterAndHeader(t *testing.T) {
	dir := t.TempDir()
	in := stream(10, 5)
	record(t, dir, Options{}, in, 10)
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if string(lines[0]) != "# gscope-reclog 1 seq=1" {
		t.Fatalf("header = %q", lines[0])
	}
	if string(lines[len(lines)-1]) != "# seal tuples=10 first=0 last=45" {
		t.Fatalf("footer = %q", lines[len(lines)-1])
	}
}

// TestSeekToTime checks the acceptance property: a windowed replay starts
// within one segment of the requested timestamp, skipping earlier segments
// without reading them, and per-tuple filtering makes the boundary exact.
func TestSeekToTime(t *testing.T) {
	dir := t.TempDir()
	in := stream(5000, 2) // stamps 0..9998 ms
	record(t, dir, Options{SegmentBytes: 4096}, in, 64)

	sess, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.segs) < 4 {
		t.Fatalf("want several segments, got %d", len(sess.segs))
	}
	from, to := 4000*time.Millisecond, 6000*time.Millisecond
	rep := NewReplayer(sess)
	rep.SetSpeed(0)
	rep.SetWindow(from, to)
	var got []tuple.Tuple
	if err := rep.Run(func(b []tuple.Tuple) error {
		got = append(got, b...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rep.SkippedSegments() == 0 {
		t.Fatal("seek read every segment; the index was not used")
	}
	var want []tuple.Tuple
	for _, tu := range in {
		if tu.Time >= 4000 && tu.Time <= 6000 {
			want = append(want, tu)
		}
	}
	if !bytes.Equal(tuple.AppendWireBatch(nil, want), tuple.AppendWireBatch(nil, got)) {
		t.Fatalf("window replay: got %d tuples, want %d", len(got), len(want))
	}
}

// TestRetentionBoundsSession fills a session past its byte budget and
// checks old segments are deleted, the newest survive, and the session
// stays replayable.
func TestRetentionBoundsSession(t *testing.T) {
	dir := t.TempDir()
	in := stream(20000, 1)
	record(t, dir, Options{SegmentBytes: 4096, TotalBytes: 16384}, in, 128)

	sess, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, s := range sess.Segments() {
		total += s.Bytes
	}
	if total > 16384+4096 { // budget plus at most one active-segment slack
		t.Fatalf("session holds %d bytes, budget 16384", total)
	}
	got := replayAll(t, dir)
	if len(got) == 0 {
		t.Fatal("retention emptied the session")
	}
	// The retained window is the newest suffix of the stream.
	tail := in[len(in)-len(got):]
	if !bytes.Equal(tuple.AppendWireBatch(nil, tail), tuple.AppendWireBatch(nil, got)) {
		t.Fatal("retained window is not the newest suffix")
	}
	first, last, ok := sess.Bounds()
	if !ok || last != in[len(in)-1].Time || first != tail[0].Time {
		t.Fatalf("bounds = %d..%d ok=%v", first, last, ok)
	}
}

// TestReopenContinuesSession reopens a recorded directory and appends more:
// replay sees both generations in order, and retention accounts for the
// pre-existing segments.
func TestReopenContinuesSession(t *testing.T) {
	dir := t.TempDir()
	gen1 := stream(500, 2)
	record(t, dir, Options{SegmentBytes: 2048}, gen1, 50)
	gen2 := make([]tuple.Tuple, 500)
	for i := range gen2 {
		gen2[i] = tuple.Tuple{Time: 1000 + int64(i)*2, Value: float64(i), Name: "cps"}
	}
	record(t, dir, Options{SegmentBytes: 2048}, gen2, 50)

	got := replayAll(t, dir)
	want := tuple.AppendWireBatch(nil, gen1)
	want = tuple.AppendWireBatch(want, gen2)
	if !bytes.Equal(want, tuple.AppendWireBatch(nil, got)) {
		t.Fatalf("reopened replay differs: %d tuples", len(got))
	}
}

// TestUnsealedActiveSegmentReplayable kills a session without Close (no
// seal footer, no index entry) and checks OpenSession scans it anyway.
func TestUnsealedActiveSegmentReplayable(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := stream(100, 5)
	if !lg.Append(in) {
		t.Fatal("append refused")
	}
	waitFor(t, lg.Drained)
	// Simulate a crash: flush what the OS has, but never seal. The bufio
	// layer is internal, so reach through the test seam of closing the
	// file via a fresh Open later; here we just flush by closing.
	lg.mu.Lock()
	lg.closed = true // stop the writer without sealing
	lg.mu.Unlock()
	lg.w.Flush() //nolint:errcheck // test reaches into the crashed writer
	lg.f.Close()

	got := replayAll(t, dir)
	if !bytes.Equal(tuple.AppendWireBatch(nil, in), tuple.AppendWireBatch(nil, got)) {
		t.Fatalf("crashed session replayed %d tuples, want %d", len(got), len(in))
	}

	// Unpark the writer goroutine left blocked on its kick channel by the
	// simulated crash; it sees closed, attempts the seal against the closed
	// file, and exits, keeping the suite leak-clean.
	select {
	case lg.kick <- struct{}{}:
	default:
	}
	<-lg.done
}

// TestQueueDropOldest wedges the writer (by pointing the log at a
// directory that exists but making the queue tiny and never letting the
// writer run ahead) and checks the bound drops oldest batches, counted.
func TestQueueDropOldest(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, Options{QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the writer goroutine deterministically: grab the mutex so it
	// cannot take batches, then overfill the queue.
	lg.mu.Lock()
	for i := 0; i < 6; i++ {
		batch := []tuple.Tuple{{Time: int64(i), Value: float64(i), Name: "x"}}
		// Append would deadlock under our lock, so push through the
		// real queue and count its drops the way Append does.
		if dropped, ok := lg.q.Push(batch, false); ok {
			lg.dropped.Add(int64(len(dropped)))
		}
		lg.appended.Add(1)
	}
	lg.mu.Unlock()
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	appended, dropped, written := lg.Stats()
	if appended != 6 || dropped != 4 || written != 2 {
		t.Fatalf("stats = %d/%d/%d, want 6/4/2", appended, dropped, written)
	}
	got := replayAll(t, dir)
	// The two newest batches survive the drop-oldest bound.
	if len(got) != 2 || got[0].Time != 4 || got[1].Time != 5 {
		t.Fatalf("survivors = %+v", got)
	}
}

// TestPacedReplayCadence replays a 100ms-spaced recording at ×2 through a
// fake sleeper and checks the pacing math asks for the recorded gaps
// divided by the speed.
func TestPacedReplayCadence(t *testing.T) {
	dir := t.TempDir()
	in := []tuple.Tuple{{Time: 0, Value: 1, Name: "s"}, {Time: 100, Value: 2, Name: "s"}, {Time: 200, Value: 3, Name: "s"}}
	record(t, dir, Options{}, in, 1)

	sess, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(sess)
	rep.SetSpeed(2)
	rep.SetBatch(1)
	var slept []time.Duration
	rep.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := rep.Run(func([]tuple.Tuple) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if rep.Delivered() != 3 {
		t.Fatalf("delivered %d", rep.Delivered())
	}
	// Targets are anchored to the first tuple: 100ms and 200ms of recorded
	// time at ×2 land at +50ms and +100ms of wall time. The fake sleeper
	// never advances the wall clock, so the asked-for delays are the full
	// anchored offsets (minus the tiny real callback time).
	if len(slept) != 2 {
		t.Fatalf("slept %d times: %v", len(slept), slept)
	}
	for i, want := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond} {
		if d := slept[i]; d <= want-20*time.Millisecond || d > want {
			t.Fatalf("pace sleep %d = %v, want ~%v", i, d, want)
		}
	}
}

// TestAppendAfterClose checks the closed log refuses appends.
func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg.Append(stream(1, 1))
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if lg.Append(stream(1, 1)) {
		t.Fatal("append accepted after Close")
	}
	if err := lg.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestOpenSessionEmptyDir rejects a directory with no segments.
func TestOpenSessionEmptyDir(t *testing.T) {
	if _, err := OpenSession(t.TempDir()); err == nil {
		t.Fatal("empty session opened")
	}
}

// TestIndexMatchesDisk checks the rewritten index agrees with a full scan
// (delete it, rescan, compare).
func TestIndexMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, Options{SegmentBytes: 2048}, stream(2000, 2), 100)
	withIndex, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	scanned, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := withIndex.Segments(), scanned.Segments()
	if len(a) != len(b) {
		t.Fatalf("index %d segments, scan %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("segment %d: index %+v, scan %+v", i, a[i], b[i])
		}
	}
}

// TestAppendEmptyAfterClose: the documented contract is that Append
// reports false once the log is closed — including for empty batches.
func TestAppendEmptyAfterClose(t *testing.T) {
	lg, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !lg.Append(nil) {
		t.Fatal("empty append on a live log refused")
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if lg.Append(nil) {
		t.Fatal("empty append accepted after Close")
	}
}

// TestReplaySurfacesTransportErrors: a segment that cannot be read past a
// point for transport reasons (here: a line over the scanner limit) must
// fail the replay rather than silently truncate it. A torn final line, by
// contrast, stays benign.
func TestReplaySurfacesTransportErrors(t *testing.T) {
	dir := t.TempDir()
	record(t, dir, Options{}, stream(10, 5), 10)
	// Corrupt the sealed segment mid-file with an unscannable line.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	huge := append([]byte("1 "), bytes.Repeat([]byte("9"), 2<<20)...)
	data = append(data, huge...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSession(dir); err == nil {
		t.Fatal("OpenSession scanned past a transport error silently")
	}
}

// TestFlushMakesLiveSessionReadable: Flush is the durability barrier the
// netscope hub's v2 backfill relies on — after it returns, a concurrent
// OpenSession on the still-recording directory sees every tuple appended
// before the call, even though the active segment is unsealed and the
// writer buffers.
func TestFlushMakesLiveSessionReadable(t *testing.T) {
	dir := t.TempDir()
	lg, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100 // ~1KB: well under the bufio buffer, invisible without Flush
	batch := make([]tuple.Tuple, n)
	for i := range batch {
		batch[i] = tuple.Tuple{Time: int64(i), Value: float64(i), Name: "s"}
	}
	lg.Append(batch)
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	sess, err := OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tuples() != n {
		t.Fatalf("live session shows %d tuples after Flush, want %d", sess.Tuples(), n)
	}
	// The log keeps recording after the barrier, and Flush on a closed
	// log degrades to waiting for the seal.
	lg.Append(batch)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	sess, err = OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Tuples() != 2*n {
		t.Fatalf("sealed session shows %d tuples, want %d", sess.Tuples(), 2*n)
	}
}
