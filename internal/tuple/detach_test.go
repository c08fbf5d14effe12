package tuple_test

// StreamDecoder hands out text lines as substrings of one string per
// 32 KiB block, so any name or field a consumer keeps must be detached
// from its block. These tests record every block the decoders convert
// (through the package's test hook, which also keeps the blocks alive so
// their memory cannot be reused) and check, by address range, that no
// kept string points into one — on every path that keeps names: the
// hub's publisher ingest (past the interner cap too), a Subscriber's
// tuples and control frames, the datagram receiver and StreamReader.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dgram"
	"repro/internal/glib"
	"repro/internal/netscope"
	"repro/internal/testutil"
	"repro/internal/tuple"
)

// blockRecorder collects the line blocks decoders convert.
type blockRecorder struct {
	mu     sync.Mutex
	blocks []string
}

func recordBlocks(t *testing.T) *blockRecorder {
	r := &blockRecorder{}
	t.Cleanup(tuple.SetBlockSink(func(b string) {
		r.mu.Lock()
		r.blocks = append(r.blocks, b)
		r.mu.Unlock()
	}))
	return r
}

// pinned reports whether s points into a recorded block.
func (r *blockRecorder) pinned(s string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, b := range r.blocks {
		lo := uintptr(unsafe.Pointer(unsafe.StringData(b)))
		if p >= lo && p < lo+uintptr(len(b)) {
			return true
		}
	}
	return false
}

// check fails if no block was decoded (the path under test never saw
// text) or if any kept string points into one.
func (r *blockRecorder) check(t *testing.T, kept []string) {
	t.Helper()
	r.mu.Lock()
	n := len(r.blocks)
	r.mu.Unlock()
	if n == 0 {
		t.Fatal("no text block was decoded")
	}
	for _, s := range kept {
		if r.pinned(s) {
			t.Fatalf("kept string %q points into a decode block", s)
		}
	}
}

// manyNames is a text stream of runs of a few signals followed by one
// tuple each of more distinct names than an interner canonicalizes, so
// the tail of the stream exercises the copy taken past the cap.
func manyNames() (stream []byte, tuples int) {
	for i := 0; i < 300; i++ {
		stream = fmt.Appendf(stream, "%d %d cwnd\n%d %d rtt\n", i, i, i, i)
	}
	for i := 0; i < tuple.MaxCanonicalNames+20; i++ {
		stream = fmt.Appendf(stream, "%d 1 sig%05d\n", 300+i, i)
	}
	return stream, 600 + tuple.MaxCanonicalNames + 20
}

func names(ts []tuple.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// TestDetachDecoderLines is the recorder's positive control: the lines
// Feed hands out do point into blocks, and CanonicalizeNames detaches
// the names parsed from them, past the cap included.
func TestDetachDecoderLines(t *testing.T) {
	rec := recordBlocks(t)
	stream, want := manyNames()
	var lines []string
	var ts []tuple.Tuple
	dec := tuple.NewStreamDecoder()
	err := dec.Feed(stream, func(ln string) {
		lines = append(lines, ln)
		tu, err := tuple.Parse(ln)
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tu)
	}, func([]tuple.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != want {
		t.Fatalf("decoded %d tuples, want %d", len(ts), want)
	}
	for _, ln := range lines {
		if !rec.pinned(ln) {
			t.Fatalf("line %q is not in a recorded block", ln)
		}
	}
	tuple.NewInterner().CanonicalizeNames(ts)
	rec.check(t, names(ts))
}

func TestDetachStreamReader(t *testing.T) {
	rec := recordBlocks(t)
	stream, want := manyNames()
	sr := tuple.NewStreamReader(bytes.NewReader(stream))
	var ts []tuple.Tuple
	for {
		tu, err := sr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, tu)
	}
	if len(ts) != want {
		t.Fatalf("read %d tuples, want %d", len(ts), want)
	}
	rec.check(t, names(ts))
}

// hubRig starts a hub with publisher and subscriber listeners on a
// virtual-clock loop the test pumps.
func hubRig(t *testing.T) (*glib.Loop, *netscope.Server, string, string) {
	t.Helper()
	loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(7000, 0)), glib.WithGranularity(0))
	srv := netscope.NewServer(loop)
	t.Cleanup(func() { srv.Close() })
	pub, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return loop, srv, pub.String(), sub.String()
}

func publish(t *testing.T, addr string, stream []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
}

func TestDetachHubIngest(t *testing.T) {
	rec := recordBlocks(t)
	loop, srv, pubAddr, _ := hubRig(t)
	var kept []string
	srv.OnTuple = func(tu tuple.Tuple) { kept = append(kept, tu.Name) }
	stream, want := manyNames()
	publish(t, pubAddr, stream)
	testutil.PumpUntil(t, "hub ingest", func() { loop.Iterate() }, func() bool { return len(kept) >= want })
	rec.check(t, kept)
}

func TestDetachSubscriber(t *testing.T) {
	rec := recordBlocks(t)
	loop, _, pubAddr, subAddr := hubRig(t)
	var kept []string
	got := 0
	sub, err := netscope.SubscribeToBatch(loop, subAddr, func(batch []tuple.Tuple) {
		got += len(batch)
		kept = append(kept, names(batch)...)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.OnControl(func(f tuple.ControlFrame) {
		kept = append(kept, f.Verb)
		kept = append(kept, f.Fields...)
	})
	testutil.PumpUntil(t, "subscriber handshake", func() { loop.Iterate() }, sub.Handshaken)
	stream, want := manyNames()
	publish(t, pubAddr, stream)
	testutil.PumpUntil(t, "subscriber delivery", func() { loop.Iterate() }, func() bool { return got >= want })
	rec.check(t, kept)
}

func TestDetachDatagramReceiver(t *testing.T) {
	rec := recordBlocks(t)
	var mu sync.Mutex
	var kept []string
	r, err := dgram.Listen("127.0.0.1:0", func(batch []tuple.Tuple) {
		mu.Lock()
		kept = append(kept, names(batch)...)
		mu.Unlock()
	}, dgram.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	conn, err := net.Dial("udp", r.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Text lines are a legal datagram payload (the §B1 fallback lane).
	// Datagrams carry whole lines: header, then at most ~16 KiB of them.
	stream, want := manyNames()
	for seq := byte(0); len(stream) > 0; seq++ {
		n := bytes.LastIndexByte(stream[:min(len(stream), 16<<10)], '\n') + 1
		pkt := append([]byte{dgram.Magic, dgram.Version, dgram.TypeData, 1, 1, seq}, stream[:n]...)
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		stream = stream[n:]
		testutil.WaitFor(t, "datagram release", func() bool {
			return r.Stats().Released > int64(seq)
		})
	}
	mu.Lock()
	defer mu.Unlock()
	if len(kept) != want {
		t.Fatalf("released %d tuples, want %d", len(kept), want)
	}
	rec.check(t, kept)
}

// TestStreamDecoderBlockAllocs: one Feed of a 64 KiB read of canonical
// lines costs one allocation per ≤32 KiB block, not one per line.
func TestStreamDecoderBlockAllocs(t *testing.T) {
	var chunk []byte
	for i := 0; len(chunk) < 64<<10-64; i++ {
		chunk = fmt.Appendf(chunk, "%d %d.25 net.flow%d.cwnd\n", 60000+2*i, 1000000+i, i%4)
	}
	dec := tuple.NewStreamDecoder()
	out := make([]tuple.Tuple, 0, 4096)
	line := func(ln string) {
		tu, err := tuple.Parse(ln)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tu)
	}
	batch := func([]tuple.Tuple) {}
	allocs := testing.AllocsPerRun(20, func() {
		out = out[:0]
		if err := dec.Feed(chunk, line, batch); err != nil {
			t.Fatal(err)
		}
	})
	if len(out) < 2000 {
		t.Fatalf("decoded %d lines", len(out))
	}
	if allocs > 3 {
		t.Fatalf("Feed of %d bytes (%d lines) allocated %.0f times, want ≤ 3", len(chunk), len(out), allocs)
	}
}
