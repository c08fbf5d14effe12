package tuple_test

// StreamDecoder parses text lines in place on the bytes it is fed, which
// every transport reuses for its next read. So every name and field a
// consumer keeps must be the decoder's own copy, never a view of the read
// buffer. These tests keep each string a path delivers next to a copy
// taken at delivery, push more traffic through the same buffer, and check
// that no kept string changed — on every path that keeps names: the
// decoder itself (text lines, DICT frames, past the name-table cap too),
// StreamReader, the hub's publisher ingest, a Subscriber's tuples and
// control frames, and the datagram receiver.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dgram"
	"repro/internal/glib"
	"repro/internal/netscope"
	"repro/internal/testutil"
	"repro/internal/tuple"
)

// keeper holds delivered strings next to copies taken on delivery.
type keeper struct {
	mu         sync.Mutex
	kept, want []string
}

func (k *keeper) add(ss ...string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, s := range ss {
		k.kept = append(k.kept, s)
		k.want = append(k.want, strings.Clone(s))
	}
}

func (k *keeper) addNames(ts []tuple.Tuple) {
	for _, t := range ts {
		k.add(t.Name)
	}
}

func (k *keeper) len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.kept)
}

// check fails unless exactly n strings were kept, each still reading as
// it did when it was delivered.
func (k *keeper) check(t *testing.T, n int) {
	t.Helper()
	if got := k.len(); got != n {
		t.Fatalf("kept %d strings, want %d", got, n)
	}
	k.unchanged(t)
}

// unchanged fails if any kept string no longer reads as it did when it
// was delivered.
func (k *keeper) unchanged(t *testing.T) {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	for i := range k.kept {
		if k.kept[i] != k.want[i] {
			t.Fatalf("kept string %d changed from %q to %q after its buffer was reused", i, k.want[i], k.kept[i])
		}
	}
}

// manyNames is a text stream of runs of a few signals followed by one
// tuple each of more distinct names than a name table holds, so the tail
// of the stream exercises the copy taken past the cap.
func manyNames() (stream []byte, tuples int) {
	for i := 0; i < 300; i++ {
		stream = fmt.Appendf(stream, "%d %d cwnd\n%d %d rtt\n", i, i, i, i)
	}
	for i := 0; i < tuple.MaxCanonicalNames+20; i++ {
		stream = fmt.Appendf(stream, "%d 1 sig%05d\n", 300+i, i)
	}
	return stream, 600 + tuple.MaxCanonicalNames + 20
}

// overwrite is traffic of the same shape with every name changed, fed
// four times over so it rewrites every byte of a reused read buffer.
func overwrite() (stream []byte, tuples int) {
	s, n := manyNames()
	return bytes.Repeat(bytes.ToUpper(s), 4), 4 * n
}

// scribble overwrites b in place with bytes no kept name contains.
func scribble(b []byte) {
	for i := range b {
		b[i] = '~'
	}
}

// TestDetachDecoderLines feeds text, a comment and binary frames, split so
// lines are carried across reads, then overwrites everything fed.
func TestDetachDecoderLines(t *testing.T) {
	text, want := manyNames()
	enc := tuple.NewBinaryEncoder()
	stream := append(bytes.Clone(text), "# a comment\n"...)
	stream = enc.AppendBatch(stream, []tuple.Tuple{{Time: 1, Value: 2, Name: "dict.a"}, {Time: 2, Value: 3, Name: "dict.b"}})
	want += 2
	var k keeper
	dec := tuple.NewStreamDecoder()
	line := func(ln string) { k.add(ln) }
	for off := 0; off < len(stream); off += 4000 {
		chunk := bytes.Clone(stream[off:min(off+4000, len(stream))])
		if err := dec.Feed(chunk, line, k.addNames); err != nil {
			t.Fatal(err)
		}
		scribble(chunk)
	}
	dec.Tail(line, k.addNames)
	k.check(t, want+1)
}

// scribbleReader serves a stream and overwrites the caller's buffer from
// its previous Read before serving the next one.
type scribbleReader struct {
	r    io.Reader
	last []byte
}

func (s *scribbleReader) Read(p []byte) (int, error) {
	scribble(s.last)
	n, err := s.r.Read(p)
	s.last = p[:n]
	return n, err
}

func TestDetachStreamReader(t *testing.T) {
	stream, want := manyNames()
	src := &scribbleReader{r: bytes.NewReader(stream)}
	sr := tuple.NewStreamReader(src)
	var k keeper
	for {
		tu, err := sr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		k.add(tu.Name)
	}
	scribble(src.last)
	k.check(t, want)
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

// publishTwice writes stream, pumps until delivered reaches first, then
// writes over on the same connection and pumps until it reaches total.
func publishTwice(t *testing.T, loop *glib.Loop, addr string, delivered func() int, first, total int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	stream, _ := manyNames()
	over, _ := overwrite()
	for _, step := range []struct {
		b    []byte
		upTo int
	}{{stream, first}, {over, total}} {
		if _, err := conn.Write(step.b); err != nil {
			t.Fatal(err)
		}
		testutil.PumpUntil(t, "delivery", func() { loop.Iterate() }, func() bool { return delivered() >= step.upTo })
	}
}

func TestDetachHubIngest(t *testing.T) {
	loop, srv, pubAddr, _ := hubRig(t)
	var k keeper
	srv.OnTuple = func(tu tuple.Tuple) { k.add(tu.Name) }
	_, want := manyNames()
	_, more := overwrite()
	publishTwice(t, loop, pubAddr, k.len, want, want+more)
	k.check(t, want+more)
}

func TestDetachSubscriber(t *testing.T) {
	loop, _, pubAddr, subAddr := hubRig(t)
	var k, ctl keeper
	sub, err := netscope.SubscribeToBatch(loop, subAddr, k.addNames)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.OnControl(func(f tuple.ControlFrame) {
		ctl.add(f.Verb)
		ctl.add(f.Fields...)
	})
	testutil.PumpUntil(t, "subscriber handshake", func() { loop.Iterate() }, sub.Handshaken)
	_, want := manyNames()
	_, more := overwrite()
	publishTwice(t, loop, pubAddr, k.len, want, want+more)
	k.check(t, want+more)
	if ctl.len() == 0 {
		t.Fatal("no control frame was delivered")
	}
	ctl.unchanged(t)
}

func TestDetachDatagramReceiver(t *testing.T) {
	var k keeper
	r, err := dgram.Listen("127.0.0.1:0", k.addNames, dgram.Options{})
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
	over, more := overwrite()
	stream = append(stream, over...)
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
	k.check(t, want+more)
}

// TestStreamDecoderBlockAllocs: once its name table is warm, a decoder
// parses a 64 KiB read of canonical tuple lines without allocating.
func TestStreamDecoderBlockAllocs(t *testing.T) {
	var chunk []byte
	for i := 0; len(chunk) < 64<<10-64; i++ {
		chunk = fmt.Appendf(chunk, "%d %d.25 net.flow%d.cwnd\n", 60000+2*i, 1000000+i, i%4)
	}
	dec := tuple.NewStreamDecoder()
	n := 0
	line := func(ln string) { t.Fatalf("line %q is not a tuple", ln) }
	batch := func(ts []tuple.Tuple) { n += len(ts) }
	allocs := testing.AllocsPerRun(20, func() {
		n = 0
		if err := dec.Feed(chunk, line, batch); err != nil {
			t.Fatal(err)
		}
	})
	if n < 2000 {
		t.Fatalf("decoded %d tuples", n)
	}
	if allocs != 0 {
		t.Fatalf("Feed of %d bytes (%d tuples) allocated %.0f times, want 0", len(chunk), n, allocs)
	}
}
