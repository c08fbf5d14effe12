package netscope

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
	"repro/internal/testutil"
	"repro/internal/tuple"
)

// hubRig is rig plus a subscriber listener.
func hubRig(t *testing.T) (*glib.Loop, *Server, string, string) {
	t.Helper()
	loop, _, srv, pubAddr := rig(t)
	subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return loop, srv, pubAddr, subAddr.String()
}

// collector drains a subscriber connection with a plain tuple.Reader from
// its own goroutine, the way an external viewer process would.
type collector struct {
	mu  sync.Mutex
	got []tuple.Tuple
	err error
}

func collect(t *testing.T, addr string) (*collector, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	go func() {
		r := tuple.NewReader(conn, false)
		for {
			tu, err := r.Read()
			if err != nil {
				c.mu.Lock()
				c.err = err
				c.mu.Unlock()
				return
			}
			c.mu.Lock()
			c.got = append(c.got, tu)
			c.mu.Unlock()
		}
	}()
	return c, conn
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func (c *collector) tuples() []tuple.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]tuple.Tuple, len(c.got))
	copy(out, c.got)
	return out
}

// TestHubFanOut is the acceptance scenario: three publishers feed the hub,
// three subscribers consume it — two healthy external viewers and one
// deliberately stalled in-process viewer on a net.Pipe (which has no
// buffering, so the hub's write blocks immediately). Both healthy viewers
// must converge on the identical merged stream while the stalled one loses
// data to drop-oldest, and nothing leaks.
func TestHubFanOut(t *testing.T) {
	base := runtime.NumGoroutine()

	loop, srv, pubAddr, subAddr := hubRig(t)
	srv.SetSubscriberQueueLimit(16)

	subA, connA := collect(t, subAddr)
	subB, connB := collect(t, subAddr)
	defer connA.Close()
	defer connB.Close()
	pump(t, loop, func() bool { return srv.Subscribers() == 2 })

	// The stalled viewer: one end of an unbuffered pipe that is never read.
	stalledHub, stalledViewer := net.Pipe()
	defer stalledViewer.Close()
	srv.Subscribe(stalledHub)
	if srv.Subscribers() != 3 {
		t.Fatalf("subscribers = %d, want 3", srv.Subscribers())
	}

	const perPub, pubs = 200, 3
	var clients []*Client
	for i := 0; i < pubs; i++ {
		c, err := Dial(pubAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	for i, c := range clients {
		for j := 0; j < perPub; j++ {
			if err := c.Send(time.Duration(j)*time.Millisecond, fmt.Sprintf("p%d", i), float64(j)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	const total = perPub * pubs
	// Both healthy subscribers converge on the full merged stream even
	// though the third subscriber has been wedged the whole time.
	pump(t, loop, func() bool { return subA.count() >= total && subB.count() >= total })

	gotA, gotB := subA.tuples(), subB.tuples()
	if len(gotA) != total || len(gotB) != total {
		t.Fatalf("counts: A=%d B=%d, want %d each", len(gotA), len(gotB), total)
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Fatalf("streams diverge at %d: A=%v B=%v", i, gotA[i], gotB[i])
		}
	}
	// Each publisher's tuples arrive as an in-order subsequence.
	next := make(map[string]int64)
	for _, tu := range gotA {
		if tu.Value != float64(next[tu.Name]) {
			t.Fatalf("%s out of order: got value %v, want %d", tu.Name, tu.Value, next[tu.Name])
		}
		next[tu.Name]++
	}
	for i := 0; i < pubs; i++ {
		if next[fmt.Sprintf("p%d", i)] != perPub {
			t.Fatalf("p%d delivered %d tuples, want %d", i, next[fmt.Sprintf("p%d", i)], perPub)
		}
	}

	// The stalled subscriber hit the drop-oldest policy. Batching means
	// the 600 publisher tuples may have arrived in fewer chunks than the
	// queue bound, so push the wedged queue past it deterministically:
	// each Inject broadcasts one chunk and the pipe never drains any.
	_, _, published, _ := srv.SubscriberStats()
	if published != total {
		t.Fatalf("published = %d, want %d", published, total)
	}
	for j := 0; j < 3*16; j++ {
		srv.Inject(tuple.Tuple{Time: int64(10000 + j), Value: float64(j), Name: "extra"})
	}
	_, _, _, dropped := srv.SubscriberStats()
	if dropped == 0 {
		t.Fatal("stalled subscriber should have dropped chunks")
	}
	// The healthy subscribers drain their queues (their writers keep
	// running); the wedged queue remains, capped by the limit. If the
	// bound leaked, the backlog would stay above it and pump would fail.
	pump(t, loop, func() bool { return srv.SubscriberBacklog() <= 16 })

	// Teardown releases every goroutine: publishers, hub watches, the
	// wedged pipe writer, and the collectors (EOF on hub close).
	for _, c := range clients {
		c.Close()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		loop.Iterate()
		time.Sleep(time.Millisecond)
	}
}

func TestHubSnapshotOnConnect(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)

	for i := 0; i < 5; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i * 100), Value: float64(i), Name: "s"})
	}
	sub, conn := collect(t, subAddr)
	defer conn.Close()
	pump(t, loop, func() bool { return sub.count() >= 5 })

	// Live delta after the snapshot.
	srv.Inject(tuple.Tuple{Time: 600, Value: 99, Name: "s"})
	pump(t, loop, func() bool { return sub.count() >= 6 })
	got := sub.tuples()
	for i := 0; i < 5; i++ {
		if got[i].Value != float64(i) {
			t.Fatalf("snapshot tuple %d = %v", i, got[i])
		}
	}
	if got[5].Value != 99 {
		t.Fatalf("delta = %v", got[5])
	}
}

func TestHubSnapshotFraming(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "s"})

	conn, err := net.Dial("tcp", subAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		r := make([]byte, 1)
		var line []byte
		for {
			if _, err := conn.Read(r); err != nil {
				return
			}
			if r[0] == '\n' {
				lines <- string(line)
				line = nil
				continue
			}
			line = append(line, r[0])
		}
	}()
	read := func() string {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case l := <-lines:
				return l
			case <-deadline:
				t.Fatal("no line")
			default:
				loop.Iterate()
				time.Sleep(time.Millisecond)
			}
		}
	}
	want := []string{
		"# gscope-hub 1",
		"# snapshot tuples=1 window-ms=5000",
		"10 1 s",
		"# snapshot-end",
	}
	for i, w := range want {
		if got := read(); got != w {
			t.Fatalf("line %d = %q, want %q", i, got, w)
		}
	}
	srv.Inject(tuple.Tuple{Time: 20, Value: 2, Name: "s"})
	if got := read(); got != "20 2 s" {
		t.Fatalf("delta line = %q", got)
	}
}

func TestHubSnapshotWindowPrune(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(time.Second)
	// 0..6000ms in 500ms steps; only tuples within 1s of the newest
	// (t=5000..6000) survive in the snapshot.
	for ms := int64(0); ms <= 6000; ms += 500 {
		srv.Inject(tuple.Tuple{Time: ms, Value: 1, Name: "s"})
	}
	var got []tuple.Tuple
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) { got = append(got, tu) })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return sub.Snapshot() >= 3 })
	if !sub.Handshaken() {
		t.Fatal("no handshake seen")
	}
	if sub.Snapshot() != 3 || len(got) != 3 {
		t.Fatalf("snapshot = %d tuples (%d delivered), want 3", sub.Snapshot(), len(got))
	}
	if got[0].Time != 5000 || got[2].Time != 6000 {
		t.Fatalf("window wrong: %v", got)
	}
}

func TestHubSnapshotWindowZeroDisablesHistory(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(0)
	for i := 0; i < 5; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i * 100), Value: float64(i), Name: "s"})
	}
	var got []tuple.Tuple
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) { got = append(got, tu) })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return sub.Handshaken() })
	// Handshake arrives but carries no history; live deltas still flow.
	srv.Inject(tuple.Tuple{Time: 600, Value: 42, Name: "s"})
	pump(t, loop, func() bool { return len(got) >= 1 })
	if sub.Snapshot() != 0 {
		t.Fatalf("snapshot = %d, want 0", sub.Snapshot())
	}
	if len(got) != 1 || got[0].Value != 42 {
		t.Fatalf("deltas = %v", got)
	}
}

func TestSubscribeToDeliversOnLoop(t *testing.T) {
	loop, srv, pubAddr, subAddr := hubRig(t)
	var got []tuple.Tuple
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) { got = append(got, tu) })
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return srv.Subscribers() == 1 })

	c, err := Dial(pubAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.Send(time.Duration(i)*time.Millisecond, "remote", float64(i)) //nolint:errcheck
	}
	c.Flush() //nolint:errcheck
	pump(t, loop, func() bool { return len(got) >= 3 })
	recvd, perrs := sub.Stats()
	if recvd != 3 || perrs != 0 {
		t.Fatalf("stats = %d received %d parse errors", recvd, perrs)
	}
	if sub.Snapshot() != 0 {
		t.Fatalf("snapshot = %d, want 0 (connected before data)", sub.Snapshot())
	}
}

// TestHubChaining relays one hub into another: publishers → hub A →
// (Subscriber→Inject bridge) → hub B → viewer, the chained-relay topology
// cmd/gscoped exposes with -upstream.
func TestHubChaining(t *testing.T) {
	loop, srvA, pubAddr, subAddrA := hubRig(t)
	_ = srvA
	srvB := NewServer(loop)
	subAddrB, err := srvB.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })

	bridge, err := SubscribeTo(loop, subAddrA, srvB.Inject)
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	viewer, conn := collect(t, subAddrB.String())
	defer conn.Close()
	pump(t, loop, func() bool { return srvB.Subscribers() == 1 })

	c, err := Dial(pubAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Send(time.Duration(i)*time.Millisecond, "remote", float64(i)) //nolint:errcheck
	}
	c.Flush() //nolint:errcheck
	pump(t, loop, func() bool { return viewer.count() >= 5 })
	for i, tu := range viewer.tuples() {
		if tu.Value != float64(i) {
			t.Fatalf("chained tuple %d = %v", i, tu)
		}
	}
}

func TestSubscriberDisconnectCleansUp(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	_, conn := collect(t, subAddr)
	pump(t, loop, func() bool { return srv.Subscribers() == 1 })
	conn.Close()
	pump(t, loop, func() bool { return srv.Subscribers() == 0 })
	subs, unsubs, _, _ := srv.SubscriberStats()
	if subs != 1 || unsubs != 1 {
		t.Fatalf("stats: subscribes=%d unsubscribes=%d", subs, unsubs)
	}
}

func TestClientReconnectSurvivesHubRestart(t *testing.T) {
	loop, _, srv, addr := rig(t)
	c := DialReconnect(addr)
	defer c.Close()
	c.Send(10*time.Millisecond, "remote", 1) //nolint:errcheck
	pump(t, loop, func() bool {
		_, _, recv, _ := srv.Stats()
		return recv >= 1
	})

	// Restart the hub on the same port.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(loop)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })

	// Sends issued during/after the outage arrive once the client has
	// reconnected with backoff.
	testutil.WaitUntil(t, "client to reconnect", 10*time.Second, func() bool {
		c.Send(20*time.Millisecond, "remote", 2) //nolint:errcheck
		loop.Iterate()
		_, _, recv, _ := srv2.Stats()
		return recv >= 1
	})
	if c.Reconnects() < 2 {
		t.Fatalf("reconnects = %d, want >= 2", c.Reconnects())
	}
}

func TestReconnectClientStartsBeforeServer(t *testing.T) {
	// Reserve an address, then free it so nothing is listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := DialReconnect(addr)
	defer c.Close()
	c.Send(5*time.Millisecond, "remote", 7) //nolint:errcheck

	vc := glib.NewVirtualClock(time.Unix(7000, 0))
	loop := glib.NewLoop(vc, glib.WithGranularity(0))
	srv := NewServer(loop)
	if _, err := srv.Listen(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pump(t, loop, func() bool {
		_, _, recv, _ := srv.Stats()
		return recv >= 1
	})
	if c.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", c.Reconnects())
	}
}

func TestReconnectQueueBoundDropOldest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := DialReconnect(addr)
	c.SetQueueLimit(10)
	for i := 0; i < 25; i++ {
		c.Send(time.Duration(i)*time.Millisecond, "x", float64(i)) //nolint:errcheck
	}
	if c.Dropped() != 15 {
		t.Fatalf("dropped = %d, want 15", c.Dropped())
	}
	if err := c.Close(); err == nil {
		t.Fatal("close with undeliverable queue should report the flush timeout")
	}
}

func TestSubscribeToBatchReceivesBatches(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(0)

	var batches [][]tuple.Tuple
	var total int
	sub, err := SubscribeToBatch(loop, subAddr, func(batch []tuple.Tuple) {
		cp := make([]tuple.Tuple, len(batch))
		copy(cp, batch)
		batches = append(batches, cp)
		total += len(batch)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return srv.Subscribers() == 1 })

	// One InjectBatch becomes one broadcast chunk; the subscriber should
	// see the whole thing in (at most a few) batch callbacks rather than
	// one per tuple.
	in := make([]tuple.Tuple, 64)
	for i := range in {
		in[i] = tuple.Tuple{Time: int64(i), Value: float64(i), Name: "b"}
	}
	srv.InjectBatch(in)
	pump(t, loop, func() bool { return total == len(in) })
	if len(batches) > 4 {
		t.Fatalf("64 tuples arrived in %d callbacks; batching lost", len(batches))
	}
	seq := 0
	for _, b := range batches {
		for _, tu := range b {
			if tu.Value != float64(seq) {
				t.Fatalf("out of order at %d: %+v", seq, tu)
			}
			seq++
		}
	}
}

func TestInjectBatchFeedsScopesAndHistory(t *testing.T) {
	loop, srv, _, _ := hubRig(t)
	sc := core.New(loop, "attached", 100, 50)
	if _, err := sc.AddSignal(core.Sig{Name: "b", Kind: core.KindBuffer}); err != nil {
		t.Fatal(err)
	}
	srv.Attach(sc)
	in := make([]tuple.Tuple, 32)
	for i := range in {
		in[i] = tuple.Tuple{Time: int64((i + 1) * 10), Value: float64(i), Name: "b"}
	}
	srv.InjectBatch(in)
	if sc.Feed().Pending() != len(in) {
		t.Fatalf("feed pending = %d", sc.Feed().Pending())
	}
	if _, _, received, _ := srv.Stats(); received != int64(len(in)) {
		t.Fatalf("received = %d", received)
	}
}

// TestHubRetainNonMonotonicStamps is the regression test for snapshot
// retention under skewed publisher clocks: retain used to anchor the
// pruning window to the incoming tuple's own timestamp, so one
// stale-stamped tuple both entered the snapshot history (though already
// outside the window) and stalled pruning. The window must be anchored to
// a running max of the stamps seen.
func TestHubRetainNonMonotonicStamps(t *testing.T) {
	_, srv, _, _ := hubRig(t)
	srv.SetSnapshotWindow(time.Second)
	for ms := int64(0); ms <= 6000; ms += 100 {
		srv.Inject(tuple.Tuple{Time: ms, Value: 1, Name: "fresh"})
	}
	// A publisher with a clock 6s behind interleaves stale tuples with
	// the live stream.
	for i := 0; i < 50; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i), Value: 2, Name: "stale"})
		srv.Inject(tuple.Tuple{Time: 6000 + int64(i), Value: 1, Name: "fresh"})
	}
	win := int64(1000)
	newest := int64(6000 + 49)
	for i, tu := range srv.hub.history {
		if newest-tu.Time > win {
			t.Fatalf("history[%d] = %+v is outside the %dms window of newest %d",
				i, tu, win, newest)
		}
		if tu.Name == "stale" {
			t.Fatalf("history[%d] retained a stale-stamped tuple: %+v", i, tu)
		}
	}
	// 10 fresh tuples from the ramp (5100..6000) plus the 50 interleaved
	// live ones — and none of the 50 stale ones.
	if n := len(srv.hub.history); n != 60 {
		t.Fatalf("history holds %d tuples, want 60", n)
	}
}

// TestHubRetainZeroAlloc: the snapshot history lives in one backing
// array sized when the hub is set up, so retaining allocates nothing, and
// the window keeps its tuples in order across the slides to the front.
func TestHubRetainZeroAlloc(t *testing.T) {
	_, srv, _, _ := hubRig(t)
	limit := srv.hub.histLimit
	ms := int64(0)
	// Each run retains several windows' worth, so an allocation amortized
	// over many tuples still counts.
	sweep := func() {
		for i := 0; i < 5*limit; i++ {
			srv.retain(tuple.Tuple{Time: ms, Value: float64(ms), Name: "s"})
			ms++
		}
	}
	if n := testing.AllocsPerRun(3, sweep); n != 0 {
		t.Fatalf("retaining %d tuples allocates %.0f times", 5*limit, n)
	}
	h := srv.hub.history
	if len(h) != limit {
		t.Fatalf("history holds %d tuples, want the %d-tuple limit", len(h), limit)
	}
	for i, tu := range h {
		if want := ms - int64(limit) + int64(i); tu.Time != want || tu.Value != float64(want) {
			t.Fatalf("history[%d] = %+v, want time %d", i, tu, want)
		}
	}
	if !srv.historyCovers(ms-int64(limit)) || srv.historyCovers(ms-int64(limit)-1) {
		t.Fatalf("historyCovers disagrees with the retained window")
	}
}

// TestTextChunkExactlySized: a text chunk is one allocation at its final
// size — a batch exactly, a lone tuple within its line bound — and its
// bytes are the plain wire encoding.
func TestTextChunkExactlySized(t *testing.T) {
	var h hubState
	batch := []tuple.Tuple{
		{Time: 1700000000123, Value: 0.25, Name: "cpu"},
		{Time: 1700000000124, Value: -3, Name: "cpu"},
		{Time: 1700000000125, Value: 1.0 / 3, Name: "net rx"},
	}
	for _, ts := range [][]tuple.Tuple{batch, batch[2:], {{Time: -1 << 63, Value: -2.2250738585072014e-308, Name: "x"}}} {
		got := h.textChunk(ts)
		if want := tuple.AppendWireBatch(nil, ts); !bytes.Equal(got, want) {
			t.Errorf("textChunk = %q, want %q", got, want)
		}
		if len(ts) > 1 && cap(got) != len(got) {
			t.Errorf("%d-tuple chunk of %d bytes has capacity %d", len(ts), len(got), cap(got))
		}
		if n := testing.AllocsPerRun(100, func() { h.textChunk(ts) }); n != 1 {
			t.Errorf("%d-tuple chunk costs %.1f allocations, want 1", len(ts), n)
		}
	}
	// Sanitizing can lengthen a name (each invalid byte becomes a 3-byte
	// U+FFFD), so a lone tuple's bound comes from the cleaned name.
	lone := tuple.Tuple{Time: 1, Value: 2, Name: "x\n" + strings.Repeat("\xff", 40)}
	got := h.textChunk([]tuple.Tuple{lone})
	if want := tuple.AppendWire(nil, lone); !bytes.Equal(got, want) {
		t.Errorf("textChunk = %q, want %q", got, want)
	}
	if bound := maxWireLine + len(tuple.CleanName(lone.Name)); cap(got) > bound {
		t.Errorf("sanitized lone tuple's chunk regrew to capacity %d, bound %d", cap(got), bound)
	}
}

// TestHubRetainFutureStampEvictsOnce: a single future-stamped tuple snaps
// the window forward (that is inherent to max-anchored retention), but the
// stream must recover — once live stamps catch up to the bogus max, the
// snapshot window fills again instead of staying empty or growing without
// bound.
func TestHubRetainFutureStampRecovery(t *testing.T) {
	_, srv, _, _ := hubRig(t)
	srv.SetSnapshotWindow(time.Second)
	for ms := int64(0); ms <= 2000; ms += 100 {
		srv.Inject(tuple.Tuple{Time: ms, Value: 1, Name: "s"})
	}
	srv.Inject(tuple.Tuple{Time: 100000, Value: 9, Name: "future"})
	// Live stamps eventually pass the bogus max; the window re-fills.
	for ms := int64(99500); ms <= 101000; ms += 100 {
		srv.Inject(tuple.Tuple{Time: ms, Value: 1, Name: "s"})
	}
	// Completeness: every tuple stamped within the window of the final
	// max is in the snapshot history. (A few tuples that were in-window
	// on arrival may linger behind a newer-stamped front entry — the
	// prefix prune cannot reach them — so the history may run slightly
	// ahead of the strict window, bounded by the hard size cap.)
	inWindow := make(map[int64]bool)
	for _, tu := range srv.hub.history {
		inWindow[tu.Time] = true
	}
	for ms := int64(100000); ms <= 101000; ms += 100 {
		if !inWindow[ms] {
			t.Fatalf("tuple at %dms missing from the recovered window", ms)
		}
	}
	if n := len(srv.hub.history); n == 0 || n > 20 {
		t.Fatalf("history holds %d tuples after recovery, want ~11-17", n)
	}
}
