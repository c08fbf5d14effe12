package netscope

import (
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
	"repro/internal/testutil"
	"repro/internal/tuple"
)

// Every client writer, watch reader, and hub writer in this package
// promises to exit on Close; a leak fails the whole suite.
func TestMain(m *testing.M) {
	testutil.VerifyTestMain(m)
}

// rig assembles a virtual-clock loop, a scope with a BUFFER signal, and a
// listening server.
func rig(t *testing.T) (*glib.Loop, *core.Scope, *Server, string) {
	t.Helper()
	vc := glib.NewVirtualClock(time.Unix(7000, 0))
	loop := glib.NewLoop(vc, glib.WithGranularity(0))
	sc := core.New(loop, "server-scope", 200, 100)
	if _, err := sc.AddSignal(core.Sig{Name: "remote", Kind: core.KindBuffer}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(loop)
	srv.Attach(sc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return loop, sc, srv, addr.String()
}

// pump iterates the loop until cond is true or the deadline passes.
func pump(t *testing.T, loop *glib.Loop, cond func() bool) {
	t.Helper()
	testutil.PumpUntil(t, "netscope condition", func() { loop.Iterate() }, cond)
}

func TestClientServerDelivery(t *testing.T) {
	loop, sc, srv, addr := rig(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 1; i <= 5; i++ {
		if err := c.Send(time.Duration(i*10)*time.Millisecond, "remote", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool {
		_, _, recv, _ := srv.Stats()
		return recv >= 5
	})
	if sc.Feed().Pending() != 5 {
		t.Fatalf("feed pending = %d", sc.Feed().Pending())
	}
	if c.Sent() != 5 {
		t.Fatalf("client sent = %d", c.Sent())
	}
}

func TestEndToEndScopeDisplay(t *testing.T) {
	loop, sc, srv, addr := rig(t)
	_ = srv
	sc.SetPollingMode(50 * time.Millisecond) //nolint:errcheck
	if err := sc.StartPolling(); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Send(20*time.Millisecond, "remote", 7) //nolint:errcheck
	c.Flush()                                //nolint:errcheck
	pump(t, loop, func() bool { return sc.Feed().Pending() > 0 })

	// Advance virtual time so the scope polls and drains the feed.
	loop.Advance(200 * time.Millisecond)
	sig := sc.Signal("remote")
	if v, ok := sig.Trace().Last(); !ok || v != 7 {
		t.Fatalf("displayed = %v ok=%v, want 7", v, ok)
	}
}

func TestMultipleClients(t *testing.T) {
	loop, _, srv, addr := rig(t)
	var clients []*Client
	for i := 0; i < 3; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients = append(clients, c)
	}
	for i, c := range clients {
		c.Send(time.Duration(i)*time.Millisecond, "remote", float64(i)) //nolint:errcheck
		c.Flush()                                                       //nolint:errcheck
	}
	pump(t, loop, func() bool {
		_, _, recv, _ := srv.Stats()
		return recv >= 3
	})
	pump(t, loop, func() bool { return srv.Clients() == 3 })
	conn, _, _, _ := srv.Stats()
	if conn != 3 {
		t.Fatalf("connects = %d", conn)
	}
}

func TestServerIgnoresGarbageLines(t *testing.T) {
	loop, _, srv, addr := rig(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Send raw garbage followed by a valid tuple using the tuple type.
	c.SendTuple(tuple.Tuple{Time: 10, Value: 1, Name: "remote"}) //nolint:errcheck
	c.Flush()                                                    //nolint:errcheck
	// Write garbage directly through a second client connection.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.conn.Write([]byte("not a tuple\n# comment\n20 2 remote\n")) //nolint:errcheck

	pump(t, loop, func() bool {
		_, _, recv, _ := srv.Stats()
		return recv >= 2
	})
	_, _, _, parseErrs := srv.Stats()
	if parseErrs != 1 {
		t.Fatalf("parseErrors = %d, want 1", parseErrs)
	}
}

func TestServerOnTupleHookAndRecorder(t *testing.T) {
	loop, _, srv, addr := rig(t)
	var hooked []tuple.Tuple
	srv.OnTuple = func(tu tuple.Tuple) { hooked = append(hooked, tu) }

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send(5*time.Millisecond, "remote", 3) //nolint:errcheck
	c.Flush()                               //nolint:errcheck
	pump(t, loop, func() bool { return len(hooked) >= 1 })
	if hooked[0].Value != 3 || hooked[0].Name != "remote" {
		t.Fatalf("hooked %+v", hooked[0])
	}
}

func TestClientDisconnectCounted(t *testing.T) {
	loop, _, srv, addr := rig(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { return srv.Clients() == 1 })
	c.Close()
	pump(t, loop, func() bool {
		_, disc, _, _ := srv.Stats()
		return disc == 1 && srv.Clients() == 0
	})
}

// publishUnterminated writes a publisher stream whose last line has no
// newline, waits until the hub has ingested the line before it, closes
// the connection (abortively with reset), and returns every tuple the
// hub delivered once it has counted the disconnect.
func publishUnterminated(t *testing.T, reset bool) []tuple.Tuple {
	t.Helper()
	loop, _, srv, addr := rig(t)
	var got []tuple.Tuple
	srv.OnTuple = func(tu tuple.Tuple) { got = append(got, tu) }
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("10 1 remote\n20 4")); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { return len(got) == 1 })
	if reset {
		if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	pump(t, loop, func() bool {
		_, disc, _, _ := srv.Stats()
		return disc == 1
	})
	return got
}

// TestPublisherResetDropsTornLine: after a connection reset the carried
// unterminated line may be torn mid-write, so the hub must not ingest it.
func TestPublisherResetDropsTornLine(t *testing.T) {
	got := publishUnterminated(t, true)
	for _, tu := range got {
		if tu.Time == 20 {
			t.Fatalf("ingested torn line as %+v after a reset", tu)
		}
	}
}

// TestPublisherCloseDeliversLastLine: on a clean close an unterminated
// last line is still a line.
func TestPublisherCloseDeliversLastLine(t *testing.T) {
	got := publishUnterminated(t, false)
	want := []tuple.Tuple{{Time: 10, Value: 1, Name: "remote"}, {Time: 20, Value: 4}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to a closed port should fail")
	}
}

func TestClientSendAfterClose(t *testing.T) {
	_, _, _, addr := rig(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Send(0, "x", 1); err == nil {
		t.Fatal("send after close should fail")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, _, srv, _ := rig(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

func TestLateDataDroppedAtServer(t *testing.T) {
	// §4.4: data arriving after its display window is dropped immediately.
	loop, sc, srv, addr := rig(t)
	sc.SetPollingMode(50 * time.Millisecond) //nolint:errcheck
	sc.StartPolling()                        //nolint:errcheck
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Display window advances to ~t-0 with zero delay after polling 200ms.
	loop.Advance(200 * time.Millisecond)
	c.Send(10*time.Millisecond, "remote", 9) //nolint:errcheck  (stale timestamp)
	c.Flush()                                //nolint:errcheck
	pump(t, loop, func() bool {
		_, _, recv, _ := srv.Stats()
		return recv >= 1
	})
	_, dropped := sc.Feed().Stats()
	if dropped != 1 {
		t.Fatalf("late sample not dropped (dropped=%d)", dropped)
	}
}

func TestMapTimeRebasesStamps(t *testing.T) {
	loop, sc, srv, addr := rig(t)
	// Clients stamp with a "shared clock" offset 1 hour ahead of the
	// scope's timeline; MapTime subtracts the offset.
	offset := time.Hour
	srv.MapTime = func(at time.Duration) time.Duration { return at - offset }
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send(offset+30*time.Millisecond, "remote", 5) //nolint:errcheck
	c.Flush()                                       //nolint:errcheck
	pump(t, loop, func() bool { return sc.Feed().Pending() > 0 })
	sc.SetPollingMode(50 * time.Millisecond) //nolint:errcheck
	sc.StartPolling()                        //nolint:errcheck
	loop.Advance(200 * time.Millisecond)
	sig := sc.Signal("remote")
	if v, ok := sig.Trace().Last(); !ok || v != 5 {
		t.Fatalf("rebased sample not displayed: %v %v", v, ok)
	}
}

func TestClientSendBatchDelivery(t *testing.T) {
	loop, sc, srv, addr := rig(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	batch := make([]tuple.Tuple, 100)
	for i := range batch {
		batch[i] = tuple.Tuple{Time: int64((i + 1) * 10), Value: float64(i), Name: "remote"}
	}
	if err := c.SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { return sc.Feed().Pending() == 100 })

	got := sc.Feed().Take(time.Hour)
	if len(got) != 100 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, tu := range got {
		if tu.Value != float64(i) || tu.Name != "remote" {
			t.Fatalf("tuple %d = %+v", i, tu)
		}
	}
	if _, _, received, parseErrors := srv.Stats(); received != 100 || parseErrors != 0 {
		t.Fatalf("server stats: received=%d parseErrors=%d", received, parseErrors)
	}
}

func TestBatchIngestPreservesOrderAcrossChunkBoundaries(t *testing.T) {
	// Force tuples to arrive in many small TCP segments so lines split
	// across read chunks; the carry logic must reassemble them exactly.
	loop, sc, _, addr := rig(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var wire []byte
	const n = 50
	for i := 1; i <= n; i++ {
		wire = tuple.AppendWire(wire, tuple.Tuple{Time: int64(i * 10), Value: float64(i), Name: "remote"})
	}
	go func() {
		for len(wire) > 0 {
			k := 7
			if k > len(wire) {
				k = len(wire)
			}
			conn.Write(wire[:k]) //nolint:errcheck
			wire = wire[k:]
			time.Sleep(time.Millisecond)
		}
	}()
	pump(t, loop, func() bool { return sc.Feed().Pending() == n })
	got := sc.Feed().Take(time.Hour)
	for i, tu := range got {
		if tu.Value != float64(i+1) {
			t.Fatalf("tuple %d = %+v", i, tu)
		}
	}
}

func TestMapTimeRebasesBatches(t *testing.T) {
	loop, sc, srv, addr := rig(t)
	srv.MapTime = func(d time.Duration) time.Duration { return d + time.Second }
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendBatch([]tuple.Tuple{
		{Time: 10, Value: 1, Name: "remote"},
		{Time: 20, Value: 2, Name: "remote"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { return sc.Feed().Pending() == 2 })
	got := sc.Feed().Take(time.Hour)
	if got[0].Time != 1010 || got[1].Time != 1020 {
		t.Fatalf("rebased stamps = %d, %d", got[0].Time, got[1].Time)
	}
}
