package netscope

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
	"repro/internal/reclog"
	"repro/internal/tuple"
)

// rawCollector drains a subscriber connection byte-for-byte.
type rawCollector struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func collectRaw(t *testing.T, addr string) (*rawCollector, net.Conn) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &rawCollector{}
	go func() {
		chunk := make([]byte, 4096)
		for {
			n, err := conn.Read(chunk)
			c.mu.Lock()
			c.buf.Write(chunk[:n])
			c.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return c, conn
}

func (c *rawCollector) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// TestV1SubscriberByteIdentical is the v1 compatibility acceptance test:
// a silent (v1) subscriber against the v2 server must receive a stream
// byte-identical to the pre-v2 hub — banner, snapshot framing, snapshot
// tuples, then every delta in order — even when deltas are broadcast while
// the server is still sniffing the protocol version (they buffer and
// deliver after the accept-time snapshot, exactly where an immediate v1
// subscription would have put them).
func TestV1SubscriberByteIdentical(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetHandshakeGrace(time.Hour) // promotion is driven explicitly below

	for i := 1; i <= 3; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i * 10), Value: float64(i), Name: "s"})
	}
	raw, conn := collectRaw(t, subAddr)
	defer conn.Close()

	// Wait until the hub has registered the (sniffing) connection...
	pump(t, loop, func() bool { return len(srv.hub.subs) == 1 })
	if srv.Subscribers() != 0 {
		t.Fatalf("sniffing connection already counted live: %d", srv.Subscribers())
	}
	// ...broadcast deltas while the protocol version is still undecided...
	srv.Inject(tuple.Tuple{Time: 40, Value: 4, Name: "s"})
	srv.Inject(tuple.Tuple{Time: 50, Value: 5, Name: "s"})
	// ...then commit it to v1 and send one live delta.
	for c := range srv.hub.subs {
		srv.promoteV1(c)
	}
	if srv.Subscribers() != 1 {
		t.Fatal("promotion did not go live")
	}
	srv.Inject(tuple.Tuple{Time: 60, Value: 6, Name: "s"})

	want := "# gscope-hub 1\n" +
		"# snapshot tuples=3 window-ms=5000\n" +
		"10 1 s\n20 2 s\n30 3 s\n" +
		"# snapshot-end\n" +
		"40 4 s\n50 5 s\n60 6 s\n"
	pump(t, loop, func() bool { return len(raw.bytes()) >= len(want) })
	if got := string(raw.bytes()); got != want {
		t.Fatalf("v1 stream diverged:\ngot  %q\nwant %q", got, want)
	}
}

// TestV1GarbageFirstLineFallsBack: a client whose first line is not a v2
// handshake is a v1 subscriber; the line is ignored, as it always was.
func TestV1GarbageFirstLineFallsBack(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetHandshakeGrace(time.Hour) // only the garbage line may promote
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "s"})

	conn, err := net.Dial("tcp", subAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello there\n")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []tuple.Tuple
	go func() {
		r := tuple.NewReader(conn, false)
		for {
			tu, err := r.Read()
			if err != nil {
				return
			}
			mu.Lock()
			got = append(got, tu)
			mu.Unlock()
		}
	}()
	pump(t, loop, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) >= 1 })
	mu.Lock()
	defer mu.Unlock()
	if got[0].Value != 1 {
		t.Fatalf("snapshot tuple = %+v", got[0])
	}
}

// TestV2MalformedHandshake: a malformed v2 request earns an error frame and
// the v1 stream.
func TestV2MalformedHandshake(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "s"})
	conn, err := net.Dial("tcp", subAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("gscope-sub 2 max-rate=banana\n")); err != nil {
		t.Fatal(err)
	}
	raw, conn2 := collectRaw(t, subAddr) // an unrelated healthy viewer
	defer conn2.Close()
	_ = raw
	buf := &rawCollector{}
	go func() {
		chunk := make([]byte, 4096)
		for {
			n, rerr := conn.Read(chunk)
			buf.mu.Lock()
			buf.buf.Write(chunk[:n])
			buf.mu.Unlock()
			if rerr != nil {
				return
			}
		}
	}()
	pump(t, loop, func() bool {
		s := string(buf.bytes())
		return strings.Contains(s, "# error") && strings.Contains(s, "# gscope-hub 1")
	})
}

// TestV2NoOptionsTupleParity: a v2 client with an empty request and a v1
// client connected to the same hub receive identical tuple streams
// (re-encoded byte comparison), and the v2 client sees the v2 ack.
func TestV2NoOptionsTupleParity(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	for i := 1; i <= 4; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i * 10), Value: float64(i), Name: "s"})
	}

	v1, connV1 := collect(t, subAddr)
	defer connV1.Close()
	var mu sync.Mutex
	var v2got []tuple.Tuple
	v2, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
		mu.Lock()
		v2got = append(v2got, tu)
		mu.Unlock()
	}, WithControl())
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	pump(t, loop, func() bool { return srv.Subscribers() == 2 })
	for i := 5; i <= 8; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i * 10), Value: float64(i), Name: "s"})
	}
	pump(t, loop, func() bool {
		mu.Lock()
		n := len(v2got)
		mu.Unlock()
		return v1.count() >= 8 && n >= 8
	})
	if !v2.Acked() || !v2.Handshaken() {
		t.Fatalf("v2 handshake not acknowledged (acked=%v handshaken=%v)", v2.Acked(), v2.Handshaken())
	}
	if v2.Snapshot() != 4 {
		t.Fatalf("v2 snapshot = %d, want 4", v2.Snapshot())
	}
	mu.Lock()
	defer mu.Unlock()
	a := tuple.AppendWireBatch(nil, v1.tuples())
	b := tuple.AppendWireBatch(nil, v2got)
	if !bytes.Equal(a, b) {
		t.Fatalf("streams diverge:\nv1 %q\nv2 %q", a, b)
	}
}

// TestV2SignalFilter: per-signal subscriptions with exact names and globs,
// server-side: the filtered tuples never cross the wire, and the hub
// accounts for them.
func TestV2SignalFilter(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(0)

	var mu sync.Mutex
	var got []tuple.Tuple
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
		mu.Lock()
		got = append(got, tu)
		mu.Unlock()
	}, WithSignals("alpha", "p*"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return srv.Subscribers() == 1 })

	batch := []tuple.Tuple{
		{Time: 10, Value: 1, Name: "alpha"},
		{Time: 11, Value: 2, Name: "beta"},
		{Time: 12, Value: 3, Name: "p1"},
		{Time: 13, Value: 4, Name: "p2"},
		{Time: 14, Value: 5, Name: "quux"},
	}
	srv.InjectBatch(batch)
	pump(t, loop, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 3
	})
	mu.Lock()
	if len(got) != 3 || got[0].Name != "alpha" || got[1].Name != "p1" || got[2].Name != "p2" {
		t.Fatalf("filtered stream = %+v", got)
	}
	mu.Unlock()
	if st := srv.FanoutStats(); st.Filtered != 2 {
		t.Fatalf("filtered counter = %d, want 2", st.Filtered)
	}
	// A later unfiltered viewer still gets everything (filters are per-sub).
	all, connAll := collect(t, subAddr)
	defer connAll.Close()
	pump(t, loop, func() bool { return srv.Subscribers() == 2 })
	srv.Inject(tuple.Tuple{Time: 20, Value: 6, Name: "beta"})
	pump(t, loop, func() bool { return all.count() >= 1 })
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("filtered sub leaked beta: %+v", got)
	}
}

// TestV2MaxRateDecimation: the hub drops same-signal samples closer than
// 1/MaxRate, per subscriber, before they ever reach the queue. A rate so
// low that its gap overflows int64 milliseconds still decimates: each
// signal's first sample passes and nothing after it.
func TestV2MaxRateDecimation(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want []int64 // delivered stamps per signal
	}{
		{100, []int64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}}, // ≥10ms apart
		{1e-300, []int64{0}},
	} {
		t.Run(fmt.Sprint(tc.rate), func(t *testing.T) {
			loop, srv, _, subAddr := hubRig(t)
			srv.SetSnapshotWindow(0)

			var mu sync.Mutex
			got := map[string][]int64{}
			sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
				mu.Lock()
				got[tu.Name] = append(got[tu.Name], tu.Time)
				mu.Unlock()
			}, WithMaxRate(tc.rate))
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			pump(t, loop, func() bool { return srv.Subscribers() == 1 })

			for i := 0; i < 100; i++ { // 1ms apart
				srv.Inject(tuple.Tuple{Time: int64(i), Value: float64(i), Name: "hot"})
				srv.Inject(tuple.Tuple{Time: int64(i), Value: float64(i), Name: "cold"})
			}
			pump(t, loop, func() bool { return srv.FanoutStats().Filtered >= int64(200-2*len(tc.want)) })
			pump(t, loop, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(got["hot"])+len(got["cold"]) >= 2*len(tc.want)
			})
			mu.Lock()
			defer mu.Unlock()
			for _, name := range []string{"hot", "cold"} {
				if fmt.Sprint(got[name]) != fmt.Sprint(tc.want) {
					t.Fatalf("%s delivered at %v, want %v", name, got[name], tc.want)
				}
			}
		})
	}
}

// TestV2SinceBackfillFromHistory: WithSince inside the retained window is
// served from the hub's history, framed as backfill, filtered, then live.
func TestV2SinceBackfillFromHistory(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(time.Hour)
	for ms := int64(0); ms <= 5000; ms += 100 {
		srv.Inject(tuple.Tuple{Time: ms, Value: float64(ms), Name: "s"})
		srv.Inject(tuple.Tuple{Time: ms, Value: 0, Name: "noise"})
	}
	var mu sync.Mutex
	var got []tuple.Tuple
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
		mu.Lock()
		got = append(got, tu)
		mu.Unlock()
	}, WithSignals("s"), WithSince(-2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Backfill = tuples of signal s stamped in [3000, 5000]: 21 of them.
	pump(t, loop, func() bool { return sub.Backfilled() >= 21 })
	if sub.Backfilled() != 21 || sub.Snapshot() != 0 {
		t.Fatalf("backfilled = %d snapshot = %d", sub.Backfilled(), sub.Snapshot())
	}
	srv.Inject(tuple.Tuple{Time: 5100, Value: 5100, Name: "s"})
	pump(t, loop, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 22
	})
	mu.Lock()
	defer mu.Unlock()
	if got[0].Time != 3000 || got[20].Time != 5000 || got[21].Time != 5100 {
		t.Fatalf("backfill window wrong: first=%+v last=%+v live=%+v", got[0], got[20], got[21])
	}
	for _, tu := range got {
		if tu.Name != "s" {
			t.Fatalf("filter leaked into backfill: %+v", tu)
		}
	}
}

// TestV2SinceBackfillFromReclog: a window older than the retained history
// is served from the attached flight recorder.
func TestV2SinceBackfillFromReclog(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(time.Second)
	dir := t.TempDir()
	lg, err := srv.Record(dir, reclog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 1; i <= n; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i * 100), Value: float64(i), Name: "s"})
	}
	// The flight log is async; wait until everything reached the disk
	// writer before asking for it back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, written := lg.Stats(); written >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight log never drained")
		}
		time.Sleep(time.Millisecond)
	}

	sub, err := SubscribeTo(loop, subAddr, func(tuple.Tuple) {}, WithSince(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// since=50ms absolute predates the 1s snapshot window (history starts
	// at ~9100ms), so the backfill must come from disk: all 100 tuples.
	pump(t, loop, func() bool { return sub.Backfilled() >= n })
	if sub.Backfilled() != n {
		t.Fatalf("backfilled = %d, want %d", sub.Backfilled(), n)
	}
}

// TestV2DecimatedBackfill: WithSince+WithResolution serves min/max buckets
// from the tiered store — O(cols) tuples however deep the window.
func TestV2DecimatedBackfill(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(0) // decimated backfill does not need raw history
	srv.SetBackfillRetention(1 << 14)

	const n = 8000
	batch := make([]tuple.Tuple, 0, 256)
	for i := 0; i < n; i++ {
		v := float64(i % 100)
		switch i {
		case 6000:
			v = -999
		case 7000:
			v = 999
		}
		batch = append(batch, tuple.Tuple{Time: int64(i), Value: v, Name: "s"})
		batch = append(batch, tuple.Tuple{Time: int64(i), Value: 1, Name: "other"})
		if len(batch) == 256 {
			srv.InjectBatch(batch)
			batch = batch[:0]
		}
	}
	srv.InjectBatch(batch)

	var mu sync.Mutex
	var got []tuple.Tuple
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
		mu.Lock()
		got = append(got, tu)
		mu.Unlock()
	}, WithSignals("s"), WithSince(1*time.Millisecond), WithResolution(32))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return sub.Acked() && sub.Backfilled() > 0 })
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 || len(got) > 64 { // ≤2 tuples per bucket
		t.Fatalf("decimated backfill returned %d tuples, want (0, 64]", len(got))
	}
	sawMin, sawMax := false, false
	for _, tu := range got {
		if tu.Name != "s" {
			t.Fatalf("filter leaked: %+v", tu)
		}
		if tu.Value == -999 {
			sawMin = true
		}
		if tu.Value == 999 {
			sawMax = true
		}
	}
	if !sawMin || !sawMax {
		t.Fatalf("envelope lost planted extremes (min=%v max=%v) in %d tuples", sawMin, sawMax, len(got))
	}
}

// controlLog captures control frames delivered to a subscriber.
type controlLog struct {
	mu     sync.Mutex
	frames []tuple.ControlFrame
}

func (cl *controlLog) add(f tuple.ControlFrame) {
	cl.mu.Lock()
	cl.frames = append(cl.frames, f)
	cl.mu.Unlock()
}

func (cl *controlLog) find(verb string) (tuple.ControlFrame, bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	for _, f := range cl.frames {
		if f.Verb == verb {
			return f, true
		}
	}
	return tuple.ControlFrame{}, false
}

func (cl *controlLog) count(verb string) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, f := range cl.frames {
		if f.Verb == verb {
			n++
		}
	}
	return n
}

// TestV2ParamCommands is the remote-parameter acceptance test: PARAM SET
// over the wire clamps to the declared bounds, the publishing application
// observes the new value, and other subscribers see a notification frame.
// PARAM GET and LIST answer from the registry.
func TestV2ParamCommands(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	ps := core.NewParamSet()
	var knob core.IntVar
	if err := ps.Add(core.IntParam("knob", &knob, 0, 10)); err != nil {
		t.Fatal(err)
	}
	var gain core.FloatVar
	if err := ps.Add(core.FloatParam("gain", &gain, -1, 1)); err != nil {
		t.Fatal(err)
	}
	srv.SetParams(ps)

	logA, logB := &controlLog{}, &controlLog{}
	subA, err := SubscribeTo(loop, subAddr, func(tuple.Tuple) {}, WithControl())
	if err != nil {
		t.Fatal(err)
	}
	defer subA.Close()
	subA.OnControl(logA.add)
	subB, err := SubscribeTo(loop, subAddr, func(tuple.Tuple) {}, WithControl())
	if err != nil {
		t.Fatal(err)
	}
	defer subB.Close()
	subB.OnControl(logB.add)
	pump(t, loop, func() bool { return srv.Subscribers() == 2 })

	// SET beyond the bound: clamped server-side, observed by the app.
	if err := subA.Command("param set knob 50"); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { _, ok := logA.find("param-ok"); return ok })
	if f, _ := logA.find("param-ok"); f.Arg(0) != "knob" || f.Arg(1) != "10" {
		t.Fatalf("param-ok = %+v, want knob 10 (clamped)", f)
	}
	if knob.Load() != 10 {
		t.Fatalf("application variable = %d, want 10", knob.Load())
	}
	// The other subscriber observes the change as a notification frame.
	pump(t, loop, func() bool { _, ok := logB.find("param"); return ok })
	if f, _ := logB.find("param"); f.Arg(0) != "knob" || f.Arg(1) != "10" {
		t.Fatalf("notification = %+v, want knob 10", f)
	}

	// GET reflects the stored value with its metadata.
	if err := subB.Command("param get gain"); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool {
		logB.mu.Lock()
		defer logB.mu.Unlock()
		for _, f := range logB.frames {
			if f.Verb == "param" && f.Arg(0) == "gain" {
				return true
			}
		}
		return false
	})
	logB.mu.Lock()
	var gainFrame tuple.ControlFrame
	for _, f := range logB.frames {
		if f.Verb == "param" && f.Arg(0) == "gain" {
			gainFrame = f
		}
	}
	logB.mu.Unlock()
	if v, _ := gainFrame.Lookup("min"); v != "-1" {
		t.Fatalf("gain frame metadata wrong: %+v", gainFrame)
	}
	if m, _ := gainFrame.Lookup("mode"); m != "rw" {
		t.Fatalf("gain mode = %+v", gainFrame)
	}

	// LIST enumerates both, framed.
	if err := subA.Command("param list"); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { _, ok := logA.find("params-end"); return ok })
	if f, _ := logA.find("params"); f.Int("n", -1) != 2 {
		t.Fatalf("params header = %+v", f)
	}

	// Errors: unknown name, and an app-side set also notifies the wire.
	if err := subA.Command("param set nope 1"); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { _, ok := logA.find("error"); return ok })
	before := logB.count("param")
	if err := ps.Set("gain", 0.5); err != nil { // the application's own set
		t.Fatal(err)
	}
	pump(t, loop, func() bool { return logB.count("param") > before })
}

// TestSubscribeWithProgrammatic exercises the in-process v2 path: an
// explicit SubscriptionRequest on one end of a pipe, no handshake line.
func TestSubscribeWithProgrammatic(t *testing.T) {
	loop, srv, _, _ := hubRig(t)
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "keep"})
	srv.Inject(tuple.Tuple{Time: 11, Value: 2, Name: "drop"})

	hubEnd, viewerEnd := net.Pipe()
	defer viewerEnd.Close()
	var mu sync.Mutex
	var got []tuple.Tuple
	go func() {
		r := tuple.NewReader(viewerEnd, false)
		for {
			tu, err := r.Read()
			if err != nil {
				return
			}
			mu.Lock()
			got = append(got, tu)
			mu.Unlock()
		}
	}()
	if err := srv.SubscribeWith(hubEnd, SubscriptionRequest{Signals: []string{"keep"}}); err != nil {
		t.Fatal(err)
	}
	if srv.Subscribers() != 1 {
		t.Fatal("SubscribeWith not live immediately")
	}
	srv.Inject(tuple.Tuple{Time: 20, Value: 3, Name: "keep"})
	srv.Inject(tuple.Tuple{Time: 21, Value: 4, Name: "drop"})
	pump(t, loop, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].Value != 1 || got[1].Value != 3 {
		t.Fatalf("programmatic v2 stream = %+v", got)
	}
	// An invalid request is rejected up front.
	bad, bad2 := net.Pipe()
	defer bad.Close()
	defer bad2.Close()
	if err := srv.SubscribeWith(bad, SubscriptionRequest{MaxRate: -1}); err == nil {
		t.Fatal("negative MaxRate accepted")
	}
}

// TestSubscriberCountersRace is the -race regression test for the
// previously unsynchronized Subscriber counters: they are read from an
// arbitrary goroutine while the loop goroutine (loop.Run) is writing them.
func TestSubscriberCountersRace(t *testing.T) {
	loop := glib.NewLoop(glib.RealClock{})
	srv := NewServer(loop)
	subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	done := make(chan struct{})
	go func() {
		loop.Run() //nolint:errcheck
		close(done)
	}()
	defer func() {
		loop.Quit()
		<-done
	}()

	sub, err := SubscribeTo(loop, subAddr.String(), func(tuple.Tuple) {})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			i := i
			loop.Invoke(func() {
				srv.Inject(tuple.Tuple{Time: int64(i), Value: float64(i), Name: "s"})
			})
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		recv, perrs := sub.Stats()
		_ = sub.Handshaken()
		_ = sub.Snapshot()
		_ = sub.Backfilled()
		if perrs != 0 {
			t.Fatalf("parse errors: %d", perrs)
		}
		if recv >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", recv, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManyFilteredSubscribersShareEncoding: subscribers with identical
// filters share one encoded chunk per batch (the memo path); correctness
// check that they all see the same narrowed stream.
func TestManyFilteredSubscribersShareEncoding(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(0)
	const nSubs = 8
	var mu sync.Mutex
	counts := make([]int, nSubs)
	subs := make([]*Subscriber, nSubs)
	for i := 0; i < nSubs; i++ {
		i := i
		sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
			if tu.Name != "hot" {
				t.Errorf("sub %d leaked %+v", i, tu)
			}
			mu.Lock()
			counts[i]++
			mu.Unlock()
		}, WithSignals("hot"))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
		defer sub.Close()
	}
	pump(t, loop, func() bool { return srv.Subscribers() == nSubs })
	batch := make([]tuple.Tuple, 0, 64)
	for i := 0; i < 64; i++ {
		name := "cold"
		if i%8 == 0 {
			name = "hot"
		}
		batch = append(batch, tuple.Tuple{Time: int64(i), Value: float64(i), Name: name})
	}
	srv.InjectBatch(batch)
	pump(t, loop, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range counts {
			if c < 8 {
				return false
			}
		}
		return true
	})
	if st := srv.FanoutStats(); st.Filtered != int64(nSubs*56) {
		t.Fatalf("filtered = %d, want %d", st.Filtered, nSubs*56)
	}
}

// TestV2NoStream: a control-only connection gets frames but no tuples.
func TestV2NoStream(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	ps := core.NewParamSet()
	var v core.IntVar
	if err := ps.Add(core.IntParam("x", &v, 0, 100)); err != nil {
		t.Fatal(err)
	}
	srv.SetParams(ps)
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "s"})

	cl := &controlLog{}
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
		t.Errorf("control-only connection received tuple %+v", tu)
	}, WithoutStream())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.OnControl(cl.add)
	pump(t, loop, func() bool { return sub.Acked() })
	srv.Inject(tuple.Tuple{Time: 20, Value: 2, Name: "s"})
	if err := sub.Command("param set x 42"); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { _, ok := cl.find("param-ok"); return ok })
	if v.Load() != 42 {
		t.Fatalf("x = %d", v.Load())
	}
	if recv, _ := sub.Stats(); recv != 0 {
		t.Fatalf("control-only connection received %d tuples", recv)
	}
}

// TestHubChainingV2Filtered: a filtered v2 bridge between two hubs relays
// only its subscription — the decimated-relay topology gscoped's
// -upstream path uses.
func TestHubChainingV2Filtered(t *testing.T) {
	loop, _, pubAddr, subAddrA := hubRig(t)
	srvB := NewServer(loop)
	subAddrB, err := srvB.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })

	bridge, err := SubscribeToBatch(loop, subAddrA, srvB.InjectBatch, WithSignals("wanted"))
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
		c.Send(time.Duration(i)*time.Millisecond, "wanted", float64(i)) //nolint:errcheck
		c.Send(time.Duration(i)*time.Millisecond, "junk", float64(i))   //nolint:errcheck
	}
	c.Flush() //nolint:errcheck
	pump(t, loop, func() bool { return viewer.count() >= 5 })
	for _, tu := range viewer.tuples() {
		if tu.Name != "junk" {
			continue
		}
		t.Fatalf("junk crossed the filtered bridge: %+v", tu)
	}
}

func TestSubscriptionRequestRoundTrip(t *testing.T) {
	req := SubscriptionRequest{
		Signals: []string{"cpu.*", "mem"},
		MaxRate: 30,
		Since:   -10 * time.Second,
		Cols:    512,
	}
	line := req.encodeLine()
	if want := "gscope-sub 2 signals=cpu.*,mem max-rate=30 since=-10000 cols=512\n"; line != want {
		t.Fatalf("encoded %q, want %q", line, want)
	}
	got, ok, err := parseSubscriptionRequest(strings.TrimSpace(line))
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if fmt.Sprint(got.Signals) != fmt.Sprint(req.Signals) || got.MaxRate != 30 ||
		got.Since != req.Since || got.Cols != 512 || got.NoStream {
		t.Fatalf("round trip = %+v", got)
	}
	// v1 lines are not requests; wrong versions are requests with errors.
	if _, ok, _ := parseSubscriptionRequest("1500 42.5 CWND"); ok {
		t.Fatal("tuple line parsed as request")
	}
	if _, ok, err := parseSubscriptionRequest("gscope-sub 3"); !ok || err == nil {
		t.Fatal("future version should be a recognized-but-unsupported request")
	}
	if _, _, err := parseSubscriptionRequest("gscope-sub 2 max-rate=-5"); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// TestV2ParamSetRejectsNaN: NaN compares false against both clamp bounds,
// so it must be rejected at the wire before it can bypass the range the
// protocol promises to enforce. Trailing garbage is rejected too.
func TestV2ParamSetRejectsNaN(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	ps := core.NewParamSet()
	var knob core.IntVar
	knob.Store(5)
	if err := ps.Add(core.IntParam("knob", &knob, 0, 10)); err != nil {
		t.Fatal(err)
	}
	srv.SetParams(ps)
	cl := &controlLog{}
	sub, err := SubscribeTo(loop, subAddr, func(tuple.Tuple) {}, WithoutStream())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.OnControl(cl.add)
	pump(t, loop, func() bool { return sub.Acked() })
	for _, bad := range []string{"NaN", "+Inf", "5junk", "banana"} {
		if err := sub.Command("param set knob " + bad); err != nil {
			t.Fatal(err)
		}
	}
	pump(t, loop, func() bool { return cl.count("error") >= 4 })
	if got := cl.count("param-ok"); got != 0 {
		t.Fatalf("%d bad values were accepted", got)
	}
	if knob.Load() != 5 {
		t.Fatalf("knob corrupted to %d", knob.Load())
	}
}

// TestV2MaxRateStaleStampsDoNotRewindClock: a stale-stamped tuple (skewed
// publisher clock) must be dropped without rewinding the per-signal
// decimation clock — a rewind would let the interleaving defeat the cap.
func TestV2MaxRateStaleStampsDoNotRewindClock(t *testing.T) {
	sub := compileSubscription(SubscriptionRequest{MaxRate: 100}) // 10ms gap
	delivered := 0
	for i := 0; i < 100; i++ {
		// In-order stamps 1ms apart, each followed by a stale one 6s back.
		if sub.passes(tuple.Tuple{Time: int64(i), Name: "s"}) {
			delivered++
		}
		if sub.passes(tuple.Tuple{Time: int64(i) - 6000, Name: "s"}) {
			t.Fatalf("stale-stamped tuple at i=%d delivered", i)
		}
	}
	if delivered != 10 {
		t.Fatalf("delivered %d of 100, want 10 (rate cap held)", delivered)
	}
}

// TestV2TrailingSinceBeforeFirstTupleServesNothing: a trailing window has
// no anchor before the first live tuple; with a (reopened) flight log
// attached it must not spill the log's old history.
func TestV2TrailingSinceBeforeFirstTupleServesNothing(t *testing.T) {
	dir := t.TempDir()
	// A previous run's recording, sealed.
	lg, err := reclog.Open(dir, reclog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	old := make([]tuple.Tuple, 1000)
	for i := range old {
		old[i] = tuple.Tuple{Time: int64(i), Value: 1, Name: "old"}
	}
	lg.Append(old)
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	loop, srv, _, subAddr := hubRig(t)
	if _, err := srv.Record(dir, reclog.Options{}); err != nil {
		t.Fatal(err)
	}
	sub, err := SubscribeTo(loop, subAddr, func(tu tuple.Tuple) {
		if tu.Name == "old" {
			t.Errorf("previous run's history spilled: %+v", tu)
		}
	}, WithSince(-10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return sub.Acked() })
	if sub.Backfilled() != 0 {
		t.Fatalf("backfilled %d tuples before any live traffic", sub.Backfilled())
	}
	// Live traffic still flows after the empty backfill.
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "live"})
	pump(t, loop, func() bool { recv, _ := sub.Stats(); return recv >= 1 })
}

// TestV2NoStreamNotCountedFiltered: control-plane-only connections never
// wanted the stream, so they must not inflate the Filtered stat operators
// read as "decimation working".
func TestV2NoStreamNotCountedFiltered(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	sub, err := SubscribeTo(loop, subAddr, func(tuple.Tuple) {}, WithoutStream())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return sub.Acked() })
	for i := 0; i < 50; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i), Value: 1, Name: "s"})
	}
	if st := srv.FanoutStats(); st.Filtered != 0 {
		t.Fatalf("stream-less connection counted %d tuples as filtered", st.Filtered)
	}
}

// TestV2LateHandshakeUpgrades: a handshake that arrives after the grace
// window already committed the connection to v1 (an RTT longer than the
// grace) must still upgrade it — filters, decimation and the control
// plane apply from that point instead of being silently dropped.
func TestV2LateHandshakeUpgrades(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(0)
	srv.SetHandshakeGrace(time.Millisecond) // lose the race deliberately
	ps := core.NewParamSet()
	var knob core.IntVar
	if err := ps.Add(core.IntParam("knob", &knob, 0, 10)); err != nil {
		t.Fatal(err)
	}
	srv.SetParams(ps)

	conn, err := net.Dial("tcp", subAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var mu sync.Mutex
	var lines []string
	go func() {
		sc := bufioScanner(conn)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
		}
	}()
	// Wait until the silent connection has been committed to v1.
	pump(t, loop, func() bool { return srv.Subscribers() == 1 })
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "junk"}) // v1 prefix: unfiltered

	// The handshake arrives late; the connection must upgrade in place.
	if _, err := conn.Write([]byte("gscope-sub 2 signals=keep\n")); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lines {
			if strings.HasPrefix(l, "# gscope-hub 2") {
				return true
			}
		}
		return false
	})
	srv.Inject(tuple.Tuple{Time: 20, Value: 2, Name: "junk"}) // now filtered
	srv.Inject(tuple.Tuple{Time: 21, Value: 3, Name: "keep"})
	// And the control plane works post-upgrade.
	if _, err := conn.Write([]byte("param set knob 7\n")); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lines {
			if strings.HasPrefix(l, "# param-ok knob 7") {
				return true
			}
		}
		return false
	})
	mu.Lock()
	defer mu.Unlock()
	sawKeep := false
	for _, l := range lines {
		if l == "20 2 junk" {
			t.Fatal("post-upgrade tuple escaped the filter")
		}
		if l == "21 3 keep" {
			sawKeep = true
		}
	}
	if !sawKeep {
		t.Fatal("filtered signal not delivered after upgrade")
	}
	if knob.Load() != 7 {
		t.Fatalf("knob = %d", knob.Load())
	}
}

// bufioScanner is a test helper so the late-handshake test can read lines
// without pulling bufio into every test file scope.
func bufioScanner(conn net.Conn) *bufio.Scanner {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return sc
}

// TestV2LateHandshakeSinceServesEmptyBackfill: a late-upgraded connection
// already received the v1 stream; re-serving a Since window would deliver
// the overlap twice, so the upgrade acks with an empty backfill frame.
func TestV2LateHandshakeSinceServesEmptyBackfill(t *testing.T) {
	loop, srv, _, subAddr := hubRig(t)
	srv.SetSnapshotWindow(time.Hour)
	srv.SetHandshakeGrace(time.Millisecond)
	for i := 1; i <= 5; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i * 1000), Value: float64(i), Name: "s"})
	}
	conn, err := net.Dial("tcp", subAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var mu sync.Mutex
	var tuples []tuple.Tuple
	sawEmptyBackfill := false
	go func() {
		sc := bufioScanner(conn)
		for sc.Scan() {
			line := sc.Text()
			if f, ok := tuple.ParseControl(line); ok {
				if f.Verb == "backfill" && f.Int("tuples", -1) == 0 {
					mu.Lock()
					sawEmptyBackfill = true
					mu.Unlock()
				}
				continue
			}
			if tu, err := tuple.Parse(line); err == nil {
				mu.Lock()
				tuples = append(tuples, tu)
				mu.Unlock()
			}
		}
	}()
	// Committed to v1 (receives the 5-tuple snapshot), then the Since
	// handshake arrives late.
	pump(t, loop, func() bool { return srv.Subscribers() == 1 })
	if _, err := conn.Write([]byte("gscope-sub 2 since=-3000\n")); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool { mu.Lock(); defer mu.Unlock(); return sawEmptyBackfill })
	srv.Inject(tuple.Tuple{Time: 6000, Value: 6, Name: "s"})
	pump(t, loop, func() bool { mu.Lock(); defer mu.Unlock(); return len(tuples) >= 6 })
	mu.Lock()
	defer mu.Unlock()
	seen := make(map[int64]int)
	for _, tu := range tuples {
		seen[tu.Time]++
		if seen[tu.Time] > 1 {
			t.Fatalf("tuple at %dms delivered twice after late upgrade", tu.Time)
		}
	}
}

// TestV2LateUpgradeAckSurvivesStall: the ack a late-upgrading connection
// is sent must survive drop-oldest even when regular traffic is already
// queued ahead of it on a stalled viewer — without the ack the client
// never learns its request applied.
func TestV2LateUpgradeAckSurvivesStall(t *testing.T) {
	loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(7000, 0)), glib.WithGranularity(0))
	srv := NewServer(loop)
	srv.SetSubscriberQueueLimit(4)
	t.Cleanup(func() { srv.Close() })

	ours, theirs := net.Pipe()
	defer ours.Close()
	srv.Subscribe(theirs) // v1 and live; nobody reads ours yet
	// The writer takes the snapshot and stalls inside the pipe write.
	pump(t, loop, func() bool { return srv.SubscriberBacklog() == 0 })
	srv.Inject(tuple.Tuple{Time: 10, Value: 1, Name: "s"}) // queued ahead of the ack

	go ours.Write([]byte("gscope-sub 2\n")) //nolint:errcheck // the hub's read watch drains it
	pump(t, loop, func() bool { return srv.SubscriberBacklog() == 2 })
	const last = 20
	for i := 11; i <= last; i++ { // more batches than the queue holds
		srv.Inject(tuple.Tuple{Time: int64(i), Value: float64(i), Name: "s"})
	}

	var mu sync.Mutex
	var lines []string
	go func() {
		sc := bufioScanner(ours)
		for sc.Scan() {
			mu.Lock()
			lines = append(lines, sc.Text())
			mu.Unlock()
		}
	}()
	pump(t, loop, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(lines) > 0 && lines[len(lines)-1] == fmt.Sprintf("%d %d s", last, last)
	})
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.HasPrefix(l, "# gscope-hub 2") {
			return
		}
	}
	t.Fatalf("the late upgrade's ack was evicted; the viewer read %q", lines)
}

// TestSubscriberBacklogCountsBackfillBuffer: deltas buffered while a v2
// connection waits on its flight-log read are backlog like any queued
// chunk, one per delivered batch.
func TestSubscriberBacklogCountsBackfillBuffer(t *testing.T) {
	loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(7000, 0)), glib.WithGranularity(0))
	srv := NewServer(loop)
	t.Cleanup(func() { srv.Close() })
	// An empty recording directory: the window predates the (empty)
	// history, so activation parks on a flight-log read whose completion
	// never runs, because the loop is not iterated.
	srv.flightDir = t.TempDir()
	ours, theirs := net.Pipe()
	defer ours.Close()
	if err := srv.SubscribeWith(theirs, SubscriptionRequest{Since: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		srv.Inject(tuple.Tuple{Time: int64(i), Value: 1, Name: "s"})
	}
	for sub := range srv.hub.subs {
		if sub.state != subBackfilling {
			t.Fatalf("subscriber state %d, want backfilling", sub.state)
		}
	}
	if got := srv.SubscriberBacklog(); got != 3 {
		t.Fatalf("SubscriberBacklog = %d, want the 3 buffered batches", got)
	}
}

// TestFilterMemoMatchesPathMatch compares the memoised glob verdicts with
// path.Match over three times more names than the memo holds, twice, so
// both cached and uncached verdicts are checked.
func TestFilterMemoMatchesPathMatch(t *testing.T) {
	patterns := []string{"net.flow?.cwnd", "bench.*", "exact.name", "[ab]*.x"}
	f := compileFilter(patterns)
	want := func(name string) bool {
		for _, p := range patterns {
			if ok, _ := path.Match(p, name); ok {
				return true
			}
		}
		return false
	}
	names := []string{"exact.name", "exact.name2"}
	for i := 0; i < 3*maxFilterMemo; i++ {
		names = append(names, fmt.Sprintf("net.flow%d.cwnd", i%13), fmt.Sprintf("bench.s%d", i),
			fmt.Sprintf("a%d.x", i), fmt.Sprintf("c%d.x", i))
	}
	for pass := 0; pass < 2; pass++ {
		for _, name := range names {
			if got := f.match(name); got != want(name) {
				t.Fatalf("pass %d: match(%q) = %v, path.Match %v", pass, name, got, !got)
			}
		}
	}
	if len(f.verdicts) != maxFilterMemo {
		t.Fatalf("memo holds %d names, want the bound %d", len(f.verdicts), maxFilterMemo)
	}
}

// TestSubscriberPreAckFilter plays a hub that broadcasts text tuples to a
// filtered v2 subscriber before acknowledging its request (the handshake
// race): until the ack, the subscriber itself must drop the tuples
// outside its filter, deliver and count the rest, and after the ack take
// what the hub sends as filtered.
func TestSubscriberPreAckFilter(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		io.WriteString(conn, "1 1 keep.a\n2 2 drop.b\n3 3 keep.c\n4 4 drop.d\n"+ //nolint:errcheck
			"# gscope-hub 2 signals=keep.*\n"+
			"5 5 late.e\n")
		io.Copy(io.Discard, conn) //nolint:errcheck // hold the stream open until the subscriber closes
	}()
	loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(7000, 0)), glib.WithGranularity(0))
	var got []string
	sub, err := SubscribeTo(loop, ln.Addr().String(), func(tu tuple.Tuple) {
		got = append(got, tu.Name)
	}, WithSignals("keep.*"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pump(t, loop, func() bool { return len(got) >= 3 })
	if want := []string{"keep.a", "keep.c", "late.e"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("delivered %q, want %q", got, want)
	}
	if received, parseErrors := sub.Stats(); received != 3 || parseErrors != 0 {
		t.Fatalf("received %d (parse errors %d), want 3 (0)", received, parseErrors)
	}
	if !sub.Acked() {
		t.Fatal("ack not seen")
	}
}
