package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netscope"
	"repro/internal/reclog"
	"repro/internal/testutil"
	"repro/internal/tuple"
)

// The daemon's whole stack — loops, relays, recorders, subscribers —
// promises goroutine-clean shutdown; the e2e suite enforces it.
func TestMain(m *testing.M) {
	testutil.VerifyTestMain(m)
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-signals", "cps, errps ,tput"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(cfg.signals, "|"); got != "cps|errps|tput" {
		t.Fatalf("signals = %q", got)
	}
	if cfg.listen != "127.0.0.1:7420" || cfg.delay != 200*time.Millisecond {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.snapshot != netscope.DefaultSnapshotWindow || cfg.subQueue != netscope.DefaultSubscriberQueueLimit {
		t.Fatalf("hub defaults wrong: %+v", cfg)
	}
}

func TestParseFlagsRelayOptions(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-listen", ":0", "-subscribers", ":0", "-upstream", "hub:7421",
		"-snapshot", "2s", "-subqueue", "64",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.subscribers != ":0" || cfg.upstream != "hub:7421" {
		t.Fatalf("relay flags wrong: %+v", cfg)
	}
	if cfg.snapshot != 2*time.Second || cfg.subQueue != 64 {
		t.Fatalf("hub tuning wrong: %+v", cfg)
	}
	if len(cfg.signals) != 0 {
		t.Fatalf("headless relay should have no signals: %+v", cfg)
	}
}

func TestParseFlagsRejectsNothingToDo(t *testing.T) {
	if _, err := parseFlags(nil); err == nil {
		t.Fatal("no signals and no subscribers should be rejected")
	}
	if _, err := parseFlags([]string{"-ansi"}); err == nil {
		t.Fatal("-ansi without -signals should be rejected")
	}
	if _, err := parseFlags([]string{"-subscribers", ":0", "-png", "x.png"}); err == nil {
		t.Fatal("-png without -signals should be rejected")
	}
	if _, err := parseFlags([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag should be rejected")
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h should surface flag.ErrHelp, got %v", err)
	}
}

func TestParseFlagsRejectsInvalidSignalNames(t *testing.T) {
	// Names the §3.3 wire format cannot carry must be rejected at the
	// flag, not silently corrupted in streams and recordings later.
	if _, err := parseFlags([]string{"-signals", "cps,bad\nname"}); !errors.Is(err, tuple.ErrBadName) {
		t.Fatalf("newline in -signals accepted: %v", err)
	}
	if _, err := parseFlags([]string{"-signals", "ok\rbad"}); !errors.Is(err, tuple.ErrBadName) {
		t.Fatal("carriage return in -signals accepted")
	}
}

// startRelay runs a relay in the background and returns it plus a stopper.
func startRelay(t *testing.T, args ...string) *relay {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRelay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.run(io.Discard) }()
	t.Cleanup(func() {
		r.stop()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("relay exited: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("relay did not stop")
		}
	})
	return r
}

// readTuples drains a subscriber connection into out from a goroutine.
func readTuples(t *testing.T, addr string, out *[]tuple.Tuple, mu *sync.Mutex) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		r := tuple.NewReader(conn, false)
		for {
			tu, err := r.Read()
			if err != nil {
				return
			}
			mu.Lock()
			*out = append(*out, tu)
			mu.Unlock()
		}
	}()
	return conn
}

// TestRelayEndToEnd is the loopback smoke test: a publisher streams into a
// displaying relay, and a downstream subscriber gets the re-published
// merged stream back out of the fan-out side.
func TestRelayEndToEnd(t *testing.T) {
	r := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-signals", "cps", "-unixtime=false")

	var mu sync.Mutex
	var got []tuple.Tuple
	conn := readTuples(t, r.SubAddr.String(), &got, &mu)
	defer conn.Close()

	c, err := netscope.Dial(r.PubAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if err := c.Send(time.Duration(i)*time.Millisecond, "cps", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber got %d/5 tuples", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 5; i++ {
		if got[i].Name != "cps" || got[i].Value != float64(i) {
			t.Fatalf("tuple %d = %v", i, got[i])
		}
	}
}

// TestRelayChained checks the -upstream path: publisher → hub → chained
// relay → subscriber.
func TestRelayChained(t *testing.T) {
	hub := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0")
	chained := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-upstream", hub.SubAddr.String())

	var mu sync.Mutex
	var got []tuple.Tuple
	conn := readTuples(t, chained.SubAddr.String(), &got, &mu)
	defer conn.Close()

	c, err := netscope.Dial(hub.PubAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.Send(time.Duration(i)*time.Millisecond, "x", float64(i)) //nolint:errcheck
	}
	c.Flush() //nolint:errcheck

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chained subscriber got %d/3 tuples", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRelayUpstreamReconnects restarts the upstream hub out from under a
// chained relay and checks the relay redials and resumes relaying instead
// of serving a frozen stream forever.
func TestRelayUpstreamReconnects(t *testing.T) {
	hub := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0")
	hubSubAddr := hub.SubAddr.String()
	chained := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-upstream", hubSubAddr)

	var mu sync.Mutex
	var got []tuple.Tuple
	conn := readTuples(t, chained.SubAddr.String(), &got, &mu)
	defer conn.Close()

	// Kill the hub and wait for its subscriber port to come free.
	hub.stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c, err := net.Dial("tcp", hubSubAddr); err != nil {
			break
		} else {
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("hub port never freed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart a hub on the same subscriber port (retry while the chained
	// relay's redial probes race us for the listen call — they don't
	// bind, so this settles quickly).
	cfg, err := parseFlags([]string{"-listen", "127.0.0.1:0", "-subscribers", hubSubAddr})
	if err != nil {
		t.Fatal(err)
	}
	hub2, err := newRelay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- hub2.run(io.Discard) }()
	t.Cleanup(func() {
		hub2.stop()
		<-done
	})

	// Publish to the new hub until the chained relay's subscriber sees
	// data again — covering the relay's backoff window.
	c, err := netscope.Dial(hub2.PubAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	testutil.WaitUntil(t, "chained relay to resume after hub restart", 15*time.Second, func() bool {
		c.Send(time.Duration(time.Now().UnixMilli())*time.Millisecond, "x", 1) //nolint:errcheck
		mu.Lock()
		n := len(got)
		mu.Unlock()
		return n > 0
	})
}

// signalWriter closes seen the first time a write contains want.
type signalWriter struct {
	want string
	once sync.Once
	seen chan struct{}
}

func (w *signalWriter) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(w.want)) {
		w.once.Do(func() { close(w.seen) })
	}
	return len(p), nil
}

// TestRelayCloseDuringRedial closes a chained relay while its upstream
// redial waits out a backoff step, then lets a redial connect after the
// close: the relay must leave neither the redial goroutine nor a
// subscriber behind, and without waiting out the backoff.
func TestRelayCloseDuringRedial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-upstream", ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRelay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	status := &signalWriter{want: "redialing", seen: make(chan struct{})}
	done := make(chan error, 1)
	go func() { done <- r.run(status) }()

	// Drop the upstream for good: every redial is refused at once.
	up, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	up.Close()
	select {
	case <-status.seen:
	case <-time.After(10 * time.Second):
		t.Fatal("relay never noticed the upstream loss")
	}
	// The backoff doubles from 50 ms, so 1.2 s in the redial is waiting
	// out its 800 ms or 1.6 s step — longer than the leak check allows.
	time.Sleep(1200 * time.Millisecond)
	r.stop()
	if err := <-done; err != nil {
		t.Fatalf("relay exited: %v", err)
	}
	if err := testutil.CheckLeaksWithin(300 * time.Millisecond); err != nil {
		t.Fatalf("closing the relay left its redial behind: %v", err)
	}

	// A redial whose connect completes after the close closes what it
	// connected (the package's leak check sees its reader otherwise).
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	r.cfg.upstream = ln2.Addr().String()
	if err := r.connectUpstream(false); !errors.Is(err, errRelayClosed) {
		t.Fatalf("connect after close = %v, want errRelayClosed", err)
	}
}

func TestParseFlagsRecordReplay(t *testing.T) {
	cfg, err := parseFlags([]string{"-replay", "sess", "-subscribers", ":0",
		"-speed", "0", "-from", "10s", "-to", "20s", "-record-limit", "1048576"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.replay != "sess" || cfg.speed != 0 || cfg.from != 10*time.Second || cfg.to != 20*time.Second {
		t.Fatalf("replay flags wrong: %+v", cfg)
	}
	if cfg.recLimit != 1048576 {
		t.Fatalf("record-limit = %d", cfg.recLimit)
	}
	// A record-only daemon has something to do.
	if _, err := parseFlags([]string{"-record", "sess2"}); err != nil {
		t.Fatalf("record-only rejected: %v", err)
	}
	// Recording over the session being replayed is rejected.
	if _, err := parseFlags([]string{"-replay", "sess", "-record", "sess", "-subscribers", ":0"}); err == nil {
		t.Fatal("-replay dir == -record dir should be rejected")
	}
}

// TestGscopedRecordReplayRoundTrip is the daemon-level e2e for the flight
// recorder: a publisher streams into a recording relay; a second relay
// replays the sealed session as fast as possible to a downstream
// subscriber, whose received tuple stream must be wire-identical to what
// was published.
func TestGscopedRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir() + "/session"
	in := make([]tuple.Tuple, 500)
	for i := range in {
		in[i] = tuple.Tuple{Time: int64(i) * 3, Value: float64(i%17) + 0.25, Name: "cps"}
	}

	// Phase 1: record. No -for: stopped explicitly once everything is on
	// the wire.
	rec := startRelay(t, "-listen", "127.0.0.1:0", "-record", dir)
	c, err := netscope.Dial(rec.PubAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(in); i += 50 {
		if err := c.SendBatch(in[i : i+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, written := rec.srv.FlightLog().Stats(); written >= int64(len(in)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flight log never drained")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()  //nolint:errcheck
	rec.stop() // cleanup (via startRelay) seals the session

	// Wait for the recording relay to actually seal the log before
	// replaying: its run() returns asynchronously after stop().
	testutil.WaitFor(t, "session to seal", func() bool {
		sess, err := reclog.OpenSession(dir)
		return err == nil && sess.Tuples() >= int64(len(in))
	})

	// Phase 2: replay through a fresh relay with a subscriber. -for keeps
	// the daemon serving after the replay finishes; a huge -snapshot
	// window means even a subscriber racing the fast replay sees the
	// whole stream via the connect-time snapshot.
	rep := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-replay", dir, "-speed", "0", "-snapshot", "24h", "-subqueue", "65536",
		"-for", "1m")

	var mu sync.Mutex
	var got []tuple.Tuple
	conn := readTuples(t, rep.SubAddr.String(), &got, &mu)
	defer conn.Close()

	select {
	case <-rep.replayDone:
	case <-time.After(10 * time.Second):
		t.Fatal("replay never completed")
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= len(in) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber got %d/%d tuples", n, len(in))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	want := tuple.AppendWireBatch(nil, in)
	have := tuple.AppendWireBatch(nil, got[:len(in)])
	if !bytes.Equal(want, have) {
		t.Fatalf("replayed stream differs from recording (%d tuples)", len(got))
	}
}

// TestGscopedReplayWindow replays a recorded session with -from/-to and
// checks only the window is delivered, seeked via the segment index.
func TestGscopedReplayWindow(t *testing.T) {
	dir := t.TempDir() + "/session"
	lg, err := reclog.Open(dir, reclog.Options{SegmentBytes: 2048, QueueLimit: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var in []tuple.Tuple
	for i := 0; i < 2000; i++ {
		in = append(in, tuple.Tuple{Time: int64(i) * 10, Value: float64(i), Name: "x"})
	}
	for i := 0; i < len(in); i += 100 {
		lg.Append(in[i : i+100])
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	rep := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-replay", dir, "-speed", "0", "-from", "5s", "-to", "10s",
		"-snapshot", "24h", "-subqueue", "65536", "-for", "1m")
	var mu sync.Mutex
	var got []tuple.Tuple
	conn := readTuples(t, rep.SubAddr.String(), &got, &mu)
	defer conn.Close()

	select {
	case <-rep.replayDone:
	case <-time.After(10 * time.Second):
		t.Fatal("replay never completed")
	}
	var want []tuple.Tuple
	for _, tu := range in {
		if tu.Time >= 5000 && tu.Time <= 10000 {
			want = append(want, tu)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= len(want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber got %d/%d tuples", n, len(want))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(tuple.AppendWireBatch(nil, want), tuple.AppendWireBatch(nil, got[:len(want)])) {
		t.Fatalf("window replay differs: got %d tuples, want %d", len(got), len(want))
	}
}

// TestReplayRelayFailedStartupDoesNotHang: when newRelay fails after the
// -replay session was opened (e.g. the listen port is taken), the error
// cleanup path must not wait for a replay goroutine that was never
// started.
func TestReplayRelayFailedStartupDoesNotHang(t *testing.T) {
	dir := t.TempDir() + "/session"
	lg, err := reclog.Open(dir, reclog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lg.Append([]tuple.Tuple{{Time: 1, Value: 1, Name: "x"}})
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0") // occupy a port
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg, err := parseFlags([]string{"-replay", dir, "-subscribers", ":0",
		"-listen", ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := newRelay(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("listen on an occupied port should fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("newRelay error path hung (waited on a replay that never started)")
	}
}

func TestParseFlagsV2Subscription(t *testing.T) {
	cfg, err := parseFlags([]string{"-upstream", "hub:7421", "-subscribers", ":0",
		"-signals", "cpu.*,mem", "-max-rate", "30", "-since", "10s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.maxRate != 30 || cfg.since != 10*time.Second {
		t.Fatalf("v2 flags wrong: %+v", cfg)
	}
	if got := strings.Join(cfg.signals, "|"); got != "cpu.*|mem" {
		t.Fatalf("signals = %q", got)
	}
}

func TestParseFlagsRejectsBadV2Flags(t *testing.T) {
	if _, err := parseFlags([]string{"-subscribers", ":0", "-max-rate", "-1"}); err == nil {
		t.Fatal("negative -max-rate accepted")
	}
	if _, err := parseFlags([]string{"-subscribers", ":0", "-max-rate", "10"}); err == nil {
		t.Fatal("-max-rate without -upstream accepted")
	}
	if _, err := parseFlags([]string{"-subscribers", ":0", "-since", "10s"}); err == nil {
		t.Fatal("-since without -upstream accepted")
	}
	if _, err := parseFlags([]string{"-upstream", "h:1", "-subscribers", ":0", "-since", "-10s"}); err == nil {
		t.Fatal("negative -since accepted")
	}
}

func TestParseFlagsParamMode(t *testing.T) {
	cfg, err := parseFlags([]string{"-upstream", "hub:7421", "param", "set", "delay-ms", "300"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(cfg.paramCmd, " ") != "param set delay-ms 300" {
		t.Fatalf("paramCmd = %v", cfg.paramCmd)
	}
	if _, err := parseFlags([]string{"param", "list"}); err == nil {
		t.Fatal("param mode without -upstream accepted")
	}
	if _, err := parseFlags([]string{"-upstream", "h:1", "param", "set", "x"}); err == nil {
		t.Fatal("param set without a value accepted")
	}
	if _, err := parseFlags([]string{"-upstream", "h:1", "bogus"}); err == nil {
		t.Fatal("unknown positional command accepted")
	}
}

// TestGscopedParamGetSet drives the gscopectl-style path end to end: a
// displaying relay exposes delay-ms; the one-shot param mode sets it
// (clamped to its bounds), reads it back, and lists it — all through the
// same subscriber socket the viewers use.
func TestGscopedParamGetSet(t *testing.T) {
	r := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-signals", "cps")
	addr := r.SubAddr.String()

	run := func(args ...string) string {
		t.Helper()
		cfg, err := parseFlags(append([]string{"-upstream", addr}, args...))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runParamCmd(cfg, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String()
	}
	if got := run("param", "set", "delay-ms", "300"); !strings.Contains(got, "param-ok delay-ms 300") {
		t.Fatalf("set reply = %q", got)
	}
	if got := run("param", "get", "delay-ms"); !strings.Contains(got, "param delay-ms 300") {
		t.Fatalf("get reply = %q", got)
	}
	// Out-of-bounds set clamps server-side (delay-ms is bounded at 60s).
	if got := run("param", "set", "delay-ms", "999999"); !strings.Contains(got, "param-ok delay-ms 60000") {
		t.Fatalf("clamped set reply = %q", got)
	}
	if got := run("param", "list"); !strings.Contains(got, "delay-ms") || !strings.Contains(got, "mode=rw") {
		t.Fatalf("list reply = %q", got)
	}
	// Errors surface as errors, not output.
	cfg, err := parseFlags([]string{"-upstream", addr, "param", "get", "nope"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runParamCmd(cfg, &out); err == nil {
		t.Fatal("unknown parameter should error")
	}
}

// TestRelayFilteredUpstream: a chained relay with -signals subscribes
// upstream per-signal, so only the filtered stream crosses the link and
// reaches downstream viewers.
func TestRelayFilteredUpstream(t *testing.T) {
	hub := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0")
	chained := startRelay(t, "-listen", "127.0.0.1:0", "-subscribers", "127.0.0.1:0",
		"-upstream", hub.SubAddr.String(), "-signals", "cps", "-unixtime=false")

	var mu sync.Mutex
	var got []tuple.Tuple
	conn := readTuples(t, chained.SubAddr.String(), &got, &mu)
	defer conn.Close()

	c, err := netscope.Dial(hub.PubAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		c.Send(time.Duration(i)*time.Millisecond, "cps", float64(i))  //nolint:errcheck
		c.Send(time.Duration(i)*time.Millisecond, "junk", float64(i)) //nolint:errcheck
	}
	c.Flush() //nolint:errcheck

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("filtered relay delivered %d/5", n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tu := range got {
		if tu.Name != "cps" {
			t.Fatalf("junk crossed the filtered relay: %+v", tu)
		}
	}
}

// TestRelayHTTPGateway covers the -http lane end to end: a publisher
// streams into the daemon, a browser-shaped client reads the dashboard,
// the query API and a live SSE stream, and the -ansi status line grows
// its web column.
func TestRelayHTTPGateway(t *testing.T) {
	r := startRelay(t, "-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-signals", "cps", "-unixtime=false")
	if r.WebAddr == nil {
		t.Fatal("-http did not bind")
	}
	base := "http://" + r.WebAddr.String()
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	t.Cleanup(tr.CloseIdleConnections)

	c, err := netscope.Dial(r.PubAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		c.Send(time.Duration(i)*100*time.Millisecond, "cps", float64(i)) //nolint:errcheck
	}
	c.Flush() //nolint:errcheck

	// The dashboard is embedded and served at /.
	resp, err := client.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Contains(page, []byte("<canvas")) {
		t.Fatalf("dashboard: %d (%d bytes)", resp.StatusCode, len(page))
	}

	// The daemon registered delay-ms; the REST plane can read and set it.
	resp, err = client.Get(base + "/v1/params/delay-ms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"name":"delay-ms"`)) {
		t.Fatalf("params: %d %s", resp.StatusCode, body)
	}

	// /v1/view sees the published history (-http enables the store).
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err = client.Get(base + "/v1/view?signals=cps")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("view: %d %s", resp.StatusCode, body)
		}
		if bytes.Contains(body, []byte(`"name":"cps"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("view never saw cps: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A live SSE stream delivers a fresh delta.
	resp, err = client.Get(base + "/v1/stream?signals=cps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	lines := make(chan string, 64)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	c.Send(5*time.Second, "cps", 42) //nolint:errcheck
	c.Flush()                        //nolint:errcheck
	sawBatch := false
	timeout := time.After(5 * time.Second)
	for !sawBatch {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("sse stream ended early")
			}
			if line == "event: batch" {
				sawBatch = true
			}
		case <-timeout:
			t.Fatal("no batch event on the live stream")
		}
	}

	// The status line gained the web column, allocation-free as ever.
	status := make(chan []byte, 1)
	r.loop.Invoke(func() { status <- r.appendStatus(nil) })
	select {
	case line := <-status:
		if !bytes.Contains(line, []byte("web clients=1")) {
			t.Fatalf("status line = %q", line)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("status line never rendered")
	}
}
