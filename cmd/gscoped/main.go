// Command gscoped is the scope daemon for distributed visualization: the
// §4.4 server grown into a fan-out relay. It ingests tuple streams from
// gscope publishers, optionally displays them on a local scope (rendered
// periodically as a PNG and/or painted live as ANSI art), and re-publishes
// the merged stream to any number of downstream subscribers — each new
// subscriber first receives a snapshot of the recent display window, then
// live deltas. Relays chain: -upstream subscribes this daemon to another
// gscoped's -subscribers port, so one instrumented application can feed a
// tree of viewers.
//
// -http attaches the web gateway (internal/webscope): an embedded
// HTML+canvas dashboard at /, the same live stream over Server-Sent
// Events and WebSocket, historical envelope queries over /v1/view, and
// REST access to the control parameters — so a browser is a viewer too.
// See docs/HTTP.md for the endpoint reference.
//
// The flight recorder (-record) appends the merged stream to a segmented
// on-disk session (internal/reclog): bounded retention, replayable later.
// -replay streams a recorded session back through the same pipeline —
// display, fan-out, even re-recording — at the recorded cadence, ×N, or as
// fast as possible, optionally windowed with -from/-to.
//
// -wire 3 selects the binary v3 encoding (docs/WIRE.md) where this daemon
// is the one choosing an encoding: the -upstream subscription rides binary
// frames and -record writes binary segments. Everything this daemon
// serves to others negotiates per connection regardless — text publishers
// and v1/v2 subscribers are unaffected, and a relay chain may mix wire
// versions hop by hop.
//
// Usage:
//
//	gscoped -listen :7420 -signals cps,errps,tput -delay 200ms -png live.png
//	gscoped -listen :7420 -subscribers :7421              # headless fan-out hub
//	gscoped -listen :7420 -http :8080                     # browser viewers
//	gscoped -upstream hub:7421 -subscribers :7422         # chained relay
//	gscoped -listen :7420 -subscribers :7421 -record ./session   # flight recorder
//	gscoped -replay ./session -subscribers :7421 -speed 4        # replay at ×4
//	gscoped -replay ./session -signals cps -speed 0 -from 10s -to 20s -png out.png
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/draw"
	"repro/internal/glib"
	"repro/internal/gtk"
	"repro/internal/netscope"
	"repro/internal/reclog"
	"repro/internal/tuple"
	"repro/internal/webscope"
)

// config is the parsed command line.
type config struct {
	listen      string
	listenUDP   string
	subscribers string
	httpAddr    string
	upstream    string
	signals     []string
	maxRate     float64
	since       time.Duration
	delay       time.Duration
	period      time.Duration
	snapshot    time.Duration
	subQueue    int
	pngOut      string
	rec         string
	recLimit    int64
	replay      string
	speed       float64
	from        time.Duration
	to          time.Duration
	ansi        bool
	width       int
	height      int
	runFor      time.Duration
	unixTS      bool
	wire        int

	// paramCmd holds a one-shot control-plane command ("param list",
	// "param get <name>", "param set <name> <value>") run against the
	// -upstream hub's subscriber socket instead of starting a relay.
	paramCmd []string
}

// parseFlags parses args (without the program name) into a config.
func parseFlags(args []string) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("gscoped", flag.ContinueOnError)
	var signals string
	fs.StringVar(&cfg.listen, "listen", "127.0.0.1:7420", "address to ingest publisher tuple streams on")
	fs.StringVar(&cfg.listenUDP, "publishers-udp", "", "also ingest datagram (UDP) publishers on this address: the lossy lane with reorder buffering and NACK recovery (docs/WIRE.md §D)")
	fs.StringVar(&cfg.subscribers, "subscribers", "", "address to serve downstream subscribers on (fan-out hub)")
	fs.StringVar(&cfg.httpAddr, "http", "", "serve the web gateway on this address: embedded dashboard at /, SSE and WebSocket live streams, and the /v1 query API (docs/HTTP.md)")
	fs.StringVar(&cfg.upstream, "upstream", "", "subscribe to an upstream gscoped hub and relay its stream")
	fs.StringVar(&signals, "signals", "", "comma-separated signal names/globs: displayed locally, and (with -upstream) the per-signal upstream subscription filter")
	fs.Float64Var(&cfg.maxRate, "max-rate", 0, "with -upstream: cap the upstream subscription at this many tuples/s per signal (server-side decimation; 0 = unlimited)")
	fs.DurationVar(&cfg.since, "since", 0, "with -upstream: backfill this much trailing history on first connect (e.g. 10s)")
	fs.DurationVar(&cfg.delay, "delay", 200*time.Millisecond, "buffered display delay")
	fs.DurationVar(&cfg.period, "period", 50*time.Millisecond, "polling period")
	fs.DurationVar(&cfg.snapshot, "snapshot", netscope.DefaultSnapshotWindow, "history window replayed to new subscribers")
	fs.IntVar(&cfg.subQueue, "subqueue", netscope.DefaultSubscriberQueueLimit, "per-subscriber outbound queue bound, in chunks (one per delivered batch)")
	fs.StringVar(&cfg.pngOut, "png", "", "write the current frame to this PNG periodically")
	fs.StringVar(&cfg.rec, "record", "", "flight-record the merged stream into this session directory (segmented, bounded)")
	fs.Int64Var(&cfg.recLimit, "record-limit", 0, "flight-recorder retention budget in bytes (0 = default)")
	fs.StringVar(&cfg.replay, "replay", "", "replay a recorded session directory through the pipeline")
	fs.Float64Var(&cfg.speed, "speed", 1, "replay pacing: 1 = recorded cadence, 2 = twice as fast, 0 = as fast as possible")
	fs.DurationVar(&cfg.from, "from", 0, "replay only tuples stamped at or after this offset on the recorded timeline")
	fs.DurationVar(&cfg.to, "to", 0, "replay only tuples stamped at or before this offset (0 = to the end)")
	fs.BoolVar(&cfg.ansi, "ansi", false, "paint the scope as ANSI art on stdout")
	fs.IntVar(&cfg.width, "width", 600, "canvas width")
	fs.IntVar(&cfg.height, "height", 200, "canvas height")
	fs.DurationVar(&cfg.runFor, "for", 0, "exit after this long (0 = run forever)")
	fs.BoolVar(&cfg.unixTS, "unixtime", true, "treat incoming timestamps as Unix-epoch ms (clients stamp with a shared clock)")
	fs.IntVar(&cfg.wire, "wire", 0, "wire version for the -upstream subscription and -record segments: 0/1/2 = text, 3 = binary frames (see docs/WIRE.md)")
	if err := fs.Parse(args); err != nil {
		// fs.Parse already printed the error (or the -h usage).
		return nil, err
	}
	fail := func(msg string) (*config, error) {
		err := errors.New(msg)
		fmt.Fprintln(fs.Output(), "gscoped:", err)
		return nil, err
	}
	for _, name := range strings.Split(signals, ",") {
		if name = strings.TrimSpace(name); name != "" {
			// Reject names the §3.3 wire format cannot carry up front —
			// the daemon registers them as scope signals and echoes them
			// into streams and recordings.
			if err := tuple.ValidateName(name); err != nil {
				err = fmt.Errorf("-signals: %w", err)
				fmt.Fprintln(fs.Output(), "gscoped:", err)
				return nil, err
			}
			cfg.signals = append(cfg.signals, name)
		}
	}
	if cfg.maxRate < 0 {
		return fail("-max-rate must not be negative")
	}
	if cfg.since < 0 {
		return fail("-since must not be negative (it is a trailing window)")
	}
	if args := fs.Args(); len(args) > 0 {
		// One-shot control-plane mode: gscoped -upstream hub:7421 param ...
		if args[0] != "param" {
			return fail(fmt.Sprintf("unknown command %q (only \"param\" is supported)", args[0]))
		}
		if cfg.upstream == "" {
			return fail("param commands need -upstream to name the hub's subscriber address")
		}
		ok := len(args) >= 2 && (args[1] == "list" && len(args) == 2 ||
			args[1] == "get" && len(args) == 3 ||
			args[1] == "set" && len(args) == 4)
		if !ok {
			return fail("usage: param list | param get <name> | param set <name> <value>")
		}
		cfg.paramCmd = args
		return cfg, nil
	}
	if cfg.maxRate > 0 && cfg.upstream == "" {
		return fail("-max-rate shapes the upstream subscription and needs -upstream")
	}
	if cfg.since != 0 && cfg.upstream == "" {
		return fail("-since backfills the upstream subscription and needs -upstream")
	}
	switch cfg.wire {
	case 0, 1, 2, 3:
	default:
		return fail("-wire must be 0, 1, 2 or 3")
	}
	if cfg.wire == 3 && cfg.upstream == "" && cfg.rec == "" {
		return fail("-wire 3 selects the binary encoding for -upstream and/or -record; it needs one of them")
	}
	if len(cfg.signals) == 0 && cfg.subscribers == "" && cfg.rec == "" && cfg.httpAddr == "" {
		return fail("nothing to do: need -signals (local display), -subscribers (fan-out), -http (web viewers) and/or -record, e.g. -signals cps,errps")
	}
	if len(cfg.signals) == 0 && (cfg.pngOut != "" || cfg.ansi) {
		return fail("-png/-ansi need -signals to display")
	}
	if cfg.replay != "" && cfg.replay == cfg.rec {
		return fail("-replay and -record must name different session directories")
	}
	return cfg, nil
}

// errRelayClosed reports an upstream connect that finished after the
// relay closed.
var errRelayClosed = errors.New("gscoped: relay closed")

// relay is a running gscoped: ingest server, optional local scope, optional
// fan-out side, optional upstream subscription.
type relay struct {
	cfg    *config
	loop   *glib.Loop
	scope  *core.Scope
	widget *gtk.ScopeWidget
	srv    *netscope.Server

	status io.Writer
	closed atomic.Bool
	stopRC chan struct{} // closed by cleanup; aborts an in-flight replay
	stopRn sync.Once

	replaySess *reclog.Session

	// replayDone is closed when the -replay pass finishes (tests and the
	// shutdown path wait on it); nil when -replay is off. replayStarted
	// records that replayLoop was actually spawned — newRelay error paths
	// reach cleanup before run() starts it, and waiting on replayDone
	// there would hang forever.
	replayDone    chan struct{}
	replayStarted atomic.Bool

	upMu sync.Mutex
	up   *netscope.Subscriber
	// redials counts running redialUpstream goroutines; cleanup waits
	// for them.
	redials sync.WaitGroup

	// statusBuf is the reused render buffer for the -ansi stats line; the
	// once-a-second repaint appends into it instead of allocating.
	statusBuf []byte

	// PubAddr is the bound publisher-ingest address, UDPAddr the bound
	// datagram-ingest address (nil without -publishers-udp), SubAddr the
	// bound subscriber address (nil when fan-out is off), WebAddr the
	// bound web-gateway address (nil without -http).
	PubAddr net.Addr
	UDPAddr net.Addr
	SubAddr net.Addr
	WebAddr net.Addr
}

// newRelay binds the listeners and assembles the pipeline; run starts it.
func newRelay(cfg *config) (*relay, error) {
	r := &relay{cfg: cfg, loop: glib.NewLoop(glib.RealClock{}), status: os.Stderr,
		stopRC: make(chan struct{})}
	if len(cfg.signals) > 0 {
		r.scope = core.New(r.loop, "gscoped", cfg.width, cfg.height)
		for _, name := range cfg.signals {
			if _, err := r.scope.AddSignal(core.Sig{Name: name, Kind: core.KindBuffer}); err != nil {
				return nil, err
			}
		}
		r.scope.SetDelay(cfg.delay)
		if err := r.scope.SetPollingMode(cfg.period); err != nil {
			return nil, err
		}
		r.widget = gtk.NewScopeWidget(r.scope)
	}

	r.srv = netscope.NewServer(r.loop)
	r.srv.SetSnapshotWindow(cfg.snapshot)
	r.srv.SetSubscriberQueueLimit(cfg.subQueue)
	// The daemon's own control parameters, reachable over the subscriber
	// socket's v2 plane (`gscoped -upstream host:port param list`).
	params := core.NewParamSet()
	r.srv.SetParams(params)
	if r.scope != nil {
		// delay-ms: the §3.2 display delay, remotely tunable. The setter
		// runs on the loop (network sets are handled there), which is the
		// thread SetDelay requires.
		var delayMS core.IntVar
		delayMS.Store(cfg.delay.Milliseconds())
		scope := r.scope
		if err := params.Add(&core.Param{
			Name: "delay-ms",
			Get:  func() float64 { return float64(delayMS.Load()) },
			Set: func(v float64) {
				delayMS.Store(int64(v))
				scope.SetDelay(time.Duration(v) * time.Millisecond)
			},
			Min: 0, Max: 60_000, Step: 50,
		}); err != nil {
			return nil, err
		}
		r.srv.Attach(r.scope)
		if cfg.unixTS {
			// Rebase shared-clock (Unix ms) stamps onto this scope's
			// timeline, which began at process start. Re-published
			// tuples keep their original stamps.
			origin := time.Now()
			r.srv.MapTime = func(at time.Duration) time.Duration {
				return at - time.Duration(origin.UnixNano())
			}
		}
	}
	if cfg.rec != "" {
		if _, err := r.srv.Record(cfg.rec, reclog.Options{TotalBytes: cfg.recLimit, WireVersion: cfg.wire}); err != nil {
			return nil, err
		}
	}
	if cfg.replay != "" {
		sess, err := reclog.OpenSession(cfg.replay)
		if err != nil {
			return nil, err
		}
		r.replaySess = sess
		r.replayDone = make(chan struct{})
	}

	pubAddr, err := r.srv.Listen(cfg.listen)
	if err != nil {
		r.cleanup()
		return nil, err
	}
	r.PubAddr = pubAddr
	if cfg.listenUDP != "" {
		udpAddr, err := r.srv.ListenPublishersUDP(cfg.listenUDP)
		if err != nil {
			r.cleanup()
			return nil, err
		}
		r.UDPAddr = udpAddr
	}
	if cfg.subscribers != "" {
		subAddr, err := r.srv.ListenSubscribers(cfg.subscribers)
		if err != nil {
			r.cleanup()
			return nil, err
		}
		r.SubAddr = subAddr
	}
	if cfg.httpAddr != "" {
		// Browser viewers want history: trailing-window stream
		// subscriptions and /v1/view both read the tiered backfill store.
		r.srv.SetBackfillRetention(0)
		webAddr, err := r.srv.ListenWeb(cfg.httpAddr, webscope.New(r.srv, webscope.Options{}))
		if err != nil {
			r.cleanup()
			return nil, err
		}
		r.WebAddr = webAddr
	}
	if cfg.upstream != "" {
		if err := r.connectUpstream(true); err != nil {
			r.cleanup()
			return nil, err
		}
	}
	return r, nil
}

// upstreamOpts builds the v2 subscription the relay asks of its upstream
// hub: the -signals filter and -max-rate decimation on every connect, and
// the -since backfill on the first connect only (a redial after an outage
// must not replay a stale window into downstream viewers). With no options
// the relay stays a plain v1 subscriber.
func (r *relay) upstreamOpts(first bool) []netscope.SubscribeOption {
	var opts []netscope.SubscribeOption
	if len(r.cfg.signals) > 0 {
		opts = append(opts, netscope.WithSignals(r.cfg.signals...))
	}
	if r.cfg.maxRate > 0 {
		opts = append(opts, netscope.WithMaxRate(r.cfg.maxRate))
	}
	if first && r.cfg.since > 0 {
		opts = append(opts, netscope.WithSince(-r.cfg.since))
	}
	if r.cfg.wire == 3 {
		opts = append(opts, netscope.WithWireVersion(3))
	}
	return opts
}

// connectUpstream subscribes to the upstream hub and arranges automatic
// redial with backoff when the hub goes away, so a chained relay survives
// hub restarts instead of silently serving a frozen stream.
func (r *relay) connectUpstream(first bool) error {
	up, err := netscope.SubscribeToBatch(r.loop, r.cfg.upstream, r.srv.InjectBatch,
		r.upstreamOpts(first)...)
	if err != nil {
		return err
	}
	up.OnClose(func(err error) {
		// Under upMu, so cleanup's Wait cannot miss this Add.
		r.upMu.Lock()
		defer r.upMu.Unlock()
		if r.closed.Load() {
			return
		}
		fmt.Fprintf(r.status, "gscoped: upstream %s lost (%v); redialing\n", r.cfg.upstream, err)
		r.redials.Add(1)
		go r.redialUpstream()
	})
	// cleanup sets closed before it takes upMu to read r.up, so a
	// subscriber that connects after close is closed here instead.
	r.upMu.Lock()
	closed := r.closed.Load()
	if !closed {
		r.up = up
	}
	r.upMu.Unlock()
	if closed {
		up.Close()
		return errRelayClosed
	}
	return nil
}

// redialUpstream retries the upstream with doubling backoff until it
// connects or the relay closes.
func (r *relay) redialUpstream() {
	defer r.redials.Done()
	backoff := netscope.DefaultReconnectMin
	t := time.NewTimer(backoff)
	defer t.Stop()
	for {
		select {
		case <-r.stopRC:
			return
		case <-t.C:
		}
		if err := r.connectUpstream(false); err == nil {
			fmt.Fprintf(r.status, "gscoped: upstream %s reconnected\n", r.cfg.upstream)
			return
		}
		backoff = min(2*backoff, netscope.DefaultReconnectMax)
		t.Reset(backoff)
	}
}

// run drives the loop until Quit (or -for elapses) and tears down.
func (r *relay) run(status io.Writer) error {
	r.status = status
	defer r.cleanup()
	cfg := r.cfg
	if r.widget != nil && cfg.ansi {
		fmt.Print(draw.ANSIClear())
	}
	if r.widget != nil && (cfg.pngOut != "" || cfg.ansi) {
		// Refresh rendered output once a second on the same loop.
		r.loop.TimeoutAdd(time.Second, func(int) bool {
			if cfg.pngOut != "" {
				if err := r.widget.RenderFrame().WritePNG(cfg.pngOut); err != nil {
					fmt.Fprintln(status, "gscoped:", err)
				}
			}
			if cfg.ansi {
				fmt.Print(draw.ANSIHome())
				r.widget.RenderFrame().WriteANSI(os.Stdout, draw.ANSIOptions{Scale: 3}) //nolint:errcheck
				r.statusBuf = r.appendStatus(r.statusBuf[:0])
				os.Stdout.Write(r.statusBuf) //nolint:errcheck
			}
			return true
		})
	}
	if cfg.runFor > 0 {
		r.loop.TimeoutAdd(cfg.runFor, func(int) bool {
			r.loop.Quit()
			return false
		})
	}
	if r.scope != nil {
		if err := r.scope.StartPolling(); err != nil {
			return err
		}
	}
	if r.replaySess != nil {
		r.replayStarted.Store(true)
		go r.replayLoop()
	}
	return r.loop.Run()
}

// appendStatus renders the -ansi stats line into dst and returns it,
// allocating nothing per refresh (the terminal repaints it every second):
// scope status, ingest and fan-out counters — drops are chunks lost to slow
// viewers, filt the tuples the v2 plane withheld per subscription — and,
// with -publishers-udp, the per-source datagram transport counters.
func (r *relay) appendStatus(dst []byte) []byte {
	dst = r.widget.AppendStatusLine(dst)
	conns, _, recv, _ := r.srv.Stats()
	st := r.srv.FanoutStats()
	dst = append(dst, "  clients="...)
	dst = strconv.AppendInt(dst, conns, 10)
	dst = append(dst, " recv="...)
	dst = strconv.AppendInt(dst, recv, 10)
	dst = append(dst, " subs="...)
	dst = strconv.AppendInt(dst, int64(r.srv.Subscribers()), 10)
	dst = append(dst, " drops="...)
	dst = strconv.AppendInt(dst, st.Dropped, 10)
	dst = append(dst, " filt="...)
	dst = strconv.AppendInt(dst, st.Filtered, 10)
	if r.UDPAddr != nil {
		dst = append(dst, "  "...)
		dst = r.srv.AppendUDPStats(dst)
	}
	if r.WebAddr != nil {
		dst = append(dst, "  "...)
		dst = r.srv.AppendWebStats(dst)
	}
	dst = append(dst, '\n')
	return dst
}

// replayLoop streams the -replay session through the delivery pipeline on
// its own goroutine: each batch is handed to the loop (InjectBatch must run
// there) and the replayer blocks until the loop has taken it, which both
// keeps the shared batch buffer valid and paces a saturating replay at the
// loop's own speed. With no -for deadline the daemon exits once the replay
// completes, like a batch job; with one it keeps serving subscribers.
func (r *relay) replayLoop() {
	defer close(r.replayDone)
	rep := reclog.NewReplayer(r.replaySess)
	rep.SetSpeed(r.cfg.speed)
	if r.cfg.from > 0 || r.cfg.to > 0 {
		rep.SetWindow(r.cfg.from, r.cfg.to)
	}
	errAborted := errors.New("replay aborted")
	err := rep.Run(func(batch []tuple.Tuple) error {
		done := make(chan struct{})
		r.loop.Invoke(func() {
			r.srv.InjectBatch(batch)
			close(done)
		})
		select {
		case <-done:
			return nil
		case <-r.stopRC:
			return errAborted
		}
	})
	if err != nil && !errors.Is(err, errAborted) {
		fmt.Fprintf(r.status, "gscoped: replay: %v\n", err)
	}
	if err == nil {
		fmt.Fprintf(r.status, "gscoped: replay complete: %d tuples from %s\n",
			rep.Delivered(), r.cfg.replay)
	}
	if r.cfg.runFor <= 0 && !r.closed.Load() {
		r.drainSubscribers(5 * time.Second)
		r.loop.Quit()
	}
}

// drainSubscribers waits (bounded) until every subscriber's outbound queue
// has flushed before the caller tears the loop down — quitting immediately
// after the last inject would cancel the write watches with the replay's
// tail still queued, truncating what downstream viewers receive.
func (r *relay) drainSubscribers(limit time.Duration) {
	deadline := time.Now().Add(limit)
	for !r.closed.Load() && time.Now().Before(deadline) {
		flushed := make(chan bool, 1)
		r.loop.Invoke(func() { flushed <- r.srv.SubscribersFlushed() })
		select {
		case ok := <-flushed:
			if ok {
				return
			}
		case <-r.stopRC:
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop makes run return.
func (r *relay) stop() { r.loop.Quit() }

func (r *relay) cleanup() {
	r.closed.Store(true)
	r.stopRn.Do(func() { close(r.stopRC) })
	if r.replayStarted.Load() {
		<-r.replayDone // the replayer must stop injecting before Close
	}
	r.upMu.Lock()
	up := r.up
	r.upMu.Unlock()
	if up != nil {
		up.Close()
	}
	r.redials.Wait()
	if r.srv != nil {
		r.srv.Close() // seals the flight-recorder session, if any
	}
}

// runParamCmd executes a one-shot control-plane command against the
// -upstream hub: it opens a stream-less v2 subscription on the same
// subscriber socket the viewers use, sends the command, and prints the
// reply frames (without their comment framing) to out. Errors from the hub
// ("# error ...") come back as errors.
func runParamCmd(cfg *config, out io.Writer) error {
	conn, err := net.DialTimeout("tcp", cfg.upstream, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	cmd := strings.Join(cfg.paramCmd, " ")
	if _, err := fmt.Fprintf(conn, "gscope-sub 2 stream=0\n%s\n", cmd); err != nil {
		return err
	}
	terminal := map[string]string{"list": "params-end", "get": "param", "set": "param-ok"}[cfg.paramCmd[1]]
	var wantName string
	if len(cfg.paramCmd) > 2 {
		wantName = cfg.paramCmd[2]
	}
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		f, ok := tuple.ParseControl(sc.Text())
		if !ok {
			continue
		}
		switch f.Verb {
		case "gscope-hub", "params":
			continue // the ack and the list header carry no values
		case "param":
			// Change notifications (name + value only) fan out to every
			// v2 subscriber; a concurrent set by someone else must not
			// masquerade as our reply or pollute the list output. Full
			// get/list replies carry the min/max/step/mode metadata.
			if len(f.Fields) <= 2 {
				continue
			}
		case "error":
			return fmt.Errorf("%s: %s", cmd, strings.Join(f.Fields, " "))
		}
		if f.Verb != "params-end" {
			fmt.Fprintln(out, strings.Join(append([]string{f.Verb}, f.Fields...), " "))
		}
		if f.Verb == terminal && (wantName == "" || f.Arg(0) == wantName) {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	return fmt.Errorf("%s: connection closed before a reply", cmd)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		// parseFlags (or flag itself) already reported the problem.
		os.Exit(2)
	}
	if cfg.paramCmd != nil {
		if err := runParamCmd(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	r, err := newRelay(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "gscoped: ingesting publishers on %s\n", r.PubAddr)
	if r.UDPAddr != nil {
		fmt.Fprintf(os.Stderr, "gscoped: ingesting datagram publishers on %s\n", r.UDPAddr)
	}
	if r.SubAddr != nil {
		fmt.Fprintf(os.Stderr, "gscoped: serving subscribers on %s\n", r.SubAddr)
	}
	if cfg.upstream != "" {
		fmt.Fprintf(os.Stderr, "gscoped: relaying upstream hub %s\n", cfg.upstream)
	}
	if cfg.rec != "" {
		fmt.Fprintf(os.Stderr, "gscoped: flight-recording to %s\n", cfg.rec)
	}
	if r.replaySess != nil {
		first, last, _ := r.replaySess.Bounds()
		fmt.Fprintf(os.Stderr, "gscoped: replaying %d tuples (%dms..%dms) from %s at speed %g\n",
			r.replaySess.Tuples(), first, last, cfg.replay, cfg.speed)
	}
	if err := r.run(os.Stderr); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gscoped:", err)
	os.Exit(1)
}
