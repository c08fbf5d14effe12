// Package netscope implements gscope's distributed-visualization support
// (§4.4): a single-threaded, I/O-driven client/server library. Clients
// asynchronously send BUFFER signal data in tuple format (§3.3) to a
// server; the server buffers the data and delivers it into one or more
// scopes, which display it with the user-specified delay. Data arriving
// after its display window has passed is dropped immediately.
//
// All server callbacks run on the owning glib loop's goroutine, so a server
// embedded in a GUI application shares one event loop with the scope
// display and needs no locking — the same structure as the paper's
// client-server library used by mxtraf.
//
// # Publisher protocol
//
// A publisher ([Client]) connection carries a plain §3.3 tuple stream, one
// tuple per line, with blank and '#' comment lines ignored:
//
//	1500 42.5 CWND
//	1550 41 CWND
//
// Lines that fail to parse are counted and skipped; the connection is
// never torn down for bad input. See package repro/internal/tuple for the
// full grammar.
//
// # Subscriber (fan-out) protocol
//
// The paper's library stops at one viewer: the server's scopes are local.
// The hub side of [Server] — [Server.ListenSubscribers] and
// [Server.Subscribe] — generalizes it into a publish/subscribe relay so a
// single merged stream can drive any number of concurrent synchronized
// viewers, and relays can be chained ([Server.Inject]).
//
// Two protocol revisions share the subscriber listener; the hub decides
// per connection by sniffing the first inbound line.
//
// Version 1 — the dumb tap. The client connects and sends nothing (any
// first line that is not a v2 handshake also selects v1, and is ignored).
// The connection is then write-only from the hub's point of view, framed
// entirely with '#' comment lines, so it is itself a valid tuple stream
// and a viewer that only wants the data can read it with a plain
// tuple.Reader and never notice the framing:
//
//	# gscope-hub 1
//	# snapshot tuples=2 window-ms=5000
//	1500 42.5 CWND
//	1550 41 CWND
//	# snapshot-end
//	1600 40 CWND          ← live deltas from here on
//
// Line one is the protocol banner (name and version). The snapshot header
// declares how many retained-history tuples follow — the hub keeps the most
// recent window of the merged stream (SetSnapshotWindow) so a viewer that
// connects mid-run starts with the recent display window instead of an
// empty screen — and "# snapshot-end" marks the snapshot/delta boundary.
// After that the connection carries every tuple the hub delivers, in
// delivery order. A silent client is committed to v1 after
// [DefaultHandshakeGrace]; the snapshot is captured at accept and deltas
// delivered while the hub waited are buffered behind it, so the stream is
// byte-identical to a hub that never sniffed.
//
// Version 2 — the query/control plane. The client's first line is a
// handshake carrying a [SubscriptionRequest]:
//
//	gscope-sub 2 signals=cpu.*,mem max-rate=30 since=-10000 cols=512 stream=0
//
// (every key optional; see the SubscriptionRequest fields). The hub
// answers with a v2 banner echoing the applied request, serves the
// requested history, and then streams deltas narrowed per subscription —
// name filters and rate decimation are applied before bytes are queued,
// so a viewer of 1 signal in 64 pays ~1/64 of the bandwidth:
//
//	# gscope-hub 2 signals=cpu.*,mem max-rate=30 since=-10000
//	# backfill tuples=40 since-ms=4000 source=history
//	...tuples...
//	# backfill-end
//	...filtered, decimated deltas...
//
// With no since, the v1-shaped snapshot (narrowed to the subscription) is
// sent instead of backfill. Backfill is served from the retained snapshot
// history (source=history), from the per-signal tiered min/max store at a
// requested resolution (cols=N → source=decimated, ≤2·cols tuples per
// signal however deep the window, the Trace.View property over the wire),
// or from the attached flight recorder (source=reclog, best-effort on a
// live log). After the handshake the inbound direction stays open as a
// command channel:
//
//	param list                → # params n=2 … # param <name> <value> min=… max=… step=… mode=rw|ro … # params-end
//	param get <name>          → # param <name> <value> min=… max=… step=… mode=…
//	param set <name> <value>  → # param-ok <name> <stored>      (clamped to the declared bounds)
//	anything else             → # error <message>
//
// and every successful set through the attached registry ([Server.SetParams])
// — from any subscriber or from the application itself — is fanned out to
// all v2 subscribers as "# param <name> <value>" notification frames.
// stream=0 subscribes to the control plane only.
//
// # Wire version 3 — binary framing
//
// Either direction can upgrade its tuple payload from text lines to the
// v3 binary framing specified in docs/WIRE.md: interned signal IDs
// declared by in-band dictionary frames, delta-of-delta varint
// timestamps, and XOR-compressed values, interleaved freely with ordinary
// text lines behind the 0xF5 frame marker.
//
// A publisher opts in with [Client.SetWireVersion](3); it announces
// itself with a "# gscope-pub 3" comment, but the server needs no
// warning — ingest autodetects frames per connection, so text and binary
// publishers coexist on one listener. A subscriber opts in by adding
// wire=3 to the v2 handshake (the [WithWireVersion] option); the hub
// echoes wire=3 in the banner and thereafter delivers snapshot, backfill
// and deltas as binary frames, while the banner and every control frame
// ('#' lines, param traffic) stay text. A hub too old to know the key
// ignores it and serves text — the subscriber's decoder handles either,
// so the downgrade is invisible. v1 and v2 text subscribers on the same
// hub receive byte-identical streams whether or not binary peers are
// attached.
//
// Each subscriber has a bounded outbound queue drained by its own writer
// goroutine (glib.WriteWatch). A slow or stalled viewer loses its own
// oldest queued chunks (drop-oldest, counted in [Server.SubscriberStats])
// but can never block the loop, the publishers, or other subscribers. The
// snapshot is enqueued as a single drop-exempt unit, so the bound can
// neither tear it nor evict the protocol banner. Tuples withheld by v2
// filters and decimation are counted in [Server.FanoutStats]. The web
// gateway's browser streams are subscribers of the same kind, registered
// with [Server.SubscribeSink] over the browser's own connection in a web
// [Encoding].
//
// # Batching
//
// The whole ingest/fan-out pipeline is batch-oriented: publisher bytes are
// decoded a read chunk at a time (tuple.StreamDecoder fed by one
// glib.WatchReaderSize read), delivered into attached scopes through the
// sharded Feed.PushBatch, and broadcast to subscribers as one wire-encoded
// chunk per batch shared across all their queues. A Subscriber decodes
// the hub's stream the same way, text or v3. Per-sample APIs
// (Client.Send, Server.Inject) remain as thin wrappers; Client.SendBatch,
// Server.InjectBatch and SubscribeToBatch keep the batch shape end to end
// through chained relays.
package netscope

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dgram"
	"repro/internal/glib"
	"repro/internal/reclog"
	"repro/internal/tuple"
)

// Server receives tuple streams from any number of clients and fans them
// into the feeds of attached scopes.
type Server struct {
	loop *glib.Loop
	ln   net.Listener
	acc  *glib.IOWatch

	scopes  []*core.Scope
	clients map[net.Conn]*glib.IOWatch

	// OnTuple, when set, observes every received tuple (on the loop
	// goroutine) before scope delivery.
	OnTuple func(tuple.Tuple)

	// MapTime, when set, rebases incoming timestamps onto the server
	// scope's timeline before delivery. The paper assumes distributed
	// data can be correlated (§1 fn. 1); in practice clients stamp
	// tuples with a shared clock (e.g. Unix time) and the server maps
	// that clock onto its own, with residual skew absorbed by the
	// display delay. The recorder always stores the original stamps.
	MapTime func(time.Duration) time.Duration

	flight    *reclog.Log
	flightDir string        // the recording directory, for v2 backfill reads
	mapped    []tuple.Tuple // MapTime rebase scratch, reused across batches
	intern    *tuple.Interner

	hub hubState

	// udpRecv is the datagram publisher listener, nil until
	// ListenPublishersUDP; its jitter buffer hands released batches to the
	// loop goroutine for injection (udp.go).
	udpRecv *dgram.Receiver

	// The web gateway attachment, nil until ListenWeb (web.go). webDone
	// closes when the serve goroutine exits; web is the lane's counters,
	// updated from the gateway's HTTP goroutines.
	webLn   net.Listener
	webSrv  *http.Server
	webH    WebHandler
	webDone chan struct{}
	web     WebCounters

	connects    int64
	disconnects int64
	received    int64
	parseErrors int64
	closed      bool
}

// NewServer creates a server on loop. Attach scopes, then call Listen.
func NewServer(loop *glib.Loop) *Server {
	return &Server{
		loop:    loop,
		clients: make(map[net.Conn]*glib.IOWatch),
		intern:  tuple.NewInterner(),
	}
}

// Attach adds a scope whose feed will receive every tuple. BUFFER signals
// on the scope pick out the names they display.
func (s *Server) Attach(sc *core.Scope) { s.scopes = append(s.scopes, sc) }

// Record attaches a flight recorder: every delivered batch is appended to
// a segmented reclog session under dir (see package repro/internal/reclog
// for the format, rotation and retention semantics). Recording taps the
// delivery pipeline at batch granularity, so its loop-side cost is one
// bounded-queue append per delivered batch; all file I/O happens on the
// log's own goroutine, and a stalled disk drops recorded batches (counted
// in the log's Stats) rather than ever blocking delivery. Recorded tuples
// keep their original timestamps even when MapTime rebases scope delivery,
// so a replayed session reproduces the wire stream, not the display. The
// log is closed by Server.Close; the returned Log exposes its counters.
func (s *Server) Record(dir string, opts reclog.Options) (*reclog.Log, error) {
	lg, err := reclog.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if s.flight != nil {
		s.flight.Close() //nolint:errcheck // superseded recorder; its data is sealed
	}
	s.flight = lg
	s.flightDir = dir
	return lg, nil
}

// FlightLog returns the attached flight recorder, or nil.
func (s *Server) FlightLog() *reclog.Log { return s.flight }

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting clients.
// It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netscope: %w", err)
	}
	s.ln = ln
	s.acc = s.loop.WatchAccept(ln, func(conn net.Conn, err error) bool {
		if err != nil {
			return false
		}
		s.connects++
		s.addClient(conn)
		return true
	})
	return ln.Addr(), nil
}

func (s *Server) addClient(conn net.Conn) {
	// Publisher streams are decoded and delivered a read-chunk at a time:
	// everything decoded from one network read becomes one batch, which
	// flows through scope feeds (Feed.PushBatch) and the fan-out hub (one
	// broadcast chunk) without ever touching a per-tuple lock. Each
	// connection carries a mixed wire stream — §3.3 text lines and v3
	// binary frames, freely interleaved (docs/WIRE.md) — with no up-front
	// negotiation: frames are self-marking, so the per-connection decoder
	// accepts either encoding at any line/frame boundary.
	var batch []tuple.Tuple
	dec := tuple.NewStreamDecoder()
	onLine := func(line string) {
		if !tuple.IsComment(line) {
			s.parseErrors++
		}
	}
	onTuples := func(ts []tuple.Tuple) { batch = append(batch, ts...) }
	w := s.loop.WatchReaderSize(conn, 64*1024, func(data []byte, err error) bool {
		batch = batch[:0]
		ferr := dec.Feed(data, onLine, onTuples)
		if err == io.EOF && ferr == nil {
			// An unterminated last line is still a line; after a
			// transport error it may be torn, so it is dropped.
			dec.Tail(onLine, onTuples)
		}
		s.received += int64(len(batch))
		s.deliverBatch(batch)
		if ferr != nil {
			// A bad text line is skippable (newlines resynchronize), but
			// malformed binary framing loses the frame boundaries: nothing
			// after it is decodable, so the connection must drop.
			s.parseErrors++
			err = ferr
		}
		if err != nil {
			s.disconnects++
			delete(s.clients, conn)
			conn.Close()
			return false
		}
		return true
	})
	s.clients[conn] = w
}

// deliverBatch runs the full delivery pipeline for a decoded batch:
// observers and the recorder see every tuple, attached scopes ingest the
// batch through their sharded feeds in one call, and the hub broadcasts it
// to subscribers as one chunk. MapTime rebasing applies only to scope
// delivery — the recorder and the relay stream keep the original stamps.
func (s *Server) deliverBatch(batch []tuple.Tuple) {
	if len(batch) == 0 {
		return
	}
	// Each connection's decoder has its own name table; interning shares
	// one name per signal across connections in everything retained.
	s.intern.CanonicalizeNames(batch)
	if s.OnTuple != nil {
		for _, t := range batch {
			s.OnTuple(t)
		}
	}
	if s.flight != nil {
		s.flight.Append(batch) // drop-safe; losses are counted in the log
	}
	feedBatch := batch
	if s.MapTime != nil {
		if cap(s.mapped) < len(batch) {
			s.mapped = make([]tuple.Tuple, 0, len(batch)+cap(s.mapped))
		}
		s.mapped = s.mapped[:len(batch)]
		for i, t := range batch {
			s.mapped[i] = tuple.Tuple{
				Time:  s.MapTime(t.Timestamp()).Milliseconds(),
				Value: t.Value,
				Name:  t.Name,
			}
		}
		feedBatch = s.mapped
	}
	for _, sc := range s.scopes {
		sc.Feed().PushBatch(feedBatch)
	}
	s.broadcastBatch(batch)
}

// Stats returns lifetime counters: client connects, disconnects, tuples
// received and lines that failed to parse.
func (s *Server) Stats() (connects, disconnects, received, parseErrors int64) {
	return s.connects, s.disconnects, s.received, s.parseErrors
}

// Clients returns the number of currently connected clients.
func (s *Server) Clients() int { return len(s.clients) }

// Close stops accepting, disconnects all clients and closes the flight
// recorder.
func (s *Server) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.acc != nil {
		s.acc.Cancel()
	}
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for conn, w := range s.clients {
		w.Cancel()
		conn.Close()
		delete(s.clients, conn)
	}
	// The web gateway goes down before the hub: closeWeb waits for every
	// in-flight SSE/WebSocket handler to exit, and those handlers hold
	// piped hub subscriptions that closeHub is about to tear out.
	if werr := s.closeWeb(); err == nil {
		err = werr
	}
	if s.udpRecv != nil {
		if uerr := s.udpRecv.Close(); err == nil {
			err = uerr
		}
	}
	if herr := s.closeHub(); err == nil {
		err = herr
	}
	if s.flight != nil {
		if ferr := s.flight.Close(); err == nil {
			err = ferr
		}
	}
	return err
}

// Client streams tuples to a server. Sends are asynchronous: Send enqueues
// and returns immediately while a writer goroutine drains the queue, so an
// instrumented time-sensitive application never blocks on the network —
// the property the paper's client library is built around. Clients made
// with DialReconnect additionally survive server restarts: the writer
// re-dials with exponential backoff and the queue (bounded, drop-oldest)
// buffers samples across the outage.
type Client struct {
	addr      string
	reconnect bool

	mu sync.Mutex
	// conn is nil while disconnected in reconnect mode.
	//gscope:guardedby mu
	conn net.Conn
	// q is the send queue, bounded for DialReconnect clients (SetQueueLimit).
	//gscope:guardedby mu
	q glib.DropQueue[tuple.Tuple]
	//gscope:guardedby mu
	probes map[string]*ClientProbe
	// inflight counts tuples taken by the writer, not yet confirmed written.
	//gscope:guardedby mu
	inflight int
	kick     chan struct{}
	// quit is closed by Close: the one event that cuts a reconnect
	// backoff short.
	quit chan struct{}
	//gscope:guardedby mu
	closed bool
	//gscope:guardedby mu
	sent int64
	//gscope:guardedby mu
	err error
	// wire selects the publish encoding: 3 = binary frames, else text.
	//gscope:guardedby mu
	wire int

	wbuf []byte // writer-goroutine-owned wire-encode buffer, reused per round

	// udp is the datagram lane for clients made with DialUDP, nil for
	// stream clients. Set before the writer goroutine starts, read-only
	// afterwards, so it needs no lock.
	udp *dgram.Publisher

	// reconnect-mode state
	backoffMin time.Duration
	backoffMax time.Duration
	//gscope:guardedby mu
	reconnects int64

	done chan struct{}
}

// errClientClosed is a send's error on a closed client with no writer error.
var errClientClosed = errors.New("netscope: client closed")

// Reconnect policy defaults used by DialReconnect.
const (
	DefaultReconnectMin     = 50 * time.Millisecond
	DefaultReconnectMax     = 5 * time.Second
	DefaultClientQueueLimit = 65536
)

// Dial connects to a netscope server. The returned client stops on the
// first write error; use DialReconnect for a client that rides out server
// restarts.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netscope: %w", err)
	}
	c := &Client{
		addr: addr,
		conn: conn,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.writer()
	return c, nil
}

// DialReconnect returns a client whose background writer establishes (and
// after failures re-establishes) the connection with exponential backoff
// between DefaultReconnectMin and DefaultReconnectMax. It never returns an
// error: the first connection attempt happens in the background too, so a
// publisher can start before its hub. While disconnected, sends accumulate
// in a queue bounded at DefaultClientQueueLimit tuples with a drop-oldest
// policy (see Dropped).
func DialReconnect(addr string) *Client {
	c := &Client{
		addr:       addr,
		reconnect:  true,
		backoffMin: DefaultReconnectMin,
		backoffMax: DefaultReconnectMax,
		q:          glib.NewDropQueue[tuple.Tuple](DefaultClientQueueLimit),
		kick:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go c.writer()
	return c
}

// SetWireVersion selects the publish encoding: 1 and 2 are the §3.3 text
// stream (the default), 3 the binary framing of docs/WIRE.md — interned
// signal IDs, delta-of-delta timestamps, XOR-compressed values. The server
// needs no configuration (frames are self-marking, and the two encodings
// may legally interleave on one connection), so the version can even be
// switched on a live client; it applies from the next written batch.
func (c *Client) SetWireVersion(v int) error {
	if v < 1 || v > 3 {
		return fmt.Errorf("netscope: unsupported wire version %d", v)
	}
	c.mu.Lock()
	c.wire = v
	c.mu.Unlock()
	return nil
}

// writer drains the queue until Close: it takes everything queued and
// ships it, handing the queue the previously drained batch so a
// steady-state publisher never allocates. Only the shipping differs by
// transport. A datagram client hands the batch to its dgram.Publisher,
// which retains its encoder, packet buffer and ring slots the way wbuf is
// retained here; datagrams are stateless, so there is nothing to dial and
// no write to fail. A stream client encodes and writes, redialing with
// backoff in reconnect mode.
func (c *Client) writer() {
	defer close(c.done)
	backoff := c.backoffMin
	// Binary encode state is connection-local: the server decodes each
	// connection from byte zero, so a redial resets the dictionary and
	// re-announces the advisory hello comment.
	var benc *tuple.BinaryEncoder
	helloNeeded := true
	var batch []tuple.Tuple
	for {
		c.mu.Lock()
		conn := c.conn
		closed := c.closed
		if conn == nil && c.udp == nil {
			c.mu.Unlock()
			if closed {
				return
			}
			nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
			if err != nil {
				backoff = c.sleep(backoff)
				continue
			}
			// Backoff resets on a successful write, not here: a server
			// that accepts and immediately resets must still back off.
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				nc.Close()
				return
			}
			c.conn = nc
			c.reconnects++
			c.mu.Unlock()
			if benc != nil {
				benc.Reset()
			}
			helloNeeded = true
			continue
		}

		batch = c.q.Take(batch)
		wire := c.wire
		c.inflight = len(batch)
		c.mu.Unlock()

		if len(batch) > 0 {
			var err error
			switch {
			case c.udp != nil:
				c.udp.Publish(batch)
			case wire == 3:
				if benc == nil {
					benc = tuple.NewBinaryEncoder()
				}
				c.wbuf = c.wbuf[:0]
				if helloNeeded {
					// Advisory: servers autodetect frames regardless; the
					// hello makes captures and logs self-describing.
					c.wbuf = append(c.wbuf, "# gscope-pub 3\n"...)
				}
				c.wbuf = benc.AppendBatch(c.wbuf, batch)
				_, err = conn.Write(c.wbuf)
			default:
				c.wbuf = tuple.AppendWireBatch(c.wbuf[:0], batch)
				_, err = conn.Write(c.wbuf)
			}
			if err != nil {
				if c.reconnect {
					conn.Close()
					c.mu.Lock()
					c.conn = nil
					// Requeue the unsent batch ahead of anything
					// enqueued meanwhile; the bound drops its oldest.
					c.q.Requeue(batch)
					c.inflight = 0
					c.mu.Unlock()
					// Back off before redialing; without this a
					// crash-looping server whose listener still
					// accepts would be hammered at full speed.
					backoff = c.sleep(backoff)
					continue
				}
				c.mu.Lock()
				if c.err == nil {
					c.err = err
				}
				c.closed = true
				c.inflight = 0
				c.mu.Unlock()
				return
			}
			helloNeeded = false
			c.mu.Lock()
			c.sent += int64(len(batch))
			c.inflight = 0
			c.mu.Unlock()
			backoff = c.backoffMin
			continue
		}
		if closed {
			return
		}
		<-c.kick
	}
}

// sleep waits out a reconnect backoff of d, cut short only by Close, and
// returns the next backoff: d doubled, capped at backoffMax. Sends do not
// end it: every send kicks the writer, so an active publisher would
// otherwise redial as fast as its connections fail.
func (c *Client) sleep(d time.Duration) time.Duration {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.quit:
	}
	return min(2*d, c.backoffMax)
}

// wake nudges the writer goroutine without blocking.
//
//gscope:hotpath
func (c *Client) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Send enqueues one sample stamped at the given offset on the shared
// timeline. It never blocks on the network. It returns the first write
// error encountered by the background writer, if any.
func (c *Client) Send(at time.Duration, name string, v float64) error {
	return c.SendTuple(tuple.Tuple{Time: at.Milliseconds(), Value: v, Name: name})
}

// SendTuple enqueues an encoded tuple.
func (c *Client) SendTuple(t tuple.Tuple) error {
	one := [1]tuple.Tuple{t}
	return c.SendBatch(one[:])
}

// SendBatch enqueues a whole batch under one lock acquisition and one
// writer wake-up — the publisher-side counterpart of the server's batch
// ingest. The batch is copied; the caller may reuse it.
func (c *Client) SendBatch(batch []tuple.Tuple) error {
	if len(batch) == 0 {
		return nil
	}
	c.mu.Lock()
	err, closed := c.err, c.closed
	if !closed {
		slots := c.q.Extend(len(batch))
		copy(slots, batch[len(batch)-len(slots):])
	}
	c.mu.Unlock()
	if closed && err == nil {
		return errClientClosed
	}
	c.wake()
	return err
}

// ClientProbe is a pre-registered publish handle for one signal on a
// Client — the remote counterpart of core.Probe. Registration validates
// the name once and pins one canonical string, so every enqueued sample
// shares it (no per-sample name allocation, O(1) run detection in the
// writer's batch encoder) and publishing N samples of one signal validates
// and prepares the name once per batch run, not once per sample. Probes
// are idempotent per name and safe for concurrent use (sends serialize on
// the client's queue lock like every other send).
type ClientProbe struct {
	c    *Client
	name string
}

// Probe validates and registers a signal name, returning its publish
// handle. Calling Probe again with the same name returns the same handle.
// Names the wire format cannot carry are rejected (tuple.ValidateName).
func (c *Client) Probe(name string) (*ClientProbe, error) {
	if err := tuple.ValidateName(name); err != nil {
		return nil, fmt.Errorf("netscope: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.probes[name]; p != nil {
		return p, nil
	}
	if c.probes == nil {
		c.probes = make(map[string]*ClientProbe)
	}
	p := &ClientProbe{c: c, name: strings.Clone(name)}
	c.probes[p.name] = p
	return p, nil
}

// Name returns the probe's canonical signal name.
func (p *ClientProbe) Name() string { return p.name }

// Send enqueues one sample of the probe's signal. Like Client.Send it
// never blocks on the network and returns the background writer's first
// error, if any.
func (p *ClientProbe) Send(at time.Duration, v float64) error {
	return p.c.SendProbeBatch(p, []tuple.Sample{{At: at, Value: v}})
}

// SendBatch enqueues a run of samples under one lock acquisition.
//
//gscope:hotpath
func (p *ClientProbe) SendBatch(samples []tuple.Sample) error {
	return p.c.SendProbeBatch(p, samples)
}

// SendProbeBatch enqueues a same-signal run of samples under one lock
// acquisition and one writer wake-up. The samples are copied; the caller
// may reuse the slice. Combined with the writer's reusable queue and
// encode buffers this is the zero-allocation publish path: a steady-state
// publisher sending batches through a probe allocates nothing per batch.
//
//gscope:hotpath
func (c *Client) SendProbeBatch(p *ClientProbe, samples []tuple.Sample) error {
	if len(samples) == 0 {
		return nil
	}
	c.mu.Lock()
	err, closed := c.err, c.closed
	if !closed {
		slots := c.q.Extend(len(samples))
		for i, s := range samples[len(samples)-len(slots):] {
			slots[i] = tuple.Tuple{Time: s.At.Milliseconds(), Value: s.Value, Name: p.name}
		}
	}
	c.mu.Unlock()
	if closed && err == nil {
		return errClientClosed
	}
	c.wake()
	return err
}

// Sent returns the number of tuples written to the socket so far.
func (c *Client) Sent() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// SetQueueLimit bounds the send queue in tuples with a drop-oldest policy;
// non-positive removes the bound. Plain Dial clients default to unbounded,
// DialReconnect clients to DefaultClientQueueLimit.
func (c *Client) SetQueueLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.q.SetLimit(n)
}

// Dropped returns the number of tuples discarded by the reconnect queue's
// drop-oldest bound (always 0 for plain Dial clients).
func (c *Client) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.q.Dropped()
}

// Reconnects returns how many times the background writer has established
// the connection; for a DialReconnect client that includes the initial
// connect, so a value over 1 means the client survived at least one outage.
func (c *Client) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnects
}

// Connected reports whether the client currently holds a live connection.
// Datagram clients count as connected while open: there is no connection
// to lose, only datagrams to lose.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return (c.conn != nil || c.udp != nil) && !c.closed
}

// Flush blocks until the queue has drained (or the writer died). For a
// reconnecting client whose server is down this can block until the server
// returns; use FlushTimeout to bound the wait.
func (c *Client) Flush() error { return c.flush(time.Time{}) }

// FlushTimeout is Flush with a deadline; it returns a timeout error if the
// queue has not drained within d.
func (c *Client) FlushTimeout(d time.Duration) error { return c.flush(time.Now().Add(d)) }

func (c *Client) flush(deadline time.Time) error {
	for {
		c.mu.Lock()
		empty := c.q.Len() == 0 && c.inflight == 0
		err := c.err
		closed := c.closed
		c.mu.Unlock()
		if err != nil {
			return err
		}
		if empty {
			return nil
		}
		if closed {
			return fmt.Errorf("netscope: client closed with queued data")
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("netscope: flush timed out with queued data")
		}
		time.Sleep(time.Millisecond)
	}
}

// Close flushes pending tuples (queued and in-flight) and closes the
// connection. A reconnecting client bounds the flush at one second (it may
// be waiting out an outage) and then shuts down, abandoning whatever is
// still queued; a plain client blocks until everything is written.
func (c *Client) Close() error {
	var ferr error
	if c.reconnect {
		ferr = c.FlushTimeout(time.Second)
	} else {
		ferr = c.Flush()
	}
	c.mu.Lock()
	already := c.closed
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	if !already {
		close(c.quit)
	}
	c.wake()
	var cerr error
	if c.reconnect && conn != nil {
		// The bounded flush may have left a write in flight; sever the
		// connection so the writer cannot stay wedged in conn.Write.
		cerr = conn.Close()
	}
	if !already {
		<-c.done
	}
	if !c.reconnect && conn != nil {
		// The flush above was unbounded, so the writer is idle by the
		// time it observes closed and exits; nothing is in flight.
		cerr = conn.Close()
	}
	if c.udp != nil {
		// The writer has exited, so no Publish is in flight; this stops
		// the NACK responder and releases the socket and retained ring.
		if uerr := c.udp.Close(); cerr == nil {
			cerr = uerr
		}
	}
	if ferr != nil {
		return ferr
	}
	return cerr
}
