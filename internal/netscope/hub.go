package netscope

import (
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
	"repro/internal/reclog"
	"repro/internal/tuple"
)

// This file is the fan-out side of the server: the paper's §4.4 library
// stops at "clients → server → locally attached scopes", which caps the
// system at one viewer. The hub generalizes the server into a
// publish/subscribe relay — any number of downstream viewers connect on a
// second listener and receive the merged tuple stream, so one instrumented
// application can drive many concurrent synchronized scopes (and hubs can
// be chained through Inject).
//
// Two subscriber protocols share the listener. A v1 subscriber connects
// and says nothing: it receives the snapshot-then-deltas stream unchanged
// from the original hub protocol. A v2 subscriber opens with a
// "gscope-sub 2" handshake line carrying a SubscriptionRequest — signal
// filters, server-side decimation, backfill, control-plane access — and
// the connection becomes a query/control plane (see the package comment
// for the frame vocabulary). The server sniffs the first inbound line to
// tell them apart; a client that stays silent through the handshake grace
// window is a v1 subscriber, and everything delivered while the server was
// waiting is queued, so the v1 stream is byte-identical to the pre-v2 hub.

// Subscriber handshake framing. Every framing line is a '#' comment in the
// §3.3 tuple format, so a subscriber that just wants the merged stream can
// read it with a plain tuple.Reader and never see the markers.
const (
	// hubMagic opens every subscriber stream: "# gscope-hub <version>".
	hubMagic = "gscope-hub"
	// hubVersion is the protocol revision announced to v1 subscribers.
	hubVersion = 1
)

// DefaultSnapshotWindow is how much recent stream history the hub retains
// for the connect-time snapshot when SetSnapshotWindow is not called.
const DefaultSnapshotWindow = 5 * time.Second

// DefaultSnapshotLimit caps retained snapshot tuples regardless of window.
const DefaultSnapshotLimit = 4096

// DefaultSubscriberQueueLimit bounds each subscriber's outbound queue, in
// chunks (one per batch), when SetSubscriberQueueLimit is not called.
const DefaultSubscriberQueueLimit = 1024

// DefaultHandshakeGrace is how long an accepted subscriber connection may
// stay silent before the hub commits it to the v1 protocol. A v2 client
// sends its handshake immediately on connect, so the window is normally
// only waited out by v1 clients — deltas delivered meanwhile are buffered,
// not lost, so the wait never changes what a v1 viewer receives — and a
// handshake that loses the race anyway (a round trip longer than the
// grace) still upgrades the connection when it arrives.
const DefaultHandshakeGrace = 50 * time.Millisecond

// DefaultBackfillRetention is the per-signal tiered-history retention (in
// samples) selected when SetBackfillRetention is called with a
// non-positive value. It is a cap, not an allocation: a signal's store
// starts at about 2 KiB and grows with the samples it holds, up to about
// 168 KiB once it holds the full retention. On e2ebench paced-mixed (64
// signals at 1 kHz for 30 s, 2 vCPUs) that took the process's peak memory
// from 37.9 to 21.5 MB.
const DefaultBackfillRetention = 1 << 16

// maxBackfillSignals caps how many distinct signals the tiered backfill
// store tracks; signals beyond the cap stream normally but cannot be
// backfilled decimated.
const maxBackfillSignals = 1024

// maxFlightBackfillTuples bounds how many tuples one reclog backfill may
// deliver; when the window holds more, the newest are kept.
const maxFlightBackfillTuples = 1 << 17

// maxPendingCommands bounds command lines held while a subscriber's
// activation is waiting on a flight-log read; excess lines are discarded.
const maxPendingCommands = 256

// subState tracks where a subscriber connection is in the handshake.
type subState int

const (
	// subSniffing: accepted, protocol version not yet known; deltas are
	// buffered as encoded chunks and the v1 snapshot is already captured.
	subSniffing subState = iota
	// subBackfilling: v2 request accepted, flight-log read in flight;
	// deltas are buffered decoded so they can be filtered at activation.
	subBackfilling
	// subLive: streaming (v1 when sub.sub is nil, v2 otherwise).
	subLive
)

// subscriber is one downstream viewer: a TCP connection, or a Sink over
// a writer the hub does not own (conn and rw nil).
type subscriber struct {
	conn net.Conn
	ww   *glib.WriteWatch
	rw   *glib.IOWatch // read side: v2 command channel, v1 disconnect probe
	enc  Encoding

	state   subState
	counted bool          // reflected in hub.subscribes
	sub     *subscription // compiled v2 request; nil for v1
	// lateUpgrade marks a v1-committed connection whose v2 handshake
	// arrived after the grace window; it already holds the v1 snapshot,
	// so activation must not serve it twice.
	lateUpgrade bool

	filtered int64 // tuples withheld by this sub's filter/decimation

	// Sniffing state: the v1 snapshot captured at accept, delta chunks
	// (shared with live subscribers' queues) delivered while undecided,
	// and the grace timer that commits silent clients to v1.
	snap  []byte
	pend  glib.DropQueue[[]byte]
	grace *time.Timer

	// Backfilling state: decoded deltas awaiting the flight-log read
	// (one entry per delivered batch, so the bound and the drop counter
	// stay in chunk units like every other subscriber queue), and command
	// lines to run once the activation frames are queued.
	pendT    glib.DropQueue[[]tuple.Tuple]
	pendCmds []string

	// v3 binary delivery (docs/WIRE.md). A plain subscription shares the
	// hub's broadcast encoder stream and benc stays nil; a
	// filtered/decimated one gets its own encoder — its narrowed stream
	// needs its own dictionary.
	benc *tuple.BinaryEncoder
	tmp  []tuple.Tuple // filter scratch
}

// binary reports whether the subscriber receives v3 binary frames.
func (sub *subscriber) binary() bool { return sub.enc.binary() }

// send queues a chunk built in the subscriber's encoding, sealed for its
// transport; empty chunks are skipped.
func (sub *subscriber) send(chunk []byte) {
	if len(chunk) > 0 {
		sub.ww.Send(sub.enc.seal(chunk))
	}
}

// passing filters batch through the subscription (advancing its decimation
// clock) into the reusable scratch.
func (sub *subscriber) passing(batch []tuple.Tuple) []tuple.Tuple {
	sub.tmp = sub.tmp[:0]
	for _, t := range batch {
		if sub.sub.passes(t) {
			sub.tmp = append(sub.tmp, t)
		}
	}
	return sub.tmp
}

// dropped counts the chunks lost to the subscriber's drop-oldest queues.
func (sub *subscriber) dropped() int64 {
	return sub.ww.Dropped() + sub.pend.Dropped() + sub.pendT.Dropped()
}

// bufferTuples queues one decoded delta batch during an asynchronous
// backfill, pre-filtered by name (decimation state advances at
// activation, in order). Bounded drop-oldest in chunks, counted — the
// same units as the live write queue.
func (sub *subscriber) bufferTuples(batch []tuple.Tuple) {
	f := sub.sub.filter
	var keep []tuple.Tuple
	for _, t := range batch {
		if !f.match(t.Name) {
			sub.filtered++
			continue
		}
		keep = append(keep, t)
	}
	if keep != nil {
		sub.pendT.Push(keep, false)
	}
}

// hubState holds the Server's subscriber side. All fields are owned by the
// loop goroutine, like the rest of the server.
type hubState struct {
	ln  net.Listener
	acc *glib.IOWatch

	subs map[*subscriber]struct{}

	// history is the retained snapshot window, a slice of histBuf (see
	// retain).
	history    []tuple.Tuple
	histBuf    []tuple.Tuple
	newestMS   int64 // running max of retained-stream timestamps
	newestSet  bool
	window     time.Duration
	windowSet  bool
	histLimit  int
	queueLimit int
	grace      time.Duration

	// The control plane: the application's parameter registry and the
	// unobserve hook for its change notifications.
	params          *core.ParamSet
	paramsUnobserve func()

	// The tiered per-signal backfill store (SetBackfillRetention).
	backfill    map[string]*core.TimedHistory
	backfillRet int

	// plain and shareMemo cache the chunks of the batch being broadcast,
	// one per encoding for unfiltered subscribers and one per (filter
	// signature, encoding) for name-filtered ones, so all the subscribers
	// of a pair share one encode. scratch stages every chunk encoded
	// through it (JSON payloads, text batches, the snapshot) before the
	// exactly sized copy; it keeps the capacity of the largest, usually
	// the snapshot's.
	plain     [numEncodings][]byte
	shareMemo map[memoKey]memoChunk
	scratch   []byte

	// benc is the shared v3 broadcast encoder: all plain binary
	// subscribers ride one encoded chunk per batch, sharing one dictionary
	// stream. A subscriber activating mid-stream gets an AppendDict
	// catch-up; its activation frames are encoded read-only so they can
	// never invent IDs the other sharers haven't seen (docs/WIRE.md §B3).
	benc *tuple.BinaryEncoder

	subscribes   int64
	unsubscribes int64
	published    int64 // tuples broadcast (per tuple, not per subscriber)
	dropped      int64 // drop-oldest losses accumulated from departed subscribers
	filtered     int64 // filter/decimation withholdings from departed subscribers
}

// memoKey names one shared filtered encoding of the current batch.
type memoKey struct {
	filter string
	enc    Encoding
}

// memoChunk is one memoized filtered encoding of the current batch.
type memoChunk struct {
	chunk   []byte
	matched int
}

// FanoutStats are the lifetime fan-out counters, including the v2 plane's
// filter accounting. Dropped counts queue chunks TCP subscribers lost to
// the drop-oldest policy (web streams count in WebDropped); Filtered
// counts tuples withheld from subscribers by their own signal filters and
// rate decimation (bandwidth the v2 plane saved, not data loss).
type FanoutStats struct {
	Subscribes   int64
	Unsubscribes int64
	Published    int64
	Dropped      int64
	Filtered     int64

	// Datagram publisher lane aggregates (zero unless ListenPublishersUDP
	// is active). UDPLost is gap accounting: datagrams the jitter buffer
	// gave up on after the hold expired, i.e. injected loss minus what
	// NACK recovery pulled back (docs/WIRE.md §D4).
	UDPSources   int64
	UDPReleased  int64
	UDPLost      int64
	UDPReordered int64
	UDPRecovered int64
	UDPLate      int64

	// Web gateway lane aggregates (zero unless ListenWeb is active):
	// currently connected SSE/WebSocket stream clients, chunks lost to
	// their drop-oldest queues (counted here, never in Dropped), and
	// payload bytes written to browsers.
	WebClients int64
	WebDropped int64
	WebBytes   int64
}

// SetSnapshotWindow sets how much trailing stream history new subscribers
// receive as their connect-time snapshot. Zero (or negative) disables
// snapshot history entirely (subscribers still get the handshake frame);
// the default is DefaultSnapshotWindow. Call before Listen/ListenSubscribers.
func (s *Server) SetSnapshotWindow(d time.Duration) {
	s.hub.window = d
	s.hub.windowSet = true
	if s.hub.histLimit > 0 {
		s.hub.sizeHistory()
	}
}

// SetSubscriberQueueLimit bounds each subscriber's outbound queue in
// chunks, one per delivered batch (drop-oldest beyond it). Non-positive
// selects DefaultSubscriberQueueLimit.
func (s *Server) SetSubscriberQueueLimit(n int) { s.hub.queueLimit = n }

// SetHandshakeGrace sets how long an accepted subscriber may stay silent
// before it is committed to the v1 protocol (non-positive restores
// DefaultHandshakeGrace). Deltas delivered during the window are buffered,
// so the setting trades only connect latency, never data.
func (s *Server) SetHandshakeGrace(d time.Duration) {
	if d <= 0 {
		d = DefaultHandshakeGrace
	}
	s.hub.grace = d
}

// SetBackfillRetention enables the tiered per-signal backfill store:
// every broadcast sample is folded into a core.TimedHistory pyramid
// retaining approximately the given number of recent samples per signal
// (non-positive selects DefaultBackfillRetention), which serves v2
// decimated-backfill queries (Since+Cols) in O(cols). The retention caps
// each store rather than sizing it: a store grows with the samples it
// holds, so many short-lived or slow signals cost what they hold. Call it
// before traffic flows; the store only covers samples delivered after it
// is enabled.
func (s *Server) SetBackfillRetention(samples int) {
	if samples <= 0 {
		samples = DefaultBackfillRetention
	}
	s.hubInit()
	s.hub.backfillRet = samples
	if s.hub.backfill == nil {
		s.hub.backfill = make(map[string]*core.TimedHistory)
	}
}

// SetParams attaches the application's control-parameter registry (§3.2,
// Figure 3) to the wire: v2 subscribers may `param list`, `param get` and
// `param set` it — sets clamp to each parameter's declared bounds — and
// every successful set through the registry (from the wire or from the
// application) is fanned out to all v2 subscribers as a
// "# param <name> <value>" notification frame. Passing nil detaches.
func (s *Server) SetParams(ps *core.ParamSet) {
	if s.hub.paramsUnobserve != nil {
		s.hub.paramsUnobserve()
		s.hub.paramsUnobserve = nil
	}
	s.hub.params = ps
	if ps == nil {
		return
	}
	s.hub.paramsUnobserve = ps.Observe(func(name string, v float64) {
		s.loop.Invoke(func() { s.broadcastParamChange(name, v) })
	})
}

// Params returns the attached parameter registry, or nil.
func (s *Server) Params() *core.ParamSet { return s.hub.params }

func (s *Server) hubInit() {
	if s.hub.subs == nil {
		s.hub.subs = make(map[*subscriber]struct{})
	}
	if !s.hub.windowSet {
		s.hub.window = DefaultSnapshotWindow
		s.hub.windowSet = true
	}
	if s.hub.histLimit == 0 {
		s.hub.histLimit = DefaultSnapshotLimit
		s.hub.sizeHistory()
	}
	if s.hub.queueLimit <= 0 {
		s.hub.queueLimit = DefaultSubscriberQueueLimit
	}
	if s.hub.grace <= 0 {
		s.hub.grace = DefaultHandshakeGrace
	}
	if s.hub.benc == nil {
		s.hub.benc = tuple.NewBinaryEncoder()
	}
}

// ListenSubscribers binds addr and starts accepting downstream viewers.
// Each accepted connection is version-sniffed: a v2 handshake line selects
// the query/control plane, silence (or anything else) the v1
// snapshot-then-deltas stream. It returns the bound address.
func (s *Server) ListenSubscribers(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netscope: %w", err)
	}
	s.hubInit()
	s.hub.ln = ln
	s.hub.acc = s.loop.WatchAccept(ln, func(conn net.Conn, err error) bool {
		if err != nil {
			return false
		}
		s.subscribeSniff(conn)
		return true
	})
	return ln.Addr(), nil
}

// register wires the shared per-connection plumbing: the bounded write
// queue and the read watch that doubles as the v2 command channel and the
// v1 disconnect probe. Must run on the loop goroutine.
func (s *Server) register(conn net.Conn, state subState) *subscriber {
	s.hubInit()
	sub := &subscriber{conn: conn, state: state}
	sub.ww = s.loop.WatchWriter(conn, s.hub.queueLimit, func(error) {
		s.unsubscribe(sub)
	})
	sub.rw = s.loop.WatchLines(conn, func(line string, err error) bool {
		if err != nil {
			s.unsubscribe(sub)
			return false
		}
		s.subscriberLine(sub, line)
		return true
	})
	s.hub.subs[sub] = struct{}{}
	return sub
}

// subscribeSniff registers an accepted connection in the version-sniffing
// state: the v1 snapshot is captured now (so a silent client's stream is
// exactly what an immediate v1 subscription would have produced), deltas
// buffer until the protocol is decided, and a grace timer commits silent
// clients to v1.
func (s *Server) subscribeSniff(conn net.Conn) {
	sub := s.register(conn, subSniffing)
	sub.snap = s.snapshotChunk()
	sub.pend = glib.NewDropQueue[[]byte](s.hub.queueLimit)
	sub.grace = time.AfterFunc(s.hub.grace, func() {
		s.loop.Invoke(func() { s.promoteV1(sub) })
	})
}

// Subscribe registers conn as a v1 downstream viewer immediately — no
// version sniffing: it is sent the protocol handshake, a snapshot of the
// retained history window, and then every subsequently delivered tuple.
// Subscribe must run on the loop goroutine (in-process wiring can pass one
// end of a net.Pipe from a loop callback). The subscriber's outbound queue
// is bounded; when the peer stalls, its oldest queued tuples are dropped
// and counted rather than ever blocking the loop or other subscribers.
func (s *Server) Subscribe(conn net.Conn) {
	sub := s.register(conn, subLive)
	sub.counted = true
	s.hub.subscribes++
	sub.ww.SendProtected(s.snapshotChunk())
}

// SubscribeWith registers conn as a v2 subscriber with an explicit
// request, as if the client had sent the corresponding handshake line —
// the programmatic path for in-process wiring and tests. It must run on
// the loop goroutine. The error reports an invalid request; the
// subscription itself proceeds asynchronously when backfill needs the
// flight log.
func (s *Server) SubscribeWith(conn net.Conn, req SubscriptionRequest) error {
	if err := req.validate(); err != nil {
		return err
	}
	s.activateV2(s.register(conn, subSniffing), req)
	return nil
}

// subscriberLine routes one inbound line according to the connection's
// handshake state. Runs on the loop goroutine.
func (s *Server) subscriberLine(sub *subscriber, line string) {
	if _, ok := s.hub.subs[sub]; !ok {
		return
	}
	switch sub.state {
	case subSniffing:
		req, isV2, err := parseSubscriptionRequest(line)
		if !isV2 {
			// Not a v2 handshake: a v1 client that happens to talk.
			// Commit to v1 now; the line itself is ignored, as always.
			s.promoteV1(sub)
			return
		}
		if err != nil {
			// A malformed v2 handshake gets an error frame and the v1
			// stream — the closest thing to the pre-v2 contract.
			s.sendError(sub, err.Error())
			s.promoteV1(sub)
			return
		}
		s.activateV2(sub, req)
	case subBackfilling:
		// Hold commands until the activation frames are queued, so
		// replies can never overtake (or displace) the handshake —
		// bounded, unlike a client, so a command flood during a slow
		// flight-log read cannot balloon hub memory.
		if len(sub.pendCmds) < maxPendingCommands {
			sub.pendCmds = append(sub.pendCmds, line)
		}
	case subLive:
		if sub.sub == nil {
			// A v1 connection normally ignores inbound lines — except a
			// v2 handshake, which upgrades it. This is how a client whose
			// handshake lost the race against the grace window (RTT
			// longer than the grace) still gets its subscription: the
			// request applies from here on, and the client's own filter
			// covers the v1 prefix it already received.
			if req, isV2, err := parseSubscriptionRequest(line); isV2 {
				if err != nil {
					s.sendError(sub, err.Error())
					return
				}
				sub.lateUpgrade = true
				s.activateV2(sub, req)
			}
			return
		}
		s.handleCommand(sub, line)
	}
}

// promoteV1 commits a sniffing connection to the v1 protocol: the
// accept-time snapshot, then every delta buffered while undecided, then
// live traffic — byte-identical to a hub that never sniffed.
func (s *Server) promoteV1(sub *subscriber) {
	if _, ok := s.hub.subs[sub]; !ok || sub.state != subSniffing {
		return
	}
	if sub.grace != nil {
		sub.grace.Stop()
	}
	sub.state = subLive
	sub.counted = true
	s.hub.subscribes++
	sub.ww.SendProtected(sub.snap)
	for _, chunk := range sub.pend.Take(nil) {
		sub.ww.Send(chunk)
	}
	sub.snap = nil
}

// activateV2 applies an accepted request. Requests needing the flight log
// park the connection in subBackfilling and finish on the loop when the
// read completes; everything else activates synchronously.
func (s *Server) activateV2(sub *subscriber, req SubscriptionRequest) {
	if sub.grace != nil {
		sub.grace.Stop()
	}
	sub.sub = compileSubscription(req)
	// The activation frames supersede the v1 snapshot and buffered deltas.
	sub.snap = nil
	sub.pend.Take(nil)
	if sub.enc == EncodeText && req.Wire == 3 {
		sub.enc = EncodeV3
	}

	if req.Since == 0 || req.NoStream {
		s.finishV2(sub, 0, nil, "", nil)
		return
	}
	if sub.lateUpgrade {
		// The connection already received the v1 snapshot and deltas; a
		// Since-backfill of the same window would deliver them twice (and
		// a relay would re-inject the duplicates downstream). Late
		// upgrades get an empty backfill frame instead — a client that
		// wants the deep window reconnects, winning the handshake race it
		// lost.
		s.finishV2(sub, s.resolveSince(req.Since), nil, "late-upgrade", nil)
		return
	}
	if req.Since < 0 && !s.hub.newestSet {
		// A trailing window has no anchor before the first live tuple:
		// serve it empty rather than letting sinceMS=0 spill an attached
		// flight log's entire (arbitrarily old) recorded history.
		s.finishV2(sub, 0, nil, "history", nil)
		return
	}
	sinceMS := s.resolveSince(req.Since)
	if req.Cols > 0 && s.hub.backfill != nil {
		s.finishV2(sub, sinceMS, s.decimatedBackfill(sub.sub.filter, sinceMS, req.Cols), "decimated", nil)
		return
	}
	if s.historyCovers(sinceMS) || s.flightDir == "" {
		s.finishV2(sub, sinceMS, s.historyBackfill(sub.sub.filter, sinceMS), "history", nil)
		return
	}
	// The window predates the retained history: serve it from the flight
	// log. Disk reads happen off the loop; deltas buffer meanwhile. The
	// read is capped at the stream's newest stamp as of now (unbounded
	// when no live tuple has arrived yet), and finishV2 additionally
	// trims the backfill where the buffered deltas begin, so the two
	// sources do not deliver the same tuple twice.
	sub.state = subBackfilling
	sub.pendT = glib.NewDropQueue[[]tuple.Tuple](s.hub.queueLimit)
	cutoffMS := int64(0)
	if s.hub.newestSet {
		cutoffMS = s.hub.newestMS
	}
	dir, lg := s.flightDir, s.flight
	go func() {
		if lg != nil {
			// Barrier: push the live log's buffered tail to disk so the
			// window read below can actually see it.
			lg.Flush() //nolint:errcheck // best-effort; the read copes with gaps
		}
		// Best-effort: the patterns passed validation already, and a
		// session that cannot be opened backfills nothing.
		backfill, _, _ := ReadFlight(dir, req.Signals, sinceMS, cutoffMS, maxFlightBackfillTuples)
		s.loop.Invoke(func() {
			if _, ok := s.hub.subs[sub]; !ok || sub.state != subBackfilling {
				return
			}
			pend := sub.pendT.Take(nil)
			if cutoffMS <= 0 && len(pend) > 0 && len(backfill) > 0 {
				// The read ran unbounded (no live stamp existed at
				// request time), so it may have caught tuples that were
				// also broadcast — and buffered — while it ran. Prefer
				// the live copy: the backfill ends where the buffered
				// deltas begin. Bounded reads skip this trim; their
				// overlap is already limited to stale-stamped tuples by
				// the cutoff, and a stale stamp at the head of the
				// buffer must not be allowed to discard the window.
				firstPend := pend[0][0].Time
				kept := backfill[:0]
				for _, t := range backfill {
					if t.Time < firstPend {
						kept = append(kept, t)
					}
				}
				backfill = kept
			}
			s.finishV2(sub, sinceMS, backfill, "reclog", pend)
		})
	}()
}

// finishV2 queues the v2 activation frames — ack, then backfill or
// filtered snapshot — flushes the deltas buffered while backfilling (pend)
// and held commands, and puts the connection live.
func (s *Server) finishV2(sub *subscriber, sinceMS int64, backfill []tuple.Tuple, source string, pend [][]tuple.Tuple) {
	sub.state = subLive
	if !sub.counted {
		sub.counted = true
		s.hub.subscribes++
	}
	req, enc := sub.sub.req, sub.enc
	b := enc.appendControl(nil, hubMagic, "2", strings.Join(req.fields(), " "))
	if sub.binary() && !req.NoStream {
		if sub.sub.plain() {
			// This connection will share the broadcast encoder's stream:
			// catch it up on every binding emitted before it joined, so the
			// next shared chunk's bare IDs resolve (docs/WIRE.md §B3).
			b = s.hub.benc.AppendDict(b)
		} else if sub.benc == nil {
			// A narrowed stream gets its own dictionary.
			sub.benc = tuple.NewBinaryEncoder()
		}
	}
	switch {
	case req.NoStream:
		// Control plane only: no snapshot, no backfill, no deltas.
	case source != "":
		b = enc.appendControl(b, "backfill",
			fmt.Sprintf("tuples=%d", len(backfill)),
			fmt.Sprintf("since-ms=%d", sinceMS),
			"source="+source)
		b = s.appendTuples(b, sub, backfill)
		b = enc.appendControl(b, "backfill-end")
	case sub.lateUpgrade:
		// The connection already received the v1 snapshot before its
		// handshake won through; re-serving it would duplicate data.
	default:
		// The v1 snapshot shape, narrowed to the subscription's signals.
		snap := s.historyBackfill(sub.sub.filter, 0)
		b = enc.appendControl(b, "snapshot",
			fmt.Sprintf("tuples=%d", len(snap)),
			fmt.Sprintf("window-ms=%d", s.hub.window.Milliseconds()))
		b = s.appendTuples(b, sub, snap)
		b = enc.appendControl(b, "snapshot-end")
	}
	sub.ww.SendProtected(enc.seal(b))
	if len(pend) > 0 && !req.NoStream {
		var out []byte
		for _, chunk := range pend {
			kept := sub.passing(chunk)
			out = s.appendTuples(out, sub, kept)
			sub.filtered += int64(len(chunk) - len(kept))
		}
		sub.send(out)
	}
	cmds := sub.pendCmds
	sub.pendCmds = nil
	for _, line := range cmds {
		s.handleCommand(sub, line)
	}
}

// appendTuples appends ts to dst in the subscriber's encoding (activation
// frames, buffered deltas, narrowed broadcasts). A plain v3 subscriber
// shares the broadcast encoder's stream, which must not be mutated here —
// an ID invented for one subscriber would reach no other — so it encodes
// read-only, falling back to text lines for names the broadcast encoder
// has not bound yet (always legal, docs/WIRE.md §B1).
func (s *Server) appendTuples(dst []byte, sub *subscriber, ts []tuple.Tuple) []byte {
	switch {
	case sub.enc.json():
		if len(ts) == 0 {
			return dst
		}
		return s.hub.appendBatchEvent(dst, sub.enc, ts)
	case !sub.binary():
		return tuple.AppendWireBatch(dst, ts)
	case sub.benc != nil:
		return sub.benc.AppendBatch(dst, ts)
	default:
		return s.hub.benc.AppendBatchReadOnly(dst, ts)
	}
}

// resolveSince maps a request's Since onto the stream timeline: negative
// is a trailing window anchored at the newest stamp seen, positive an
// absolute offset.
func (s *Server) resolveSince(since time.Duration) int64 {
	ms := since.Milliseconds()
	if ms >= 0 {
		return ms
	}
	if !s.hub.newestSet {
		return 0
	}
	abs := s.hub.newestMS + ms
	if abs < 0 {
		abs = 0
	}
	return abs
}

// historyCovers reports whether the retained snapshot history reaches back
// to sinceMS.
func (s *Server) historyCovers(sinceMS int64) bool {
	return len(s.hub.history) > 0 && s.hub.history[0].Time <= sinceMS
}

// historyBackfill collects retained history stamped at or after sinceMS
// whose signals pass the filter.
func (s *Server) historyBackfill(f *sigFilter, sinceMS int64) []tuple.Tuple {
	var out []tuple.Tuple
	for _, t := range s.hub.history {
		if t.Time >= sinceMS && f.match(t.Name) {
			out = append(out, t)
		}
	}
	return out
}

// envelopes walks the tiered store: for every signal passing f, in name
// order, its non-empty min/max/last buckets over [sinceMS, newest], at
// most cols per signal — O(cols) per signal. Signals with nothing in the
// window are left out.
func (h *hubState) envelopes(f *sigFilter, sinceMS int64, cols int) []SignalView {
	names := make([]string, 0, len(h.backfill))
	for name := range h.backfill {
		if f.match(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var views []SignalView
	for _, name := range names {
		buckets := h.backfill[name].ViewSince(sinceMS, cols)
		kept := buckets[:0]
		for _, bk := range buckets {
			if bk.Count > 0 {
				kept = append(kept, bk)
			}
		}
		if len(kept) > 0 {
			views = append(views, SignalView{Name: name, Buckets: kept})
		}
	}
	return views
}

// decimatedBackfill flattens the tiered store's envelopes of [sinceMS,
// now] into tuples: per bucket, its min and max (one tuple, the last
// value, when they coincide) stamped at the bucket's end time — the
// min/max envelope a zoomed-out viewer draws.
func (s *Server) decimatedBackfill(f *sigFilter, sinceMS int64, cols int) []tuple.Tuple {
	var out []tuple.Tuple
	for _, v := range s.hub.envelopes(f, sinceMS, cols) {
		for _, bk := range v.Buckets {
			if bk.Min == bk.Max {
				out = append(out, tuple.Tuple{Time: bk.Time, Value: bk.Last, Name: v.Name})
				continue
			}
			out = append(out,
				tuple.Tuple{Time: bk.Time, Value: bk.Min, Name: v.Name},
				tuple.Tuple{Time: bk.Time, Value: bk.Max, Name: v.Name})
		}
	}
	return out
}

// ReadFlight reads a flight-recorder session directory's tuples stamped
// in [fromMS, toMS] (toMS <= 0: unbounded) whose signals match the
// patterns as a subscription's filter would, keeping the newest limit and
// reporting whether any were cut. It is the read behind flight-log
// backfill and the web gateway's session queries, best-effort by design:
// batches the recorder has not yet written out are missing.
func ReadFlight(dir string, patterns []string, fromMS, toMS int64, limit int) (ts []tuple.Tuple, truncated bool, err error) {
	req := SubscriptionRequest{Signals: patterns}
	if err := req.validate(); err != nil {
		return nil, false, err
	}
	sess, err := reclog.OpenSession(dir)
	if err != nil {
		return nil, false, err
	}
	f := compileFilter(patterns) // its own: a verdict memo is single-goroutine
	rep := reclog.NewReplayer(sess)
	rep.SetSpeed(0)
	rep.SetWindow(time.Duration(fromMS)*time.Millisecond, time.Duration(toMS)*time.Millisecond)
	out := glib.NewDropQueue[tuple.Tuple](limit)
	rep.Run(func(batch []tuple.Tuple) error { //nolint:errcheck // best-effort read of a live session
		for _, t := range batch {
			if f.match(t.Name) {
				out.Push(t, false)
			}
		}
		return nil
	})
	return out.Take(nil), out.Dropped() > 0, nil
}

// snapshotChunk encodes the handshake plus the retained history window as
// one queue chunk, so drop-oldest can never tear the snapshot apart. The
// tuples are staged in the scratch buffer and the chunk is allocated once,
// at its final size.
func (s *Server) snapshotChunk() []byte {
	h := &s.hub
	head := tuple.AppendControl(nil, hubMagic, strconv.Itoa(hubVersion))
	head = tuple.AppendControl(head, "snapshot",
		"tuples="+strconv.Itoa(len(h.history)),
		"window-ms="+strconv.FormatInt(h.window.Milliseconds(), 10))
	const tail = "# snapshot-end\n"
	h.scratch = tuple.AppendWireBatch(h.scratch[:0], h.history)
	b := make([]byte, 0, len(head)+len(h.scratch)+len(tail))
	return append(append(append(b, head...), h.scratch...), tail...)
}

// broadcastBatch retains a delivered batch in the snapshot history (and
// the tiered backfill store, when enabled) and fans it out to every
// subscriber. The batch is encoded once per (filter signature, encoding):
// unfiltered subscribers share one chunk per encoding — one queue append
// each, no per-tuple work — and name-filtered ones one per filter and
// encoding. Runs on the loop goroutine as part of delivery.
func (s *Server) broadcastBatch(batch []tuple.Tuple) {
	if s.hub.subs == nil || len(batch) == 0 {
		return
	}
	for _, t := range batch {
		s.retain(t)
	}
	if s.hub.backfill != nil {
		s.backfillRetain(batch)
	}
	s.hub.published += int64(len(batch))
	if len(s.hub.subs) == 0 {
		return
	}
	for sub := range s.hub.subs {
		switch {
		case sub.state == subSniffing:
			sub.pend.Push(s.plainChunk(EncodeText, batch), false)
		case sub.state == subBackfilling:
			sub.bufferTuples(batch)
		case sub.sub != nil && sub.sub.req.NoStream:
			// Control-plane-only connections never wanted the stream;
			// counting their withholdings as Filtered would make the
			// decimation stat lie to operators.
		case sub.sub == nil || sub.sub.plain():
			sub.ww.Send(s.plainChunk(sub.enc, batch))
		default:
			s.sendFiltered(sub, batch)
		}
	}
	// The cached chunks are this batch's; the queues own them now.
	s.hub.plain = [numEncodings][]byte{}
	clear(s.hub.shareMemo)
}

// plainChunk returns the current batch's unfiltered chunk in enc, encoding
// it on first use. Both v3 encodings ride the hub's broadcast encoder, so
// the batch advances its dictionary once even though only current sharers
// see the DICT frames — later joiners are caught up at activation
// (finishV2). One encode serves both: the WebSocket chunk is the v3 chunk
// behind a frame header written in place. Drop-oldest interacts with
// this: DATA-only chunks are self-contained (WIRE.md §B4) and drop
// silently like text, but a dropped chunk that carried a DICT binding
// leaves the subscriber unable to resolve that ID, and its decoder fails
// closed (§B7) — a stalled binary viewer reconnects rather than render a
// corrupt stream.
func (s *Server) plainChunk(enc Encoding, batch []tuple.Tuple) []byte {
	c := &s.hub.plain[enc]
	if *c == nil {
		switch enc {
		case EncodeText:
			*c = s.hub.textChunk(batch)
		case EncodeV3, EncodeWSV3:
			b := s.hub.benc.AppendBatch(make([]byte, wsHeaderRoom, wsHeaderRoom+8*len(batch)), batch)
			s.hub.plain[EncodeV3] = EncodeV3.sealInPlace(b)
			s.hub.plain[EncodeWSV3] = EncodeWSV3.sealInPlace(b)
		default:
			*c = s.hub.batchEvent(enc, batch)
		}
	}
	return *c
}

// chunkFor encodes ts as a fresh chunk in sub's encoding, sealed for its
// transport.
func (s *Server) chunkFor(sub *subscriber, ts []tuple.Tuple) []byte {
	switch {
	case sub.enc.json():
		return s.hub.batchEvent(sub.enc, ts)
	case !sub.binary():
		return s.hub.textChunk(ts)
	}
	return sub.enc.sealInPlace(s.appendTuples(make([]byte, wsHeaderRoom, wsHeaderRoom+24*len(ts)), sub, ts))
}

// textChunk encodes ts as text lines in a chunk allocated once: a batch
// is staged in the scratch buffer and copied out at its exact size, and a
// lone tuple is encoded in place into maxWireLine plus its cleaned name,
// which bounds the line at the cost of some spare capacity.
func (h *hubState) textChunk(ts []tuple.Tuple) []byte {
	if len(ts) == 1 {
		t := ts[0]
		name := tuple.CleanName(t.Name)
		return tuple.AppendWirePrepared(make([]byte, 0, maxWireLine+len(name)), t.Time, t.Value, name)
	}
	h.scratch = tuple.AppendWireBatch(h.scratch[:0], ts)
	return append(make([]byte, 0, len(h.scratch)), h.scratch...)
}

// maxWireLine bounds a text line less its name: a 20-byte time, a 24-byte
// value (strconv's longest shortest form) and the two spaces and newline.
const maxWireLine = 20 + 24 + 3

// sendFiltered narrows batch through the subscription and queues what
// passes. Name-only filters share one chunk per (signature, encoding)
// through the memo; decimating subscriptions, and filtered v3 ones (each
// owns its dictionary), encode their own.
func (s *Server) sendFiltered(sub *subscriber, batch []tuple.Tuple) {
	key := memoKey{filter: sub.sub.shareKey(), enc: sub.enc}
	if key.filter == "" || sub.binary() {
		kept := sub.passing(batch)
		if len(kept) > 0 {
			sub.ww.Send(s.chunkFor(sub, kept))
		}
		sub.filtered += int64(len(batch) - len(kept))
		return
	}
	entry, ok := s.hub.shareMemo[key]
	if !ok {
		kept := sub.passing(batch)
		entry.matched = len(kept)
		if len(kept) > 0 {
			entry.chunk = s.chunkFor(sub, kept)
		}
		if s.hub.shareMemo == nil {
			s.hub.shareMemo = make(map[memoKey]memoChunk)
		}
		s.hub.shareMemo[key] = entry
	}
	if len(entry.chunk) > 0 {
		sub.ww.Send(entry.chunk)
	}
	sub.filtered += int64(len(batch) - entry.matched)
}

// backfillRetain folds a batch into the per-signal tiered store.
//
//gscope:hotpath
func (s *Server) backfillRetain(batch []tuple.Tuple) {
	var lastName string
	var last *core.TimedHistory
	for _, t := range batch {
		th := last
		if t.Name != lastName || th == nil {
			th = s.hub.backfill[t.Name]
			if th == nil {
				if len(s.hub.backfill) >= maxBackfillSignals {
					continue
				}
				th = core.NewTimedHistory(s.hub.backfillRet) //gscope:allow hotpath store creation happens once per new signal name
				s.hub.backfill[t.Name] = th
			}
			lastName, last = t.Name, th
		}
		th.Push(t.Time, t.Value)
	}
}

// sizeHistory allocates the snapshot history's backing array, once,
// when the window and limit are known: twice the limit, so retain can
// append a whole limit's worth of tuples between slides.
func (h *hubState) sizeHistory() {
	if h.window <= 0 || h.histBuf != nil {
		return
	}
	h.histBuf = make([]tuple.Tuple, 2*h.histLimit)
	h.history = h.histBuf[:0]
}

// retain appends t to the snapshot history and prunes it to the configured
// window and hard size cap. The window is anchored to a running max of the
// timestamps seen, not the incoming tuple's own stamp: under non-monotonic
// stamps (one publisher with a skewed clock) a per-tuple anchor let a
// single stale tuple stall pruning entirely. Tuples already outside the
// window relative to the running max are not retained at all — they could
// never be part of a connect-time snapshot, and appended behind in-window
// history they would be unreachable by the front-only prune.
//
// The history is a window of one backing array of 2×histLimit tuples
// allocated by sizeHistory: pruning advances the window's front, and when
// its back reaches the array's end the live window (at most histLimit
// tuples) slides to the front. A retained tuple allocates nothing, and the
// slide's copy is amortized over the at least histLimit appends between
// slides.
//
//gscope:hotpath
func (s *Server) retain(t tuple.Tuple) {
	if s.hub.window <= 0 {
		return
	}
	if !s.hub.newestSet || t.Time > s.hub.newestMS {
		s.hub.newestMS = t.Time
		s.hub.newestSet = true
	}
	winMS := s.hub.window.Milliseconds()
	if s.hub.newestMS-t.Time > winMS {
		return // stale-stamped: outside the snapshot window on arrival
	}
	if len(s.hub.history) == cap(s.hub.history) {
		s.hub.history = s.hub.histBuf[:copy(s.hub.histBuf, s.hub.history)]
	}
	s.hub.history = append(s.hub.history, t)
	cut := 0
	if over := len(s.hub.history) - s.hub.histLimit; over > 0 {
		cut = over
	}
	for cut < len(s.hub.history) && s.hub.newestMS-s.hub.history[cut].Time > winMS {
		cut++
	}
	s.hub.history = s.hub.history[cut:]
}

// Inject delivers t exactly as if it had arrived from a publisher
// connection: observers, recorder, attached scopes, and subscribers all see
// it. It must run on the loop goroutine — it is the relay hook used when
// chaining hubs (a Subscriber's callback feeding a downstream Server).
func (s *Server) Inject(t tuple.Tuple) {
	one := [1]tuple.Tuple{t}
	s.InjectBatch(one[:])
}

// InjectBatch delivers a whole batch through the same pipeline with one
// feed push and one broadcast chunk — the batch counterpart relays use.
func (s *Server) InjectBatch(batch []tuple.Tuple) {
	s.received += int64(len(batch))
	s.deliverBatch(batch)
}

// --- The v2 command channel ------------------------------------------------

// sendError queues an error frame on a subscriber's stream.
func (s *Server) sendError(sub *subscriber, msg string) {
	sub.send(sub.enc.appendControl(nil, "error", strings.ReplaceAll(msg, "\n", " ")))
}

// handleCommand runs one inbound v2 command line. Runs on the loop.
func (s *Server) handleCommand(sub *subscriber, line string) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return
	}
	switch f[0] {
	case "param":
		s.handleParamCommand(sub, f[1:])
	case subMagic:
		s.sendError(sub, "already subscribed")
	default:
		s.sendError(sub, "unknown command "+f[0])
	}
}

// paramFrame renders one parameter as a reply/list frame in enc.
// Parameters whose names contain whitespace cannot cross the
// space-delimited framing and are not addressable over the wire.
func paramFrame(dst []byte, enc Encoding, in core.ParamInfo) []byte {
	mode := "rw"
	if in.ReadOnly {
		mode = "ro"
	}
	return enc.appendControl(dst, "param", in.Name,
		tuple.FormatValue(in.Value),
		"min="+tuple.FormatValue(in.Min),
		"max="+tuple.FormatValue(in.Max),
		"step="+tuple.FormatValue(in.Step),
		"mode="+mode)
}

// handleParamCommand serves the PARAM LIST/GET/SET plane against the
// attached registry.
func (s *Server) handleParamCommand(sub *subscriber, args []string) {
	ps := s.hub.params
	if ps == nil {
		s.sendError(sub, "no parameter registry attached")
		return
	}
	if len(args) == 0 {
		s.sendError(sub, "param: need list, get <name> or set <name> <value>")
		return
	}
	switch args[0] {
	case "list":
		infos := ps.Infos()
		b := sub.enc.appendControl(nil, "params", fmt.Sprintf("n=%d", len(infos)))
		for _, in := range infos {
			if strings.ContainsAny(in.Name, " \t") {
				continue // unaddressable over the space-delimited framing
			}
			b = paramFrame(b, sub.enc, in)
		}
		b = sub.enc.appendControl(b, "params-end")
		sub.send(b)
	case "get":
		if len(args) != 2 {
			s.sendError(sub, "param get: need exactly one name")
			return
		}
		in, err := ps.Info(args[1])
		if err != nil {
			s.sendError(sub, err.Error())
			return
		}
		sub.send(paramFrame(nil, sub.enc, in))
	case "set":
		if len(args) != 3 {
			s.sendError(sub, "param set: need a name and a value")
			return
		}
		v, err := strconv.ParseFloat(args[2], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			// NaN must be rejected here: it compares false against both
			// clamp bounds, so it would sail through the range the
			// protocol promises to enforce.
			s.sendError(sub, "param set: bad value "+args[2])
			return
		}
		if err := ps.Set(args[1], v); err != nil {
			s.sendError(sub, err.Error())
			return
		}
		actual, err := ps.Get(args[1])
		if err != nil {
			s.sendError(sub, err.Error())
			return
		}
		sub.send(sub.enc.appendControl(nil, "param-ok", args[1], tuple.FormatValue(actual)))
	default:
		s.sendError(sub, "param: unknown subcommand "+args[0])
	}
}

// broadcastParamChange fans a parameter change out to every live v2
// subscriber as a short notification frame. Runs on the loop.
func (s *Server) broadcastParamChange(name string, v float64) {
	if strings.ContainsAny(name, " \t") {
		return
	}
	var frames [numEncodings][]byte
	for sub := range s.hub.subs {
		if sub.state != subLive || sub.sub == nil {
			continue
		}
		f := &frames[sub.enc]
		if *f == nil {
			*f = sub.enc.seal(sub.enc.appendControl(nil, "param", name, tuple.FormatValue(v)))
		}
		if len(*f) > 0 {
			sub.ww.Send(*f)
		}
	}
}

// --- Teardown and stats ----------------------------------------------------

func (s *Server) unsubscribe(sub *subscriber) {
	if _, ok := s.hub.subs[sub]; !ok {
		return
	}
	delete(s.hub.subs, sub)
	if sub.grace != nil {
		sub.grace.Stop()
	}
	if sub.counted {
		s.hub.unsubscribes++
	}
	if sub.enc.web() {
		s.web.dropped.Add(sub.dropped())
	} else {
		s.hub.dropped += sub.dropped()
	}
	s.hub.filtered += sub.filtered
	sub.ww.Cancel()
	if sub.conn != nil {
		sub.rw.Cancel()
		sub.conn.Close()
	}
}

// Subscribers returns the number of connected viewers whose handshake has
// completed (sniffing and backfilling connections are still in flight).
func (s *Server) Subscribers() int {
	n := 0
	for sub := range s.hub.subs {
		if sub.state == subLive {
			n++
		}
	}
	return n
}

// SubscriberStats returns lifetime fan-out counters: viewer connects and
// disconnects, tuples published to the subscriber side (counted once per
// tuple, not per viewer), and queue chunks lost to the per-subscriber
// drop-oldest policy summed across all viewers past and present. A chunk
// is one delivered batch (at least one tuple), so a non-zero drop count
// means data loss even though it does not count tuples one by one.
// FanoutStats adds the v2 plane's filter accounting.
func (s *Server) SubscriberStats() (subscribes, unsubscribes, published, dropped int64) {
	st := s.FanoutStats()
	return st.Subscribes, st.Unsubscribes, st.Published, st.Dropped
}

// FanoutStats returns the lifetime fan-out counters including tuples
// withheld by v2 signal filters and rate decimation.
func (s *Server) FanoutStats() FanoutStats {
	st := FanoutStats{
		Subscribes:   s.hub.subscribes,
		Unsubscribes: s.hub.unsubscribes,
		Published:    s.hub.published,
		Dropped:      s.hub.dropped,
		Filtered:     s.hub.filtered,
	}
	for sub := range s.hub.subs {
		if sub.enc.web() {
			st.WebDropped += sub.dropped()
		} else {
			st.Dropped += sub.dropped()
		}
		st.Filtered += sub.filtered
	}
	if s.udpRecv != nil {
		u := s.udpRecv.Stats()
		st.UDPSources = int64(u.Sources)
		st.UDPReleased = u.Released
		st.UDPLost = u.Lost
		st.UDPReordered = u.Reordered
		st.UDPRecovered = u.Recovered
		st.UDPLate = u.Late
	}
	st.WebClients = s.web.clients.Load()
	st.WebDropped += s.web.dropped.Load()
	st.WebBytes = s.web.bytes.Load()
	return st
}

// SubscriberBacklog returns the total number of chunks queued but not yet
// taken by the subscribers' writers, deltas buffered mid-handshake included.
// A taken batch may still be in flight; SubscriberWritten counts writes.
func (s *Server) SubscriberBacklog() int {
	n := 0
	for sub := range s.hub.subs {
		n += sub.ww.Queued() + sub.pend.Len() + sub.pendT.Len()
	}
	return n
}

// SubscriberWritten returns the total number of chunks (the handshake plus
// one per delivered batch) fully written to current subscribers'
// connections.
func (s *Server) SubscriberWritten() int64 {
	var n int64
	for sub := range s.hub.subs {
		n += sub.ww.Sent()
	}
	return n
}

// SubscribersFlushed reports whether every currently connected subscriber
// has either written or dropped every byte queued to it — the barrier
// benches and tests use to know the fan-out has fully drained. A
// connection still mid-handshake with buffered deltas is not flushed.
func (s *Server) SubscribersFlushed() bool {
	for sub := range s.hub.subs {
		if !sub.ww.Flushed() || sub.pend.Len()+sub.pendT.Len() > 0 {
			return false
		}
	}
	return true
}

// closeHub tears down the subscriber side; part of Server.Close.
func (s *Server) closeHub() error {
	var err error
	if s.hub.acc != nil {
		s.hub.acc.Cancel()
	}
	if s.hub.ln != nil {
		err = s.hub.ln.Close()
	}
	for sub := range s.hub.subs {
		s.unsubscribe(sub)
	}
	if s.hub.paramsUnobserve != nil {
		s.hub.paramsUnobserve()
		s.hub.paramsUnobserve = nil
	}
	return err
}

// --- The subscriber client --------------------------------------------------

// Subscriber is the client side of the fan-out protocol: it connects to a
// hub's subscriber listener and delivers every tuple — snapshot or
// backfill first, then live deltas — to a callback on the loop goroutine,
// the same threading model as Server callbacks. Created with options, it
// speaks the v2 protocol: its handshake carries the subscription request,
// and the connection doubles as a command channel (Command, OnControl).
// Counters are safe to read from any goroutine.
type Subscriber struct {
	conn  net.Conn
	watch *glib.IOWatch

	clientFilter *sigFilter // the requested signals; nil matches every one

	received    atomic.Int64
	parseErrors atomic.Int64
	snapTuples  atomic.Int64
	backTuples  atomic.Int64
	handshaken  atomic.Bool
	acked       atomic.Bool

	// owned by the loop goroutine
	inSnapshot bool
	inBackfill bool
	closed     bool

	// Callback registration may race a live loop delivering frames, so it
	// is guarded; the callbacks themselves always run on the loop.
	cbMu      sync.Mutex
	onClose   func(error)
	onControl func(tuple.ControlFrame)
}

func (s *Subscriber) closeCallback() func(error) {
	s.cbMu.Lock()
	defer s.cbMu.Unlock()
	return s.onClose
}

func (s *Subscriber) controlCallback() func(tuple.ControlFrame) {
	s.cbMu.Lock()
	defer s.cbMu.Unlock()
	return s.onControl
}

// SubscribeTo connects to a hub's subscriber address and invokes fn on the
// loop goroutine for each tuple in the merged stream. Snapshot/backfill
// history and live deltas are delivered uniformly; use Snapshot and
// Backfilled to learn where the boundaries were. With no options the
// client is a pure v1 subscriber (it sends nothing and receives the
// classic snapshot-then-deltas stream); any option switches it to the v2
// handshake. Internally tuples are decoded in read-chunk batches; use
// SubscribeToBatch to receive them that way and keep the batch shape
// through a relay.
func SubscribeTo(loop *glib.Loop, addr string, fn func(tuple.Tuple), opts ...SubscribeOption) (*Subscriber, error) {
	return SubscribeToBatch(loop, addr, func(batch []tuple.Tuple) {
		for _, t := range batch {
			fn(t)
		}
	}, opts...)
}

// SubscribeToBatch is SubscribeTo with batch delivery: fn receives every
// tuple decoded from one read chunk in a single call (the batch is valid
// only for the duration of the call). Relays chain this into
// Server.InjectBatch so one upstream read stays one downstream broadcast.
func SubscribeToBatch(loop *glib.Loop, addr string, fn func([]tuple.Tuple), opts ...SubscribeOption) (*Subscriber, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netscope: %w", err)
	}
	sub := &Subscriber{conn: conn}
	if len(opts) > 0 {
		req := SubscriptionRequest{}
		for _, o := range opts {
			o(&req)
		}
		if err := req.validate(); err != nil {
			conn.Close()
			return nil, err
		}
		if _, err := io.WriteString(conn, req.encodeLine()); err != nil {
			conn.Close()
			return nil, fmt.Errorf("netscope: %w", err)
		}
		sub.clientFilter = compileFilter(req.Signals)
	}
	// Text and v3 hubs are read the same way: the hub may interleave
	// binary frames with the text control plane (docs/WIRE.md), and a text
	// hub simply never sends one. A framing error or an over-long line is
	// terminal (§B7).
	var batch []tuple.Tuple
	flush := func() {
		if len(batch) > 0 {
			fn(batch)
			batch = batch[:0]
		}
	}
	count := func(n int64) {
		sub.received.Add(n)
		switch {
		case sub.inSnapshot:
			sub.snapTuples.Add(n)
		case sub.inBackfill:
			sub.backTuples.Add(n)
		}
	}
	onLine := func(line string) {
		if tuple.IsComment(line) {
			// Control lines frame the snapshot; deliver what came
			// before so snapshot accounting stays exact.
			flush()
			sub.control(line)
			return
		}
		sub.parseErrors.Add(1)
	}
	onTuples := func(ts []tuple.Tuple) {
		n := len(batch)
		if sub.clientFilter == nil || sub.acked.Load() {
			batch = append(batch, ts...)
		} else {
			// Tuples broadcast before the server applied our request
			// (the handshake race) are outside the subscription; the
			// filter holds client-side until the ack.
			for _, t := range ts {
				if sub.clientFilter.match(t.Name) {
					batch = append(batch, t)
				}
			}
		}
		count(int64(len(batch) - n))
	}
	dec := tuple.NewStreamDecoder()
	sub.watch = loop.WatchReaderSize(conn, 64*1024, func(data []byte, err error) bool {
		batch = batch[:0]
		ferr := dec.Feed(data, onLine, onTuples)
		if err == io.EOF && ferr == nil {
			// An unterminated last line is still a line; after a
			// transport error it may be torn, so it is dropped.
			dec.Tail(onLine, onTuples)
		}
		flush()
		if ferr != nil {
			sub.parseErrors.Add(1)
			if err == nil {
				err = ferr
			}
		}
		if err != nil {
			sub.closed = true
			if fn := sub.closeCallback(); fn != nil {
				fn(err)
			}
			conn.Close()
			return false
		}
		return true
	})
	return sub, nil
}

// control interprets the hub's '#'-comment framing lines.
func (s *Subscriber) control(line string) {
	f, ok := tuple.ParseControl(line)
	if !ok {
		return
	}
	switch f.Verb {
	case hubMagic:
		s.handshaken.Store(true)
		if f.Arg(0) == "2" {
			s.acked.Store(true)
		}
	case "snapshot":
		s.inSnapshot = true
	case "snapshot-end":
		s.inSnapshot = false
	case "backfill":
		s.inBackfill = true
	case "backfill-end":
		s.inBackfill = false
	}
	if fn := s.controlCallback(); fn != nil {
		fn(f)
	}
}

// OnClose registers fn to run on the loop goroutine when the stream ends
// (io.EOF on hub shutdown, or a transport error). Safe to call from any
// goroutine.
func (s *Subscriber) OnClose(fn func(error)) {
	s.cbMu.Lock()
	s.onClose = fn
	s.cbMu.Unlock()
}

// OnControl registers fn to observe every control frame on the loop
// goroutine — param replies and change notifications, error frames, and
// the stream framing itself. Register it before frames of interest can
// arrive (i.e. immediately after SubscribeTo returns); safe to call from
// any goroutine.
func (s *Subscriber) OnControl(fn func(tuple.ControlFrame)) {
	s.cbMu.Lock()
	s.onControl = fn
	s.cbMu.Unlock()
}

// Command sends one control-plane line to the hub (e.g. "param set delay
// 250"). Valid on v2 subscriptions; a v1 hub (or a v1 subscription)
// silently ignores it. Safe to call from any goroutine.
func (s *Subscriber) Command(line string) error {
	_, err := io.WriteString(s.conn, strings.TrimSuffix(line, "\n")+"\n")
	return err
}

// Handshaken reports whether the hub's protocol banner has been seen.
func (s *Subscriber) Handshaken() bool { return s.handshaken.Load() }

// Acked reports whether the hub acknowledged the v2 subscription request.
func (s *Subscriber) Acked() bool { return s.acked.Load() }

// Snapshot returns the number of tuples that arrived as connect-time
// history rather than live deltas.
func (s *Subscriber) Snapshot() int64 { return s.snapTuples.Load() }

// Backfilled returns the number of tuples that arrived as requested
// backfill (WithSince) rather than live deltas.
func (s *Subscriber) Backfilled() int64 { return s.backTuples.Load() }

// Stats returns tuples received (snapshot + backfill + live) and lines
// that failed to parse.
func (s *Subscriber) Stats() (received, parseErrors int64) {
	return s.received.Load(), s.parseErrors.Load()
}

// Close disconnects from the hub.
func (s *Subscriber) Close() error {
	s.watch.Cancel()
	return s.conn.Close()
}
