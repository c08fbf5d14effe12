// Package webscope is the hub's HTTP face: a stdlib-only gateway that
// bridges the v2 subscriber protocol to browsers. It serves live tuple
// streams over Server-Sent Events and a hand-rolled RFC 6455 WebSocket
// endpoint (ws.go — no external deps, the internal/vet precedent),
// historical min/max envelope queries over the hub's tiered backfill
// store as JSON or server-rendered PNG (view.go), REST access to the
// control-parameter registry (params.go), flight-recorder session
// listing and time-window queries (sessions.go), and a small embedded
// HTML+canvas dashboard at / so `gscoped -http :8080` is a usable live
// scope with zero other tooling.
//
// Threading: every piece of hub state is owned by the server's glib
// loop goroutine, while net/http runs handlers on arbitrary goroutines.
// The gateway never touches hub state directly — subscriptions, inbound
// commands and reads all marshal through Loop().Invoke (see
// Gateway.invoke). Each stream client is an ordinary hub subscriber: a
// netscope.Sink over the client's own transport, encoded in its lane's
// encoding, so it shares each batch's encoding with every subscriber of
// the same filter signature and lane, gets server-side decimation and
// snapshot/backfill, and rides one bounded drop-oldest queue (a
// glib.WriteWatch) so one stalled tab never blocks the hub or another
// viewer.
//
// The gateway is a transport only: it keeps no copy of the v2
// subscription semantics. Query parameters are rendered as handshake
// fields and parsed by netscope.ParseSubscriptionFields and
// netscope.ParseSince, envelope history comes from Server.WebView (the
// walk Since+Cols subscriptions read), and session queries from
// netscope.ReadFlight (the hub's flight-log backfill read), so a browser
// asks what a TCP subscriber can ask and gets the same answer. Endpoint
// reference: docs/HTTP.md.
package webscope

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/netscope"
)

const (
	// DefaultMaxClients bounds concurrent stream clients (SSE plus
	// WebSocket); further stream requests get 503.
	DefaultMaxClients = 64
	// DefaultQueueLimit bounds each stream client's outbound queue in hub
	// delivery chunks (drop-oldest beyond it).
	DefaultQueueLimit = 256
)

// Options configures a Gateway. The zero value is usable.
type Options struct {
	// MaxClients bounds concurrent stream clients; non-positive selects
	// DefaultMaxClients.
	MaxClients int
	// QueueLimit bounds each stream client's outbound queue in hub
	// delivery chunks (drop-oldest); non-positive selects
	// DefaultQueueLimit.
	QueueLimit int
	// NoDashboard disables the embedded dashboard at / (the API
	// endpoints stay mounted).
	NoDashboard bool
}

// Gateway is the web attachment: an http.Handler over a netscope.Server.
// Construct with New, mount with Server.ListenWeb (which also wires
// teardown into Server.Close). Gateway implements netscope.WebHandler.
type Gateway struct {
	srv  *netscope.Server
	web  *netscope.WebCounters
	opts Options
	mux  *http.ServeMux

	// ctx is canceled when the gateway shuts down: handlers waiting on
	// the loop, and every live stream, watch it.
	ctx    context.Context
	cancel context.CancelFunc

	// mu serializes stream admission with shutdown. The WaitGroup counts
	// stream handlers, each of which outlives its sink's writer; Close
	// waits for it, which is what makes Server.Close leak-free with
	// writers in flight.
	mu sync.Mutex
	//gscope:guardedby mu
	streams int
	wg      sync.WaitGroup
}

// New builds a gateway over srv. Mount it with srv.ListenWeb(addr, g),
// or on any mux of the caller's — ServeHTTP is a plain handler.
func New(srv *netscope.Server, opts Options) *Gateway {
	if opts.MaxClients <= 0 {
		opts.MaxClients = DefaultMaxClients
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = DefaultQueueLimit
	}
	g := &Gateway{srv: srv, web: srv.Web(), opts: opts}
	g.ctx, g.cancel = context.WithCancel(context.Background())
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/stream", g.handleSSE)
	mux.HandleFunc("/v1/ws", g.handleWS)
	mux.HandleFunc("/v1/view", g.handleView)
	mux.HandleFunc("/v1/params", g.handleParams)
	mux.HandleFunc("/v1/params/", g.handleParams)
	mux.HandleFunc("/v1/sessions", g.handleSessions)
	mux.HandleFunc("/v1/sessions/", g.handleSessions)
	if !opts.NoDashboard {
		mux.HandleFunc("/", g.handleDashboard)
	}
	g.mux = mux
	return g
}

// ServeHTTP dispatches to the mounted endpoints.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mux.ServeHTTP(w, r)
}

// Close shuts the gateway down: refuses new streams, ends every
// in-flight one (discarding its queue and, for WebSocket, closing its
// hijacked connection), and waits for all stream handlers to exit. Safe to
// call more than once. netscope.Server.Close calls it before tearing down
// the hub.
func (g *Gateway) Close() error {
	g.mu.Lock()
	g.cancel()
	g.mu.Unlock()
	g.wg.Wait()
	return nil
}

// admit reserves a stream client slot, enforcing shutdown and the client
// cap; every admitted handler defers leave.
func (g *Gateway) admit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ctx.Err() != nil {
		return errShutdown
	}
	if g.streams >= g.opts.MaxClients {
		return errTooManyClients
	}
	g.streams++
	g.wg.Add(1)
	return nil
}

// leave releases an admitted handler's slot.
func (g *Gateway) leave() {
	g.mu.Lock()
	g.streams--
	g.mu.Unlock()
	g.wg.Done()
}

// invoke runs fn on the server's loop goroutine and waits for it. It
// returns false when the gateway shuts down first — a stopped loop never
// runs posted work — and fn then never runs, not even late: a caller that
// gave up must not find a subscription made behind its back.
func (g *Gateway) invoke(fn func()) bool {
	if g.ctx.Err() != nil {
		return false
	}
	const pending, ran, abandoned = 0, 1, 2
	var state atomic.Int32
	done := make(chan struct{})
	g.srv.Loop().Invoke(func() {
		if state.CompareAndSwap(pending, ran) {
			fn()
		}
		close(done)
	})
	select {
	case <-done:
		return true
	case <-g.ctx.Done():
		if state.CompareAndSwap(pending, abandoned) {
			return false
		}
		<-done // fn is running on the loop; it finishes
		return true
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg}) //nolint:errcheck // best-effort error body
}

// writeJSON writes v as a JSON 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is the only failure
}
