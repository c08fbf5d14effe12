package netscope

import (
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/glib"
)

// This file is the hub's attachment surface for the web gateway
// (repro/internal/webscope): the listener plumbing, the one loop-goroutine
// history read the HTTP handlers marshal onto (WebView, over the same
// tiered-store walk as decimated backfill), and the web lane's fan-out
// counters. The gateway itself — SSE/WebSocket streaming, the query API,
// the embedded dashboard — lives in webscope so netscope keeps zero
// net/http surface beyond this hook; the request grammar, signal filter
// and flight-log read it uses are the hub's own (wire.go, hub.go).

// WebHandler is what ListenWeb mounts: an http.Handler that can be told
// to shut down. Close must terminate every in-flight streaming response
// (SSE writers, hijacked WebSocket connections) and not return until
// their handler goroutines have exited — Server.Close relies on that
// ordering to guarantee a leak-free teardown.
type WebHandler interface {
	http.Handler
	Close() error
}

// ListenWeb binds addr and serves h on it. At most one web listener per
// server; call after the gateway is constructed and before loop.Run. The
// returned address is the bound one (addr may use port 0). Server.Close
// tears the listener, the handler and every in-flight request down.
func (s *Server) ListenWeb(addr string, h WebHandler) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.webLn = ln
	s.webH = h
	s.webSrv = &http.Server{Handler: h}
	s.webDone = make(chan struct{})
	go func() {
		defer close(s.webDone)
		s.webSrv.Serve(ln) //nolint:errcheck // always ErrServerClosed-ish at teardown
	}()
	return ln.Addr(), nil
}

// WebAddr returns the bound web listener address, nil without ListenWeb.
func (s *Server) WebAddr() net.Addr {
	if s.webLn == nil {
		return nil
	}
	return s.webLn.Addr()
}

// closeWeb tears down the web lane: the gateway first (so in-flight
// SSE/WebSocket writers observe shutdown and their goroutines exit —
// hijacked connections are invisible to http.Server and only the gateway
// can close them), then the http.Server (listener plus any remaining
// non-hijacked connections), then waits for the serve goroutine.
func (s *Server) closeWeb() error {
	if s.webSrv == nil {
		return nil
	}
	var err error
	if s.webH != nil {
		err = s.webH.Close()
	}
	if cerr := s.webSrv.Close(); err == nil && cerr != http.ErrServerClosed {
		err = cerr
	}
	<-s.webDone
	s.webSrv = nil
	s.webH = nil
	s.webLn = nil
	return err
}

// Loop returns the event loop the server runs on. Web gateway handlers
// run on net/http goroutines and must marshal every hub read or
// subscription through Loop().Invoke — all hub state is loop-owned.
func (s *Server) Loop() *glib.Loop { return s.loop }

// FlightDir returns the flight recorder's session directory ("" when not
// recording) — the web gateway's /v1/sessions source.
func (s *Server) FlightDir() string { return s.flightDir }

// SignalView is one signal's decimated min/max envelope over a queried
// window: the web gateway's JSON unit for /v1/view responses.
type SignalView struct {
	Name    string
	Buckets []core.TimedBucket
}

// ErrNoHistory is WebView's error when the hub keeps no tiered history
// (SetBackfillRetention was never called).
var ErrNoHistory = errors.New("history disabled: the hub runs without SetBackfillRetention")

// WebView is the web gateway's history read: the envelopes a Since+Cols
// subscription's backfill is drawn from, for req's signals, window and
// resolution, plus the newest stream stamp (seen is false before the
// first tuple). It fails on an invalid req, and with ErrNoHistory when
// the store is off. Must run on the loop goroutine.
func (s *Server) WebView(req SubscriptionRequest) (views []SignalView, newestMS int64, seen bool, err error) {
	if err := req.validate(); err != nil {
		return nil, 0, false, err
	}
	if s.hub.backfill == nil {
		return nil, 0, false, ErrNoHistory
	}
	views = s.hub.envelopes(compileFilter(req.Signals), s.resolveSince(req.Since), req.Cols)
	return views, s.hub.newestMS, s.hub.newestSet, nil
}

// WebCounters aggregates the web gateway lane's fan-out accounting.
// The gateway's HTTP goroutines and the hub update it; FanoutStats and
// the -ansi status line read it. All methods are safe from any goroutine.
type WebCounters struct {
	clients atomic.Int64 // currently connected stream clients
	served  atomic.Int64 // lifetime stream clients
	dropped atomic.Int64 // chunks departed web sinks lost to drop-oldest
	bytes   atomic.Int64 // payload bytes written to browsers
}

// Web returns the server's web lane counters; the gateway holds this
// pointer for the lifetime of the attachment.
func (s *Server) Web() *WebCounters { return &s.web }

// StreamOpen records a stream client connecting.
func (c *WebCounters) StreamOpen() { c.clients.Add(1); c.served.Add(1) }

// StreamClose records a stream client departing.
func (c *WebCounters) StreamClose() { c.clients.Add(-1) }

// AddBytes records n payload bytes written to a browser.
func (c *WebCounters) AddBytes(n int64) { c.bytes.Add(n) }

// Clients returns the number of currently connected stream clients.
func (c *WebCounters) Clients() int64 { return c.clients.Load() }

// AppendWebStats renders the web gateway lane counters into dst without
// allocating — the -ansi status line repaints it every second. Without a
// web listener dst is returned unchanged.
func (s *Server) AppendWebStats(dst []byte) []byte {
	if s.webLn == nil {
		return dst
	}
	dst = append(dst, "web clients="...)
	dst = strconv.AppendInt(dst, s.web.clients.Load(), 10)
	dst = append(dst, " served="...)
	dst = strconv.AppendInt(dst, s.web.served.Load(), 10)
	dst = append(dst, " drops="...)
	dst = strconv.AppendInt(dst, s.web.dropped.Load(), 10)
	dst = append(dst, " bytes="...)
	dst = strconv.AppendInt(dst, s.web.bytes.Load(), 10)
	return dst
}
