package netscope

import (
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
)

// This file is the hub's attachment surface for the web gateway
// (repro/internal/webscope): the listener plumbing, the loop-goroutine
// read paths the HTTP handlers marshal onto, and the web lane's fan-out
// counters. The gateway itself — SSE/WebSocket streaming, the query API,
// the embedded dashboard — lives in webscope so netscope keeps zero
// net/http surface beyond this hook.

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

// WebView renders the tiered backfill store's envelope view of
// [sinceMS, newest] for every signal matching patterns, at most cols
// buckets per signal — O(cols) per signal, the same store Since+Cols
// subscriptions read. A negative sinceMS is a trailing window before the
// newest stream timestamp, like SubscriptionRequest.Since. Must run on
// the loop goroutine. Returns nil when the store is disabled
// (SetBackfillRetention was never called).
func (s *Server) WebView(patterns []string, sinceMS int64, cols int) ([]SignalView, error) {
	req := SubscriptionRequest{Signals: patterns}
	if err := req.validate(); err != nil {
		return nil, err
	}
	if s.hub.backfill == nil {
		return nil, nil
	}
	f := compileFilter(patterns)
	abs := s.resolveSince(time.Duration(sinceMS) * time.Millisecond)
	names := make([]string, 0, len(s.hub.backfill))
	for name := range s.hub.backfill {
		if f.match(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	views := make([]SignalView, 0, len(names))
	for _, name := range names {
		buckets := s.hub.backfill[name].ViewSince(abs, cols)
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
	return views, nil
}

// StreamNewest returns the newest retained stream timestamp (ms) and
// whether any tuple has been seen. Must run on the loop goroutine.
func (s *Server) StreamNewest() (int64, bool) { return s.hub.newestMS, s.hub.newestSet }

// BackfillEnabled reports whether the tiered backfill store is on. Must
// run on the loop goroutine.
func (s *Server) BackfillEnabled() bool { return s.hub.backfill != nil }

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
