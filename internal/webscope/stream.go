package webscope

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/netscope"
	"repro/internal/tuple"
)

// The live-stream lanes. Each browser client is an ordinary hub
// subscriber: the gateway hands Server.SubscribeSink a writer over the
// client's own transport — a flushing SSE response, or the hijacked
// WebSocket connection — and the hub queues the client's stream on a
// glib.WriteWatch over it, already in the lane's encoding. Filtering,
// decimation, snapshot/backfill and the one-encode-per-(filter signature,
// encoding) fan-out are the hub's own machinery, and the watch's bounded
// drop-oldest queue means a stalled tab loses its own oldest chunks and
// never blocks the hub or anyone else. A live client costs its handler
// goroutine and the watch's writer; SSE adds net/http's connection reader,
// and the WebSocket handler reads the inbound frames itself.
//
// Stream events (SSE `event:`/`data:` pairs; WebSocket text messages
// `{"event":E,"data":D}`):
//
//	hello   {"proto":2,"format":...,...}     gateway ack, applied request
//	batch   [[timeMS,value,"name"],...]      tuples (snapshot, backfill, live)
//	param   {"name":N,"value":V}             parameter change or reply
//	control {"verb":V,"fields":[...]}        any other hub control frame
//	error   {"error":MSG}                    hub-reported error
//
// Batch events follow hub delivery: one per delivered batch. format=binary
// (WebSocket only) replaces all of the above after hello with binary
// messages carrying the hub's v3 stream, one message per hub delivery
// chunk; decode with tuple.StreamDecoder semantics (docs/WIRE.md).

var (
	errShutdown       = errors.New("webscope: gateway shutting down")
	errTooManyClients = errors.New("webscope: too many stream clients")
	errPeerClosed     = errors.New("webscope: peer sent close")
)

// writeTimeout bounds one browser write; a tab stalled longer than this
// is disconnected (and Gateway.Close is never stuck behind it for more
// than one timeout).
const writeTimeout = 10 * time.Second

// sseWriter is an SSE client's transport as its hub sink writes it:
// every write carries the stall deadline and is flushed to the browser.
type sseWriter struct {
	w   http.ResponseWriter
	rc  *http.ResponseController
	web *netscope.WebCounters
}

func (s sseWriter) Write(p []byte) (int, error) {
	s.rc.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck // unsupported writers just lack the stall bound
	n, err := s.w.Write(p)
	if err == nil {
		err = s.rc.Flush()
	}
	s.web.AddBytes(int64(n))
	return n, err
}

// wsWriter is a WebSocket client's transport as its hub sink writes it:
// every write carries the stall deadline, and a failed write closes the
// connection so the handler's blocked frame read returns as well.
type wsWriter struct {
	conn net.Conn
	web  *netscope.WebCounters
}

func (w wsWriter) Write(p []byte) (int, error) {
	w.conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck // net.Conn deadline
	n, err := w.conn.Write(p)
	w.web.AddBytes(int64(n))
	if err != nil {
		w.conn.Close()
	}
	return n, err
}

// subscribe counts a client in, writes the hello event straight to w —
// nothing is queued yet, so it leads the stream — and subscribes w to the
// hub in enc. It returns nil, the client counted out again, when the
// client or the gateway went away first.
func (g *Gateway) subscribe(w io.Writer, enc netscope.Encoding, req netscope.SubscriptionRequest, format string) *netscope.Sink {
	g.web.StreamOpen()
	helloEnc := enc
	if enc == netscope.EncodeWSV3 {
		helloEnc = netscope.EncodeWSJSON // hello is a text message on every WebSocket
	}
	var sink *netscope.Sink
	if _, err := w.Write(netscope.AppendEvent(nil, helloEnc, "hello", helloData(nil, req, format))); err == nil {
		g.invoke(func() { sink, _ = g.srv.SubscribeSink(w, enc, req, g.opts.QueueLimit) })
	}
	if sink == nil {
		g.web.StreamClose()
	}
	return sink
}

// unsubscribe ends a stream whose client is gone: anything still queued
// is discarded, and once the sink's writer has exited — it must never
// touch the transport after the handler returns — the hub drops the sink.
func (g *Gateway) unsubscribe(sink *netscope.Sink) {
	ww := sink.Watch()
	ww.Cancel()
	<-ww.Done()
	g.srv.Loop().Invoke(sink.Close)
	g.web.StreamClose()
}

// --- Query-parameter mapping ------------------------------------------------

// streamRequest maps /v1/stream and /v1/ws query parameters onto a v2
// SubscriptionRequest through the hub's own handshake grammar
// (netscope.ParseSubscriptionFields; the table in docs/HTTP.md): signals,
// max-rate, since, cols and stream mean exactly what they mean on a
// gscope-sub 2 line. format selects the payload framing: "json" (default)
// or "binary" (WebSocket only: the hub's v3 stream).
func streamRequest(q url.Values) (netscope.SubscriptionRequest, string, error) {
	req, err := netscope.ParseSubscriptionFields(queryFields(q, "max-rate", "since", "cols", "stream"))
	if err != nil {
		return req, "", err
	}
	format := q.Get("format")
	if format == "" {
		format = "json"
	}
	return req, format, nil
}

// queryFields renders query parameters as v2 handshake fields: one per
// signals value (the key may repeat), then the first non-empty value of
// each of keys.
func queryFields(q url.Values, keys ...string) []string {
	var f []string
	for _, v := range q["signals"] {
		f = append(f, "signals="+v)
	}
	for _, k := range keys {
		if v := q.Get(k); v != "" {
			f = append(f, k+"="+v)
		}
	}
	return f
}

// helloData renders the hello event payload: the applied request.
func helloData(dst []byte, req netscope.SubscriptionRequest, format string) []byte {
	dst = append(dst, `{"proto":2,"format":"`...)
	dst = append(dst, format...)
	dst = append(dst, `","signals":[`...)
	for i, s := range req.Signals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = tuple.AppendJSONString(dst, s)
	}
	dst = append(dst, `],"maxRate":`...)
	dst = tuple.AppendJSONValue(dst, req.MaxRate)
	dst = append(dst, `,"sinceMS":`...)
	dst = strconv.AppendInt(dst, req.Since.Milliseconds(), 10)
	dst = append(dst, `,"cols":`...)
	dst = strconv.AppendInt(dst, int64(req.Cols), 10)
	dst = append(dst, `,"stream":`...)
	dst = strconv.AppendBool(dst, !req.NoStream)
	return append(dst, '}')
}

// --- SSE ---------------------------------------------------------------------

// handleSSE serves GET /v1/stream: a live JSON event stream.
func (g *Gateway) handleSSE(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "stream requires GET")
		return
	}
	req, format, err := streamRequest(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if format != "json" {
		httpError(w, http.StatusBadRequest, "SSE supports format=json only (binary needs /v1/ws)")
		return
	}
	if err := g.admit(); err != nil {
		httpError(w, streamErrCode(err), err.Error())
		return
	}
	defer g.leave()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	out := sseWriter{w: w, rc: http.NewResponseController(w), web: g.web}
	sink := g.subscribe(out, netscope.EncodeSSE, req, format)
	if sink == nil {
		return
	}
	// The request context turns a browser disconnect into teardown even
	// when the hub is idle (no write would ever fail).
	select {
	case <-r.Context().Done():
	case <-sink.Watch().Done():
	case <-g.ctx.Done():
	}
	g.unsubscribe(sink)
}

// --- WebSocket ---------------------------------------------------------------

// handleWS serves GET /v1/ws: the WebSocket lane. Text messages carry
// the same events as SSE; with format=binary the payload is the hub's
// v3 stream. Inbound text messages are v2 command lines ("param set
// delay-ms 80") run by the hub as if they had arrived on a subscriber
// socket; replies come back as param/error events.
func (g *Gateway) handleWS(w http.ResponseWriter, r *http.Request) {
	req, format, err := streamRequest(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	enc := netscope.EncodeWSJSON
	switch format {
	case "json":
	case "binary":
		enc = netscope.EncodeWSV3
	default:
		httpError(w, http.StatusBadRequest, "format must be json or binary")
		return
	}
	if err := g.admit(); err != nil {
		httpError(w, streamErrCode(err), err.Error())
		return
	}
	defer g.leave()
	conn, br, err := wsAccept(w, r)
	if err != nil {
		return // wsAccept already wrote the HTTP error (or the conn died)
	}
	defer conn.Close()
	// Gateway.Close reaches a blocked frame read by closing the connection.
	defer context.AfterFunc(g.ctx, func() { conn.Close() })()
	sink := g.subscribe(wsWriter{conn: conn, web: g.web}, enc, req, format)
	if sink == nil {
		return
	}
	g.readFrames(sink, br)
	// Drain-close: anything queued — in particular a close echo — reaches
	// the wire before the connection drops. Gateway.Close preempts the
	// drain by closing the connection.
	ww := sink.Watch()
	ww.Finish()
	<-ww.Done()
	g.unsubscribe(sink)
}

// readFrames is the WebSocket inbound loop: answers pings, honors close,
// and hands text messages to the hub as command lines. Pongs and close
// frames queue protected on the sink's watch, in order with the hub's
// traffic and exempt from drop-oldest, so congestion never eats a
// keepalive.
func (g *Gateway) readFrames(sink *netscope.Sink, br *bufio.Reader) {
	ww := sink.Watch()
	ctrl := func(op byte, payload []byte) error {
		switch op {
		case opPing:
			ww.SendProtected(appendWSFrame(nil, opPong, payload))
		case opClose:
			code := closeNormal
			if len(payload) >= 2 {
				code = int(payload[0])<<8 | int(payload[1])
			}
			ww.SendProtected(appendWSClose(nil, code, ""))
			return errPeerClosed
		}
		return nil
	}
	for {
		op, msg, err := readWSMessage(br, true, ctrl)
		if err != nil {
			if errors.Is(err, errWSProtocol) || errors.Is(err, errWSTooBig) {
				code := closeProtocolError
				if errors.Is(err, errWSTooBig) {
					code = closeTooBig
				}
				ww.SendProtected(appendWSClose(nil, code, ""))
			}
			return
		}
		if op != opText {
			continue
		}
		line := strings.TrimRight(string(msg), "\r\n")
		if line == "" || strings.ContainsAny(line, "\n\r") {
			continue
		}
		// Waiting for the hub to run the command bounds a flooding client
		// to one command in flight.
		if !g.invoke(func() { sink.Command(line) }) {
			return
		}
	}
}

// streamErrCode maps admission failures onto HTTP statuses.
func streamErrCode(err error) int {
	switch {
	case errors.Is(err, errTooManyClients):
		return http.StatusServiceUnavailable
	case errors.Is(err, errShutdown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}
