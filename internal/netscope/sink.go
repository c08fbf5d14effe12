package netscope

import (
	"io"
	"strconv"
	"strings"

	"repro/internal/glib"
	"repro/internal/tuple"
)

// Every live stream the hub feeds is one kind of subscriber: a
// glib.WriteWatch over the viewer's own writer plus an Encoding. A TCP
// viewer's writer is its connection and its encoding follows the
// handshake (text, or v3 with wire=3); the web gateway's streams are
// Sinks over a flushing SSE response or a hijacked WebSocket connection.
// The hub encodes each delivered batch once per (filter signature,
// encoding) and every subscriber of that pair shares the chunk, transport
// framing included.

// Encoding is how the hub shapes a subscriber's stream.
type Encoding uint8

const (
	// EncodeText is the §3.3 text stream (TCP v1 and v2).
	EncodeText Encoding = iota
	// EncodeV3 carries tuples as v3 binary frames (docs/WIRE.md); control
	// frames stay text lines.
	EncodeV3
	// EncodeSSE is the web gateway's Server-Sent Events lane: JSON events
	// (docs/HTTP.md) as `event:`/`data:` pairs.
	EncodeSSE
	// EncodeWSJSON carries the same events as WebSocket text messages
	// {"event":E,"data":D}.
	EncodeWSJSON
	// EncodeWSV3 carries the EncodeV3 stream as WebSocket binary
	// messages, one per chunk.
	EncodeWSV3

	numEncodings
)

// binary reports whether tuples travel as v3 frames.
func (e Encoding) binary() bool { return e == EncodeV3 || e == EncodeWSV3 }

// json reports whether the stream is the gateway's JSON event vocabulary.
func (e Encoding) json() bool { return e == EncodeSSE || e == EncodeWSJSON }

// web reports whether the subscriber is a web gateway stream.
func (e Encoding) web() bool { return e.json() || e == EncodeWSV3 }

// WebSocket opcodes the hub frames with (RFC 6455 §5.2).
const (
	wsText   = 0x1
	wsBinary = 0x2
)

// wsHeaderRoom is the largest server frame header (RFC 6455 §5.2): the
// room left ahead of a chunk that gets its WebSocket frame header in
// place.
const wsHeaderRoom = 10

// seal applies the transport framing that wraps a whole chunk: the
// WebSocket binary lane sends each chunk as one binary message. Every
// other encoding frames as it appends, so its chunks are already sealed.
func (e Encoding) seal(chunk []byte) []byte {
	if e != EncodeWSV3 || len(chunk) == 0 {
		return chunk
	}
	return e.sealInPlace(append(make([]byte, wsHeaderRoom, wsHeaderRoom+len(chunk)), chunk...))
}

// sealInPlace is seal for a chunk encoded after wsHeaderRoom reserved
// bytes: the WebSocket binary lane's header is written into the room, so
// the payload is never copied. Every other encoding gets the payload.
//
//gscope:hotpath
func (e Encoding) sealInPlace(b []byte) []byte {
	payload := b[wsHeaderRoom:]
	if e != EncodeWSV3 || len(payload) == 0 {
		return payload
	}
	start := wsHeaderRoom - wsHeaderLen(len(payload))
	AppendWSHeader(b[start:start], wsBinary, len(payload))
	return b[start:]
}

// appendControl appends one control frame in enc: the '#' text line on
// the stream lanes (control frames stay text in every wire version), its
// event on the JSON lanes — param and param-ok become `param` events,
// error an `error` event, any other verb a `control` event. The event
// carries the frame as a text reader would parse it, so fields passed
// space-joined split exactly as they do on a TCP viewer's side. A param
// frame whose value does not parse yields no event.
func (e Encoding) appendControl(dst []byte, verb string, fields ...string) []byte {
	if !e.json() {
		return tuple.AppendControl(dst, verb, fields...)
	}
	cf, _ := tuple.ParseControl(string(tuple.AppendControl(nil, verb, fields...)))
	var data []byte
	event := "control"
	switch cf.Verb {
	case "param", "param-ok":
		v, err := strconv.ParseFloat(cf.Arg(1), 64)
		if err != nil {
			return dst
		}
		event = "param"
		data = append(data, `{"name":`...)
		data = tuple.AppendJSONString(data, cf.Arg(0))
		data = append(data, `,"value":`...)
		data = tuple.AppendJSONValue(data, v)
		data = append(data, '}')
	case "error":
		event = "error"
		data = append(data, `{"error":`...)
		data = tuple.AppendJSONString(data, strings.Join(cf.Fields, " "))
		data = append(data, '}')
	default:
		data = append(data, `{"verb":`...)
		data = tuple.AppendJSONString(data, cf.Verb)
		data = append(data, `,"fields":[`...)
		for i, f := range cf.Fields {
			if i > 0 {
				data = append(data, ',')
			}
			data = tuple.AppendJSONString(data, f)
		}
		data = append(data, `]}`...)
	}
	return AppendEvent(dst, e, event, data)
}

// batchEvent is the hub's JSON encode of a delivery chunk: ts as one
// `batch` event in enc, in a chunk of exactly its size.
func (h *hubState) batchEvent(enc Encoding, ts []tuple.Tuple) []byte {
	payload := h.stageJSON(ts)
	return AppendEvent(make([]byte, 0, eventLen(enc, "batch", len(payload))), enc, "batch", payload)
}

// appendBatchEvent appends ts to dst as one `batch` event in enc.
//
//gscope:hotpath
func (h *hubState) appendBatchEvent(dst []byte, enc Encoding, ts []tuple.Tuple) []byte {
	return AppendEvent(dst, enc, "batch", h.stageJSON(ts))
}

// stageJSON encodes ts as a batch payload in the hub's scratch buffer:
// a WebSocket header and an exactly sized chunk both need its length up
// front.
//
//gscope:hotpath
func (h *hubState) stageJSON(ts []tuple.Tuple) []byte {
	h.scratch = tuple.AppendJSONBatch(h.scratch[:0], ts)
	return h.scratch
}

// eventLen is the framed size of an event in enc whose data is n bytes.
//
//gscope:hotpath
func eventLen(enc Encoding, event string, n int) int {
	if enc == EncodeSSE {
		return len("event: ") + len(event) + len("\ndata: ") + n + 2
	}
	n = wsEventLen(event, n)
	return wsHeaderLen(n) + n
}

// wsEventLen is the size of the WebSocket message {"event":E,"data":D}
// whose data is n bytes.
//
//gscope:hotpath
func wsEventLen(event string, n int) int {
	return len(`{"event":"`) + len(event) + len(`","data":`) + n + 1
}

// AppendEvent frames one JSON event for a web lane: an SSE event for
// EncodeSSE, a WebSocket text message {"event":E,"data":D} for the
// WebSocket encodings. data must be newline-free, which the JSON
// encoders guarantee.
//
//gscope:hotpath
func AppendEvent(dst []byte, enc Encoding, event string, data []byte) []byte {
	if enc == EncodeSSE {
		dst = append(dst, "event: "...)
		dst = append(dst, event...)
		dst = append(dst, "\ndata: "...)
		dst = append(dst, data...)
		return append(dst, '\n', '\n')
	}
	dst = AppendWSHeader(dst, wsText, wsEventLen(event, len(data)))
	dst = append(dst, `{"event":"`...)
	dst = append(dst, event...)
	dst = append(dst, `","data":`...)
	dst = append(dst, data...)
	return append(dst, '}')
}

// AppendWSHeader appends a server-to-client WebSocket frame header (fin,
// unmasked) for a payload of n bytes with opcode op.
//
//gscope:hotpath
func AppendWSHeader(dst []byte, op byte, n int) []byte {
	dst = append(dst, 0x80|op)
	switch wsHeaderLen(n) {
	case 2:
		dst = append(dst, byte(n))
	case 4:
		dst = append(dst, 126, byte(n>>8), byte(n))
	default:
		dst = append(dst, 127,
			byte(uint64(n)>>56), byte(uint64(n)>>48), byte(uint64(n)>>40), byte(uint64(n)>>32),
			byte(uint64(n)>>24), byte(uint64(n)>>16), byte(uint64(n)>>8), byte(uint64(n)))
	}
	return dst
}

// wsHeaderLen is the size of the frame header AppendWSHeader writes for
// an n-byte payload.
//
//gscope:hotpath
func wsHeaderLen(n int) int {
	switch {
	case n <= 125:
		return 2
	case n <= 0xFFFF:
		return 4
	default:
		return wsHeaderRoom
	}
}

// A Sink is a hub subscriber over a writer the caller owns — the web
// gateway's streams. See SubscribeSink.
type Sink struct {
	srv *Server
	sub *subscriber
}

// SubscribeSink registers w as a v2 subscriber with an explicit request,
// its stream shaped by enc and queued on a WriteWatch over w bounded at
// limit chunks (non-positive selects glib.DefaultWriteQueueLimit). The
// encoding decides the wire version: req.Wire is 3 for the v3 encodings
// and text otherwise. The hub never closes w; the sink ends when a write
// fails, on Close, or when the server closes — Watch().Done() closes
// then. Must run on the loop goroutine.
func (s *Server) SubscribeSink(w io.Writer, enc Encoding, req SubscriptionRequest, limit int) (*Sink, error) {
	req.Wire = 0
	if enc.binary() {
		req.Wire = 3
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	s.hubInit()
	sub := &subscriber{enc: enc, state: subSniffing}
	sub.ww = s.loop.WatchWriter(w, limit, func(error) { s.unsubscribe(sub) })
	s.hub.subs[sub] = struct{}{}
	s.activateV2(sub, req)
	return &Sink{srv: s, sub: sub}, nil
}

// Watch returns the sink's write queue. Its Send family is safe from any
// goroutine, so the owner can queue transport-level frames (WebSocket
// pongs and close echoes, SendProtected) in order with the hub's traffic,
// and Finish drains it before the owner closes the transport.
func (k *Sink) Watch() *glib.WriteWatch { return k.sub.ww }

// Command runs one inbound v2 command line ("param set delay 80") as if
// it had arrived on a subscriber socket; the reply is queued on the sink.
// Must run on the loop goroutine.
func (k *Sink) Command(line string) { k.srv.subscriberLine(k.sub, line) }

// Close unsubscribes the sink, discarding whatever is still queued.
// Idempotent; must run on the loop goroutine.
func (k *Sink) Close() { k.srv.unsubscribe(k.sub) }
