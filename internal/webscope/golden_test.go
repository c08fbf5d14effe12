package webscope

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/tuple"
)

// The golden transcripts pin the live lanes' event vocabulary
// (docs/HTTP.md) byte for byte, whatever carries the events out of the
// hub: every non-batch event must match exactly, and the batch events —
// whose boundaries follow hub delivery, not the vocabulary — must carry
// the same tuples in the same order.

// transcript accumulates one stream's events in comparable form:
// non-batch events verbatim, each run of batch events flattened into a
// single "batch" line listing its tuples.
type transcript struct {
	lines []string
	batch []string
}

func (tr *transcript) add(t *testing.T, name string, raw, data []byte) {
	t.Helper()
	if name != "batch" {
		tr.flush()
		tr.lines = append(tr.lines, string(raw))
		return
	}
	for _, tp := range decodeBatch(t, string(data)) {
		tr.batch = append(tr.batch, fmt.Sprintf("%d %v %s", tp.Time, tp.Value, tp.Name))
	}
}

func (tr *transcript) flush() {
	if len(tr.batch) > 0 {
		tr.lines = append(tr.lines, "batch "+strings.Join(tr.batch, "; "))
		tr.batch = nil
	}
}

func (tr *transcript) String() string {
	tr.flush()
	return strings.Join(tr.lines, "\n") + "\n"
}

func checkTranscript(t *testing.T, lane string, tr *transcript, want string) {
	t.Helper()
	if got := tr.String(); got != want {
		t.Fatalf("%s transcript diverged:\n--- got\n%s--- want\n%s", lane, got, want)
	}
}

// rawSSE reads an SSE stream's raw events ("event: NAME\ndata: DATA").
type rawSSE struct {
	events chan string
}

func openRawSSE(t *testing.T, r *rig, query string) *rawSSE {
	t.Helper()
	resp, err := r.client.Get(r.base + "/v1/stream?" + query)
	if err != nil {
		t.Fatalf("GET /v1/stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /v1/stream?%s: status %d", query, resp.StatusCode)
	}
	t.Cleanup(func() { resp.Body.Close() })
	s := &rawSSE{events: make(chan string, 256)}
	go func() {
		defer close(s.events)
		var buf []byte
		chunk := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(chunk)
			buf = append(buf, chunk[:n]...)
			for {
				i := bytes.Index(buf, []byte("\n\n"))
				if i < 0 {
					break
				}
				s.events <- string(buf[:i])
				buf = buf[i+2:]
			}
			if err != nil {
				return
			}
		}
	}()
	return s
}

// until records events into tr up to and including the first one named
// last.
func (s *rawSSE) until(t *testing.T, tr *transcript, last string) {
	t.Helper()
	for {
		select {
		case ev, ok := <-s.events:
			if !ok {
				t.Fatalf("sse stream ended before a %q event", last)
			}
			head, data, _ := strings.Cut(ev, "\n")
			name := strings.TrimPrefix(head, "event: ")
			tr.add(t, name, []byte(ev), []byte(strings.TrimPrefix(data, "data: ")))
			if name == last {
				return
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("sse: timed out waiting for a %q event", last)
		}
	}
}

// TestGoldenTranscriptSSE: hello, the hub's ack, backfill and snapshot
// brackets, live batches and a REST parameter notification.
func TestGoldenTranscriptSSE(t *testing.T) {
	r := newRig(t, Options{}, nil)
	r.inject(
		tuple.Tuple{Time: 1000, Value: 1, Name: "sig.a"},
		tuple.Tuple{Time: 2000, Value: 2.5, Name: "sig.a"},
		tuple.Tuple{Time: 1500, Value: 9, Name: "other"},
	)
	var back, snap transcript
	bs := openRawSSE(t, r, "signals=sig.*&since=-60000")
	bs.until(t, &back, "control") // the ack
	bs.until(t, &back, "control") // backfill
	bs.until(t, &back, "control") // backfill-end
	ss := openRawSSE(t, r, "signals=sig.*")
	ss.until(t, &snap, "control")
	ss.until(t, &snap, "control")
	ss.until(t, &snap, "control")

	r.inject(
		tuple.Tuple{Time: 3000, Value: 3, Name: "sig.a"},
		tuple.Tuple{Time: 3000, Value: 7, Name: "other"},
	)
	r.inject(tuple.Tuple{Time: 3100, Value: -0.125, Name: "sig.b"})
	if resp, body := r.put("/v1/params/delay-ms", `{"value":42}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT param: %d %s", resp.StatusCode, body)
	}
	bs.until(t, &back, "param")
	ss.until(t, &snap, "param")

	checkTranscript(t, "sse backfill", &back, `event: hello
data: {"proto":2,"format":"json","signals":["sig.*"],"maxRate":0,"sinceMS":-60000,"cols":0,"stream":true}
event: control
data: {"verb":"gscope-hub","fields":["2","signals=sig.*","since=-60000"]}
event: control
data: {"verb":"backfill","fields":["tuples=2","since-ms=0","source=history"]}
batch 1000 1 sig.a; 2000 2.5 sig.a
event: control
data: {"verb":"backfill-end","fields":[]}
batch 3000 3 sig.a; 3100 -0.125 sig.b
event: param
data: {"name":"delay-ms","value":42}
`)
	checkTranscript(t, "sse snapshot", &snap, `event: hello
data: {"proto":2,"format":"json","signals":["sig.*"],"maxRate":0,"sinceMS":0,"cols":0,"stream":true}
event: control
data: {"verb":"gscope-hub","fields":["2","signals=sig.*"]}
event: control
data: {"verb":"snapshot","fields":["tuples=2","window-ms=5000"]}
batch 1000 1 sig.a; 2000 2.5 sig.a
event: control
data: {"verb":"snapshot-end","fields":[]}
batch 3000 3 sig.a; 3100 -0.125 sig.b
event: param
data: {"name":"delay-ms","value":42}
`)
}

// wsUntil records frames into tr up to and including the first text
// event named last, or the first control frame with opcode lastOp.
func wsUntil(t *testing.T, ws *wsConn, tr *transcript, last string, lastOp byte) {
	t.Helper()
	for {
		f := ws.readFrame(t)
		switch f.opcode {
		case opText:
			var ev struct {
				Event string          `json:"event"`
				Data  json.RawMessage `json:"data"`
			}
			if err := json.Unmarshal(f.payload, &ev); err != nil {
				t.Fatalf("event frame %q: %v", f.payload, err)
			}
			tr.add(t, ev.Event, f.payload, ev.Data)
			if ev.Event == last {
				return
			}
		case opPong:
			tr.add(t, "pong", []byte("pong "+string(f.payload)), nil)
		case opClose:
			tr.add(t, "close", []byte(fmt.Sprintf("close %x", f.payload)), nil)
		default:
			t.Fatalf("unexpected frame opcode %#x", f.opcode)
		}
		if f.opcode == lastOp {
			return
		}
	}
}

// TestGoldenTranscriptWSJSON: the WebSocket JSON lane's hello, ack,
// backfill, live batches, a `param set` reply plus its notification, an
// error reply, ping→pong and the close echo.
func TestGoldenTranscriptWSJSON(t *testing.T) {
	r := newRig(t, Options{}, nil)
	r.inject(
		tuple.Tuple{Time: 1000, Value: 1, Name: "sig.a"},
		tuple.Tuple{Time: 2000, Value: 2, Name: "sig.a"},
		tuple.Tuple{Time: 1500, Value: 9, Name: "other"},
	)
	var tr transcript
	ws := dialWS(t, r.host, "/v1/ws?signals=sig.a&since=-60000")
	for i := 0; i < 3; i++ { // the ack, backfill, backfill-end
		wsUntil(t, ws, &tr, "control", 0)
	}
	r.inject(tuple.Tuple{Time: 3000, Value: 3, Name: "sig.a"})
	r.inject(tuple.Tuple{Time: 3001, Value: 4, Name: "sig.a"})
	ws.writeFrame(t, opText, []byte("param set delay-ms 80"))
	wsUntil(t, ws, &tr, "param", 0) // the reply
	wsUntil(t, ws, &tr, "param", 0) // the change notification
	ws.writeFrame(t, opText, []byte("make me a sandwich"))
	wsUntil(t, ws, &tr, "error", 0)
	ws.writeFrame(t, opPing, []byte("keepalive"))
	wsUntil(t, ws, &tr, "", opPong)
	ws.writeFrame(t, opClose, []byte{closeGoingAway >> 8, closeGoingAway & 0xFF})
	wsUntil(t, ws, &tr, "", opClose)

	checkTranscript(t, "ws-json", &tr, `{"event":"hello","data":{"proto":2,"format":"json","signals":["sig.a"],"maxRate":0,"sinceMS":-60000,"cols":0,"stream":true}}
{"event":"control","data":{"verb":"gscope-hub","fields":["2","signals=sig.a","since=-60000"]}}
{"event":"control","data":{"verb":"backfill","fields":["tuples=2","since-ms=0","source=history"]}}
batch 1000 1 sig.a; 2000 2 sig.a
{"event":"control","data":{"verb":"backfill-end","fields":[]}}
batch 3000 3 sig.a; 3001 4 sig.a
{"event":"param","data":{"name":"delay-ms","value":80}}
{"event":"param","data":{"name":"delay-ms","value":80}}
{"event":"error","data":{"error":"unknown command make"}}
pong keepalive
close 03e9
`)
}
