package webscope

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
	"repro/internal/netscope"
	"repro/internal/reclog"
	"repro/internal/testutil"
	"repro/internal/tuple"
)

func TestMain(m *testing.M) {
	testutil.VerifyTestMain(m)
}

// rig is a real hub with the web gateway attached: a RealClock loop
// running in its own goroutine (the gscoped arrangement), a backfill
// store, a parameter registry, and an HTTP client wired for cleanup.
type rig struct {
	t      *testing.T
	loop   *glib.Loop
	srv    *netscope.Server
	g      *Gateway
	base   string // http://host:port
	host   string // host:port
	client *http.Client
	delay  *core.FloatVar

	quitOnce chan struct{}
	loopDone chan struct{}
}

func newRig(t *testing.T, opts Options, setup func(srv *netscope.Server)) *rig {
	t.Helper()
	loop := glib.NewLoop(glib.RealClock{})
	srv := netscope.NewServer(loop)
	srv.SetBackfillRetention(4096)

	r := &rig{
		t: t, loop: loop, srv: srv,
		quitOnce: make(chan struct{}),
		loopDone: make(chan struct{}),
		delay:    &core.FloatVar{},
	}
	ps := core.NewParamSet()
	p := core.FloatParam("delay-ms", r.delay, 0, 1000)
	p.Step = 1
	if err := ps.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := ps.Add(&core.Param{Name: "version", Get: func() float64 { return 3 }}); err != nil {
		t.Fatal(err)
	}
	srv.SetParams(ps)
	if setup != nil {
		setup(srv)
	}

	r.g = New(srv, opts)
	addr, err := srv.ListenWeb("127.0.0.1:0", r.g)
	if err != nil {
		t.Fatal(err)
	}
	r.host = addr.String()
	r.base = "http://" + r.host

	tr := &http.Transport{}
	r.client = &http.Client{Transport: tr, Timeout: 0}

	go func() {
		loop.Run() //nolint:errcheck
		close(r.loopDone)
	}()
	t.Cleanup(func() {
		r.stop()
		tr.CloseIdleConnections()
	})
	return r
}

// stop is the gscoped teardown ordering: quit the loop, wait for it,
// then Server.Close (which tears the gateway down before the hub).
// Idempotent so tests can invoke it explicitly and via cleanup.
func (r *rig) stop() {
	select {
	case <-r.quitOnce:
		return
	default:
		close(r.quitOnce)
	}
	r.loop.Quit()
	<-r.loopDone
	if err := r.srv.Close(); err != nil {
		r.t.Errorf("Server.Close: %v", err)
	}
}

// inject delivers a batch on the loop goroutine and waits for it.
func (r *rig) inject(batch ...tuple.Tuple) {
	r.t.Helper()
	done := make(chan struct{})
	r.loop.Invoke(func() {
		r.srv.InjectBatch(batch)
		close(done)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		r.t.Fatal("inject: loop did not run the batch")
	}
}

func (r *rig) get(path string) (*http.Response, []byte) {
	r.t.Helper()
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		r.t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

func (r *rig) put(path, body string) (*http.Response, []byte) {
	r.t.Helper()
	req, err := http.NewRequest(http.MethodPut, r.base+path, strings.NewReader(body))
	if err != nil {
		r.t.Fatal(err)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		r.t.Fatalf("PUT %s: %v", path, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		r.t.Fatalf("PUT %s: read body: %v", path, err)
	}
	return resp, b
}

// --- SSE client --------------------------------------------------------------

type sseEvent struct {
	name string
	data string
}

// sseClient reads an SSE stream on its own goroutine and delivers parsed
// events on a channel; closing the response body ends it.
type sseClient struct {
	resp   *http.Response
	events chan sseEvent
}

func openSSE(t *testing.T, r *rig, query string) *sseClient {
	t.Helper()
	resp, err := r.client.Get(r.base + "/v1/stream?" + query)
	if err != nil {
		t.Fatalf("GET /v1/stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("GET /v1/stream: status %d: %s", resp.StatusCode, body)
	}
	return readSSE(t, resp)
}

// readSSE parses an open stream response's events.
func readSSE(t *testing.T, resp *http.Response) *sseClient {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	c := &sseClient{resp: resp, events: make(chan sseEvent, 64)}
	t.Cleanup(func() { resp.Body.Close() })
	go func() {
		defer close(c.events)
		var ev sseEvent
		buf := make([]byte, 0, 256)
		rd := resp.Body
		chunk := make([]byte, 4096)
		flushLine := func(line string) {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if ev.name != "" || ev.data != "" {
					c.events <- ev
					ev = sseEvent{}
				}
			}
		}
		for {
			n, err := rd.Read(chunk)
			buf = append(buf, chunk[:n]...)
			for {
				i := strings.IndexByte(string(buf), '\n')
				if i < 0 {
					break
				}
				flushLine(string(buf[:i]))
				buf = buf[i+1:]
			}
			if err != nil {
				return
			}
		}
	}()
	return c
}

// next returns the next event, failing the test on timeout or EOF.
func (c *sseClient) next(t *testing.T) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-c.events:
		if !ok {
			t.Fatal("sse: stream ended early")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("sse: timed out waiting for an event")
	}
	panic("unreachable")
}

// nextNamed skips events until one named name arrives.
func (c *sseClient) nextNamed(t *testing.T, name string) sseEvent {
	t.Helper()
	for i := 0; i < 64; i++ {
		ev := c.next(t)
		if ev.name == name {
			return ev
		}
	}
	t.Fatalf("sse: no %q event in 64 events", name)
	panic("unreachable")
}

// decodeBatch parses a batch event payload into tuples.
func decodeBatch(t *testing.T, data string) []tuple.Tuple {
	t.Helper()
	var raw [][3]any
	if err := json.Unmarshal([]byte(data), &raw); err != nil {
		t.Fatalf("batch %q: %v", data, err)
	}
	out := make([]tuple.Tuple, len(raw))
	for i, r := range raw {
		out[i] = tuple.Tuple{
			Time:  int64(r[0].(float64)),
			Value: r[1].(float64),
			Name:  r[2].(string),
		}
	}
	return out
}

// --- End-to-end: SSE ---------------------------------------------------------

// TestSSEEndToEnd drives a real net/http client through the whole lane:
// subscribe with a trailing window (backfill), receive live deltas,
// observe a parameter change pushed down the stream, and disconnect.
func TestSSEEndToEnd(t *testing.T) {
	r := newRig(t, Options{}, nil)
	r.inject(
		tuple.Tuple{Time: 1000, Value: 1, Name: "sig.a"},
		tuple.Tuple{Time: 2000, Value: 2, Name: "sig.a"},
		tuple.Tuple{Time: 1500, Value: 9, Name: "other"},
	)

	c := openSSE(t, r, "signals=sig.*&since=-60000")

	hello := c.nextNamed(t, "hello")
	var h struct {
		Proto   int      `json:"proto"`
		Format  string   `json:"format"`
		Signals []string `json:"signals"`
		SinceMS int64    `json:"sinceMS"`
		Stream  bool     `json:"stream"`
	}
	if err := json.Unmarshal([]byte(hello.data), &h); err != nil {
		t.Fatalf("hello %q: %v", hello.data, err)
	}
	if h.Proto != 2 || h.Format != "json" || h.SinceMS != -60000 || !h.Stream {
		t.Fatalf("hello = %+v", h)
	}
	if len(h.Signals) != 1 || h.Signals[0] != "sig.*" {
		t.Fatalf("hello signals = %v", h.Signals)
	}

	// Backfill: the trailing window replays the retained history, filtered
	// to the subscription, bracketed by control frames.
	var backfilled []tuple.Tuple
	sawBackfill := false
	for {
		ev := c.next(t)
		if ev.name == "batch" {
			backfilled = append(backfilled, decodeBatch(t, ev.data)...)
			continue
		}
		if ev.name != "control" {
			t.Fatalf("unexpected %q event during backfill: %s", ev.name, ev.data)
		}
		var cf struct {
			Verb   string   `json:"verb"`
			Fields []string `json:"fields"`
		}
		if err := json.Unmarshal([]byte(ev.data), &cf); err != nil {
			t.Fatalf("control %q: %v", ev.data, err)
		}
		if cf.Verb == "backfill" {
			sawBackfill = true
		}
		if cf.Verb == "backfill-end" {
			break
		}
	}
	if !sawBackfill {
		t.Fatal("no backfill control frame before backfill-end")
	}
	if len(backfilled) != 2 {
		t.Fatalf("backfill = %v, want the two sig.a tuples", backfilled)
	}
	for _, tp := range backfilled {
		if tp.Name != "sig.a" {
			t.Fatalf("backfill leaked a filtered signal: %v", tp)
		}
	}

	// Live delta.
	r.inject(tuple.Tuple{Time: 3000, Value: 3, Name: "sig.a"})
	live := decodeBatch(t, c.nextNamed(t, "batch").data)
	if len(live) != 1 || live[0] != (tuple.Tuple{Time: 3000, Value: 3, Name: "sig.a"}) {
		t.Fatalf("live batch = %v", live)
	}

	// A parameter change (set over REST) is pushed down the stream.
	resp, body := r.put("/v1/params/delay-ms", `{"value":42}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT param: %d %s", resp.StatusCode, body)
	}
	pev := c.nextNamed(t, "param")
	var pd struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal([]byte(pev.data), &pd); err != nil {
		t.Fatalf("param %q: %v", pev.data, err)
	}
	if pd.Name != "delay-ms" || pd.Value != 42 {
		t.Fatalf("param event = %+v", pd)
	}

	// Disconnect: the context watcher notices and the client slot frees.
	c.resp.Body.Close()
	testutil.WaitUntil(t, "web client count to drop", 10*time.Second, func() bool {
		return r.srv.Web().Clients() == 0
	})
}

// TestSSERejectsBadRequests covers the request-mapping error paths.
func TestSSERejectsBadRequests(t *testing.T) {
	r := newRig(t, Options{}, nil)
	for _, q := range []string{
		"max-rate=nope",
		"since=later",
		"cols=many",
		"max-rate=-1",
		"format=binary",
	} {
		resp, _ := r.get("/v1/stream?" + q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/stream?%s = %d, want 400", q, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, r.base+"/v1/stream", nil)
	resp, err := r.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stream = %d, want 405", resp.StatusCode)
	}
}

// TestStreamClientCap: MaxClients stream clients get through, the next
// gets 503, and a freed slot is reusable.
func TestStreamClientCap(t *testing.T) {
	r := newRig(t, Options{MaxClients: 1}, nil)
	c := openSSE(t, r, "")
	c.nextNamed(t, "hello")

	resp, body := r.get("/v1/stream")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second stream = %d %s, want 503", resp.StatusCode, body)
	}

	c.resp.Body.Close()
	testutil.WaitUntil(t, "slot to free", 10*time.Second, func() bool {
		resp, err := r.client.Get(r.base + "/v1/stream?stream=0")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1)) //nolint:errcheck
		return resp.StatusCode == http.StatusOK
	})
}

// --- /v1/view ----------------------------------------------------------------

type viewResponse struct {
	NewestMS *int64 `json:"newestMS"`
	FromMS   int64  `json:"fromMS"`
	Cols     int    `json:"cols"`
	Signals  []struct {
		Name    string       `json:"name"`
		Buckets [][5]float64 `json:"buckets"`
	} `json:"signals"`
}

func TestViewJSON(t *testing.T) {
	r := newRig(t, Options{}, nil)
	batch := make([]tuple.Tuple, 0, 64)
	for i := 0; i < 64; i++ {
		batch = append(batch,
			tuple.Tuple{Time: int64(i * 100), Value: float64(i), Name: "cps"},
			tuple.Tuple{Time: int64(i * 100), Value: float64(-i), Name: "errps"},
		)
	}
	r.inject(batch...)

	resp, body := r.get("/v1/view?signals=cps&from=-60000&cols=16")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("view: %d %s", resp.StatusCode, body)
	}
	var v viewResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("view body %s: %v", body, err)
	}
	if v.NewestMS == nil || *v.NewestMS != 6300 {
		t.Fatalf("newestMS = %v, want 6300", v.NewestMS)
	}
	if v.Cols != 16 || v.FromMS != -60000 {
		t.Fatalf("echoed cols/from = %d/%d", v.Cols, v.FromMS)
	}
	if len(v.Signals) != 1 || v.Signals[0].Name != "cps" {
		t.Fatalf("signals = %+v, want just cps", v.Signals)
	}
	if len(v.Signals[0].Buckets) == 0 {
		t.Fatal("no buckets for cps")
	}
	for _, bk := range v.Signals[0].Buckets {
		if bk[1] > bk[2] { // min > max
			t.Fatalf("bucket min > max: %v", bk)
		}
		if bk[4] <= 0 { // count
			t.Fatalf("empty bucket leaked: %v", bk)
		}
	}

	// An explicit `to` trims the envelope's tail.
	_, body = r.get("/v1/view?signals=cps&from=-60000&to=3000&cols=16")
	var trimmed viewResponse
	if err := json.Unmarshal(body, &trimmed); err != nil {
		t.Fatal(err)
	}
	if len(trimmed.Signals) != 1 {
		t.Fatalf("trimmed signals = %+v", trimmed.Signals)
	}
	for _, bk := range trimmed.Signals[0].Buckets {
		if int64(bk[0]) > 3000 {
			t.Fatalf("bucket past to=3000: %v", bk)
		}
	}

	// No match → empty signal list, still a valid envelope.
	_, body = r.get("/v1/view?signals=nothing")
	var empty viewResponse
	if err := json.Unmarshal(body, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Signals) != 0 {
		t.Fatalf("signals = %+v, want none", empty.Signals)
	}

	// Bad pattern → 400.
	resp, _ = r.get("/v1/view?signals=" + url.QueryEscape("[bad"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pattern = %d, want 400", resp.StatusCode)
	}
}

func TestViewPNG(t *testing.T) {
	r := newRig(t, Options{}, nil)
	var batch []tuple.Tuple
	for i := 0; i < 32; i++ {
		batch = append(batch, tuple.Tuple{Time: int64(i * 50), Value: float64(i % 7), Name: "cps"})
	}
	r.inject(batch...)

	resp, body := r.get("/v1/view?signals=cps&format=png&w=320&h=120")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("png view: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/png" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if len(body) < 8 || string(body[1:4]) != "PNG" {
		t.Fatalf("not a PNG (%d bytes)", len(body))
	}
}

// TestViewRequiresBackfillStore: without SetBackfillRetention the
// endpoint reports 409 rather than silently returning nothing.
func TestViewRequiresBackfillStore(t *testing.T) {
	loop := glib.NewLoop(glib.RealClock{})
	srv := netscope.NewServer(loop)
	g := New(srv, Options{})
	addr, err := srv.ListenWeb("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		loop.Run() //nolint:errcheck
		close(done)
	}()
	t.Cleanup(func() { srv.Close() })
	defer func() {
		loop.Quit()
		<-done
	}()

	resp, err := http.Get("http://" + addr.String() + "/v1/view")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("view without store = %d, want 409", resp.StatusCode)
	}
}

// --- /v1/params --------------------------------------------------------------

func TestParamsREST(t *testing.T) {
	r := newRig(t, Options{}, nil)

	resp, body := r.get("/v1/params")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("params list: %d %s", resp.StatusCode, body)
	}
	var list struct {
		Params []paramJSON `json:"params"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Params) != 2 {
		t.Fatalf("params = %+v, want delay-ms and version", list.Params)
	}

	resp, body = r.get("/v1/params/delay-ms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("param get: %d %s", resp.StatusCode, body)
	}
	var p paramJSON
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "delay-ms" || p.Min != 0 || p.Max != 1000 || p.ReadOnly {
		t.Fatalf("delay-ms info = %+v", p)
	}

	// PUT with a JSON body sets and echoes the stored value.
	resp, body = r.put("/v1/params/delay-ms", `{"value":80}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("param put: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Value != 80 || r.delay.Load() != 80 {
		t.Fatalf("set delay-ms: reply %v, var %v", p.Value, r.delay.Load())
	}

	// Out-of-range values come back clamped, like every other set path.
	_, body = r.put("/v1/params/delay-ms", `{"value":5000}`)
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Value != 1000 {
		t.Fatalf("clamped value = %v, want 1000", p.Value)
	}

	// ?value= is the query-parameter fallback.
	_, body = r.put("/v1/params/delay-ms?value=7", "")
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Value != 7 {
		t.Fatalf("query-set value = %v, want 7", p.Value)
	}

	// Error paths: unknown name, read-only, bad body, non-finite.
	if resp, _ = r.put("/v1/params/nope", `{"value":1}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown param = %d, want 404", resp.StatusCode)
	}
	if resp, _ = r.put("/v1/params/version", `{"value":1}`); resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only param = %d, want 403", resp.StatusCode)
	}
	if resp, _ = r.put("/v1/params/delay-ms", `nonsense`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", resp.StatusCode)
	}
	if resp, _ = r.put("/v1/params/delay-ms", `{"value":null}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing value = %d, want 400", resp.StatusCode)
	}
}

// TestParamsWithoutRegistry: a hub without SetParams 404s.
func TestParamsWithoutRegistry(t *testing.T) {
	loop := glib.NewLoop(glib.RealClock{})
	srv := netscope.NewServer(loop)
	g := New(srv, Options{})
	addr, err := srv.ListenWeb("127.0.0.1:0", g)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	resp, err := http.Get("http://" + addr.String() + "/v1/params")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	http.DefaultClient.CloseIdleConnections()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("params without registry = %d, want 404", resp.StatusCode)
	}
}

// --- /v1/sessions ------------------------------------------------------------

func TestSessions(t *testing.T) {
	dir := t.TempDir()
	var lg *reclog.Log
	r := newRig(t, Options{}, func(srv *netscope.Server) {
		var err error
		lg, err = srv.Record(dir, reclog.Options{})
		if err != nil {
			t.Fatal(err)
		}
	})
	var batch []tuple.Tuple
	for i := 0; i < 100; i++ {
		batch = append(batch, tuple.Tuple{Time: int64(i * 10), Value: float64(i), Name: "cps"})
		batch = append(batch, tuple.Tuple{Time: int64(i * 10), Value: 1, Name: "noise"})
	}
	r.inject(batch...)
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}

	resp, body := r.get("/v1/sessions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sessions: %d %s", resp.StatusCode, body)
	}
	var listing struct {
		Sessions []sessionJSON `json:"sessions"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 1 {
		t.Fatalf("sessions = %+v, want one", listing.Sessions)
	}
	s := listing.Sessions[0]
	if s.ID != 0 || s.Dir != dir || s.Tuples != 200 {
		t.Fatalf("session = %+v", s)
	}
	if s.FirstMS == nil || *s.FirstMS != 0 || s.LastMS == nil || *s.LastMS != 990 {
		t.Fatalf("session bounds = %v..%v", s.FirstMS, s.LastMS)
	}

	// A time-window, signal-filtered query.
	resp, body = r.get("/v1/sessions/0?from=500&to=700&signals=cps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session query: %d %s", resp.StatusCode, body)
	}
	var q struct {
		Dir       string   `json:"dir"`
		Truncated bool     `json:"truncated"`
		Tuples    [][3]any `json:"tuples"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("query body %s: %v", body, err)
	}
	if q.Dir != dir || q.Truncated {
		t.Fatalf("query meta = %+v", q)
	}
	if len(q.Tuples) == 0 {
		t.Fatal("windowed query returned nothing")
	}
	for _, tp := range q.Tuples {
		ms := int64(tp[0].(float64))
		if ms < 500 || ms > 700 {
			t.Fatalf("tuple outside window: %v", tp)
		}
		if tp[2].(string) != "cps" {
			t.Fatalf("filter leaked %v", tp)
		}
	}

	// limit keeps the newest tuples and reports the truncation.
	_, body = r.get("/v1/sessions/0?signals=cps&limit=5")
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if !q.Truncated || len(q.Tuples) != 5 {
		t.Fatalf("limited query: truncated=%v n=%d", q.Truncated, len(q.Tuples))
	}
	if last := q.Tuples[len(q.Tuples)-1]; int64(last[0].(float64)) != 990 {
		t.Fatalf("limit did not keep the newest: %v", last)
	}

	// Unknown session IDs 404.
	if resp, _ = r.get("/v1/sessions/7"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session = %d, want 404", resp.StatusCode)
	}
}

// TestSessionsWithoutRecorder: no -record → empty listing, query 404s.
func TestSessionsWithoutRecorder(t *testing.T) {
	r := newRig(t, Options{}, nil)
	_, body := r.get("/v1/sessions")
	var listing struct {
		Sessions []sessionJSON `json:"sessions"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Sessions) != 0 {
		t.Fatalf("sessions = %+v, want none", listing.Sessions)
	}
	if resp, _ := r.get("/v1/sessions/0"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query without recorder = %d, want 404", resp.StatusCode)
	}
}

// TestSessionsPatternsMatchStreams: a session query parses and matches
// signals exactly as a stream does — a pattern a stream rejects is a 400,
// and `a\b` is the exact name a\b, not a glob escape matching ab.
func TestSessionsPatternsMatchStreams(t *testing.T) {
	dir := t.TempDir()
	var lg *reclog.Log
	r := newRig(t, Options{}, func(srv *netscope.Server) {
		var err error
		if lg, err = srv.Record(dir, reclog.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	r.inject(tuple.Tuple{Time: 1, Value: 1, Name: "ab"}, tuple.Tuple{Time: 2, Value: 2, Name: `a\b`})
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	if resp, body := r.get("/v1/sessions/0?signals=" + url.QueryEscape("a b")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pattern with a space = %d %s, want 400", resp.StatusCode, body)
	}
	resp, body := r.get("/v1/sessions/0?signals=" + url.QueryEscape(`a\b`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var q struct {
		Tuples [][3]any `json:"tuples"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Tuples) != 1 || q.Tuples[0][2] != `a\b` {
		t.Fatalf(`signals=a\b matched %v, want just a\b`, q.Tuples)
	}
}

// TestSessionsTrailingWindow: a negative from/to is a trailing offset
// before the session's newest stamp, as a stream's since is before the
// hub's, not an absolute offset that reads the whole session.
func TestSessionsTrailingWindow(t *testing.T) {
	dir := t.TempDir()
	var lg *reclog.Log
	r := newRig(t, Options{}, func(srv *netscope.Server) {
		var err error
		if lg, err = srv.Record(dir, reclog.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	var batch []tuple.Tuple
	for i := 0; i < 100; i++ { // stamps 0..990 ms
		batch = append(batch, tuple.Tuple{Time: int64(i * 10), Value: float64(i), Name: "cps"})
	}
	r.inject(batch...)
	if err := lg.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query       string
		first, last int64
		n           int
	}{
		{"from=-100", 890, 990, 11},
		{"from=-100ms&to=-50ms", 890, 940, 6},
		{"from=-5s&to=-900", 0, 90, 10},
		{"from=500&to=-400", 500, 590, 10},
		{"to=-990", 0, 0, 0}, // reaches the timeline's start: nothing
		{"to=-5s", 0, 0, 0},
	} {
		resp, body := r.get("/v1/sessions/0?signals=cps&" + tc.query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.query, resp.StatusCode, body)
		}
		var q struct {
			Tuples [][3]any `json:"tuples"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		if len(q.Tuples) != tc.n {
			t.Fatalf("%s: %d tuples, want %d", tc.query, len(q.Tuples), tc.n)
		}
		if tc.n == 0 {
			continue
		}
		first, last := int64(q.Tuples[0][0].(float64)), int64(q.Tuples[tc.n-1][0].(float64))
		if first != tc.first || last != tc.last {
			t.Fatalf("%s: stamps %d..%d, want %d..%d", tc.query, first, last, tc.first, tc.last)
		}
	}
}

// --- Dashboard and counters --------------------------------------------------

func TestDashboard(t *testing.T) {
	r := newRig(t, Options{}, nil)
	resp, body := r.get("/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard: %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "<canvas") || !strings.Contains(string(body), "/v1/stream") {
		t.Fatal("dashboard HTML lacks the canvas viewer")
	}
	if resp, _ := r.get("/definitely-not-here"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", resp.StatusCode)
	}
}

func TestNoDashboard(t *testing.T) {
	r := newRig(t, Options{NoDashboard: true}, nil)
	if resp, _ := r.get("/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dashboard with NoDashboard = %d, want 404", resp.StatusCode)
	}
	if resp, _ := r.get("/v1/params"); resp.StatusCode != http.StatusOK {
		t.Fatalf("API with NoDashboard = %d, want 200", resp.StatusCode)
	}
}

// TestFanoutStatsWebLane: the hub's FanoutStats and the -ansi status
// line both see the gateway's counters.
func TestFanoutStatsWebLane(t *testing.T) {
	r := newRig(t, Options{}, nil)
	c := openSSE(t, r, "")
	c.nextNamed(t, "hello")

	var fs netscope.FanoutStats
	done := make(chan struct{})
	r.loop.Invoke(func() {
		fs = r.srv.FanoutStats()
		close(done)
	})
	<-done
	if fs.WebClients != 1 {
		t.Fatalf("FanoutStats.WebClients = %d, want 1", fs.WebClients)
	}

	line := string(r.srv.AppendWebStats(nil))
	if !strings.HasPrefix(line, "web clients=1 served=1 ") {
		t.Fatalf("AppendWebStats = %q", line)
	}
	if n := testing.AllocsPerRun(20, func() {
		buf := make([]byte, 0, 128)
		_ = r.srv.AppendWebStats(buf)
	}); n > 1 { // one alloc: the test's own buffer
		t.Fatalf("AppendWebStats allocates %v per run", n)
	}

	c.resp.Body.Close()
	testutil.WaitUntil(t, "client counter to drop", 10*time.Second, func() bool {
		return r.srv.Web().Clients() == 0
	})
}

// --- Teardown ----------------------------------------------------------------

// TestServerCloseWithLiveStreams is the leak regression for the teardown
// ordering: Server.Close with in-flight SSE and WebSocket streams must
// terminate every handler and writer goroutine (TestMain's leak check
// enforces the "no goroutine survives" half).
func TestServerCloseWithLiveStreams(t *testing.T) {
	r := newRig(t, Options{}, nil)
	r.inject(tuple.Tuple{Time: 1000, Value: 1, Name: "cps"})

	// One SSE stream and one WebSocket stream, both live.
	c := openSSE(t, r, "since=-60000")
	c.nextNamed(t, "hello")
	ws := dialWS(t, r.host, "/v1/ws?since=-60000")
	ws.expectEvent(t, "hello")

	if got := r.srv.Web().Clients(); got != 2 {
		t.Fatalf("live clients = %d, want 2", got)
	}

	// The gscoped shutdown path: quit the loop, then Server.Close. Close
	// must not return with gateway goroutines still running.
	r.stop()

	if got := r.srv.Web().Clients(); got != 0 {
		t.Fatalf("clients after Close = %d, want 0", got)
	}
	// Both streams observe EOF/close promptly.
	testutil.WaitUntil(t, "sse stream to end", 10*time.Second, func() bool {
		select {
		case _, ok := <-c.events:
			return !ok
		default:
			return false
		}
	})
	// New connections are refused: the listener is down.
	if _, err := r.client.Get(r.base + "/v1/params"); err == nil {
		t.Fatal("request succeeded after Server.Close")
	}
	// Close is idempotent.
	if err := r.srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestGatewayCloseRejectsNewStreams: a closed gateway answers 503.
func TestGatewayCloseRejectsNewStreams(t *testing.T) {
	r := newRig(t, Options{}, nil)
	if err := r.g.Close(); err != nil {
		t.Fatal(err)
	}
	resp, _ := r.get("/v1/stream")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream on closed gateway = %d, want 503", resp.StatusCode)
	}
	resp, _ = r.get("/v1/view")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("view on closed gateway = %d, want 503", resp.StatusCode)
	}
}

// --- Unit: query-parameter mapping ------------------------------------------

func TestStreamRequestMapping(t *testing.T) {
	q := url.Values{}
	q.Set("signals", "a,b.*")
	q.Add("signals", "c")
	q.Set("max-rate", "30")
	q.Set("since", "-10s")
	q.Set("cols", "512")
	q.Set("stream", "0")
	req, format, err := streamRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	if format != "json" {
		t.Fatalf("format = %q", format)
	}
	want := []string{"a", "b.*", "c"}
	if len(req.Signals) != len(want) {
		t.Fatalf("signals = %v", req.Signals)
	}
	for i := range want {
		if req.Signals[i] != want[i] {
			t.Fatalf("signals = %v, want %v", req.Signals, want)
		}
	}
	if req.MaxRate != 30 || req.Since != -10*time.Second || req.Cols != 512 || !req.NoStream {
		t.Fatalf("req = %+v", req)
	}

	// Millisecond since form.
	q = url.Values{"since": {"-2500"}}
	req, _, err = streamRequest(q)
	if err != nil {
		t.Fatal(err)
	}
	if req.Since != -2500*time.Millisecond {
		t.Fatalf("since = %v", req.Since)
	}

	// Validation failures propagate.
	if _, _, err := streamRequest(url.Values{"max-rate": {"-3"}}); err == nil {
		t.Fatal("negative max-rate accepted")
	}
	if _, _, err := streamRequest(url.Values{"since": {"whenever"}}); err == nil {
		t.Fatal("bad since accepted")
	}
}

// TestStreamHandshakeParity feeds one request to a browser stream's query
// and to a TCP subscriber's gscope-sub 2 handshake: both must accept or
// reject it alike, and the hub must echo the same applied request to both.
func TestStreamHandshakeParity(t *testing.T) {
	var subAddr string
	r := newRig(t, Options{}, func(srv *netscope.Server) {
		a, err := srv.ListenSubscribers("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		subAddr = a.String()
	})
	for _, tc := range []struct {
		fields []string // key=value, as query parameters and handshake fields
		ok     bool
	}{
		{[]string{"max-rate=NaN"}, false},
		{[]string{"max-rate=Inf"}, true},
		{[]string{"max-rate=-1"}, false},
		{[]string{"max-rate=1e-300"}, true},
		{[]string{"since=10000000000000"}, false},
		{[]string{"since=-10000000000000"}, false},
		{[]string{"since=-10s"}, true},
		{[]string{"cols=-1"}, false},
		{[]string{"stream=false"}, true},
		{[]string{"signals=a", "signals=b.*"}, true},
		{[]string{`signals=a\b`}, true},
		{[]string{"signals=a b"}, false},
	} {
		name := strings.Join(tc.fields, "&")
		q := url.Values{}
		for _, f := range tc.fields {
			k, v, _ := strings.Cut(f, "=")
			q.Add(k, v)
		}
		webAck, webOK := webStreamAck(t, r, q)
		tcpAck, tcpOK := tcpHandshakeAck(t, subAddr, "gscope-sub 2 "+strings.Join(tc.fields, " "))
		if webOK != tc.ok || tcpOK != tc.ok {
			t.Errorf("%s: web accepted=%v, TCP accepted=%v, want %v", name, webOK, tcpOK, tc.ok)
			continue
		}
		if webAck != tcpAck {
			t.Errorf("%s: hub applied %q for the web, %q for TCP", name, webAck, tcpAck)
		}
	}
}

// webStreamAck opens /v1/stream with q and returns the hub's echo of the
// applied request (the gscope-hub ack's fields), or false on a 400.
func webStreamAck(t *testing.T, r *rig, q url.Values) (string, bool) {
	t.Helper()
	resp, err := r.client.Get(r.base + "/v1/stream?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusBadRequest {
		return "", false
	}
	c := readSSE(t, resp)
	ev := c.nextNamed(t, "control")
	var ack struct {
		Verb   string   `json:"verb"`
		Fields []string `json:"fields"`
	}
	if err := json.Unmarshal([]byte(ev.data), &ack); err != nil || ack.Verb != "gscope-hub" || len(ack.Fields) == 0 {
		t.Fatalf("first control event %q is not the hub's ack", ev.data)
	}
	return strings.Join(ack.Fields[1:], " "), true
}

// tcpHandshakeAck sends line as a subscriber handshake and returns the
// echo in the hub's ack, or false when the hub answers with an error.
func tcpHandshakeAck(t *testing.T, addr, line string) (string, bool) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // net.Conn deadline
	if _, err := io.WriteString(conn, line+"\n"); err != nil {
		t.Fatal(err)
	}
	first, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("%q: no reply: %v", line, err)
	}
	f, ok := tuple.ParseControl(strings.TrimSpace(first))
	switch {
	case ok && f.Verb == "error":
		return "", false
	case ok && f.Verb == "gscope-hub" && f.Arg(0) == "2":
		return strings.Join(f.Fields[1:], " "), true
	}
	t.Fatalf("%q: unexpected reply %q", line, first)
	return "", false
}
