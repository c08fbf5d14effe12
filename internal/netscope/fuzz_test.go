package netscope

// Structured fuzzing over the subscriber control plane: the v2 handshake
// codec (parse/encode round trips, hostile field values), the per-
// subscription filter+decimation encoder (differential against a naive
// reference), and a live hub driven end-to-end — generated handshakes,
// param commands and tuple batches through a real listener — with the
// output invariant that every line the hub emits is either a well-formed
// control frame or a tuple it was actually given.

import (
	"bytes"
	"net"
	"path"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/glib"
	"repro/internal/tuple"
)

// reqEquivalent compares two requests field-wise (Since is whole
// milliseconds on both sides after a parse, so plain equality holds).
func reqEquivalent(a, b SubscriptionRequest) bool {
	return strings.Join(a.Signals, ",") == strings.Join(b.Signals, ",") &&
		a.MaxRate == b.MaxRate &&
		a.Since == b.Since &&
		a.Cols == b.Cols &&
		a.NoStream == b.NoStream
}

// FuzzV2HandshakeLine: parseSubscriptionRequest must never panic, and
// whatever it accepts must survive encodeLine→reparse unchanged —
// including generated handshakes with hostile field values.
func FuzzV2HandshakeLine(f *testing.F) {
	f.Add([]byte{}, "gscope-sub 2 signals=cpu.*,mem max-rate=30 since=-10000 cols=64")
	f.Add([]byte{1, 2, 3}, "gscope-sub 2 stream=0")
	f.Add([]byte{7}, "gscope-sub 2 since=9223372036854775807")
	f.Add([]byte{8}, "gscope-sub 2 since=-9223372036854775808")
	f.Add([]byte{9}, "gscope-sub 2 max-rate=NaN")
	f.Add([]byte{0xff, 0x10}, "1500 42.5 CWND")
	f.Fuzz(func(t *testing.T, data []byte, line string) {
		src := fuzzgen.New(data)
		for _, l := range []string{src.HandshakeLine(), line} {
			req, ok, err := parseSubscriptionRequest(l)
			if !ok || err != nil {
				continue
			}
			if verr := req.validate(); verr != nil {
				t.Fatalf("accepted request fails validate: %v (line %q)", verr, l)
			}
			enc := strings.TrimSuffix(req.encodeLine(), "\n")
			req2, ok2, err2 := parseSubscriptionRequest(enc)
			if !ok2 || err2 != nil {
				t.Fatalf("re-encoded request does not parse: ok=%v err=%v (%q from %q)", ok2, err2, enc, l)
			}
			if !reqEquivalent(req, req2) {
				t.Fatalf("handshake round trip drifted:\n%+v\nvs\n%+v\n(line %q, re-encoded %q)", req, req2, l, enc)
			}
		}
	})
}

// refSubset is the naive reference for encodeSubset: straightforward
// glob/exact matching and last-delivered-stamp decimation, no run
// optimization, no shared state.
func refSubset(req SubscriptionRequest, batch []tuple.Tuple) []tuple.Tuple {
	match := func(name string) bool {
		if len(req.Signals) == 0 {
			return true
		}
		for _, p := range req.Signals {
			if p == name {
				return true
			}
			if ok, _ := path.Match(p, name); ok {
				return true
			}
		}
		return false
	}
	var gap int64
	if req.MaxRate > 0 {
		gap = int64(1000 / req.MaxRate)
		if gap < 1 {
			gap = 0
		}
	}
	last := map[string]int64{}
	var out []tuple.Tuple
	for _, tu := range batch {
		if !match(tu.Name) {
			continue
		}
		if gap > 0 {
			if l, seen := last[tu.Name]; seen && (tu.Time < l || tu.Time-l < gap) {
				continue
			}
			last[tu.Name] = tu.Time
		}
		out = append(out, tu)
	}
	return out
}

// FuzzEncodeSubset: the hub's per-subscription filter and text encoder
// (same-name run optimization and all) must agree tuple-for-tuple with the
// naive reference, and its matched count with the reference's length. The
// delivered stream is by construction a subsequence of the batch.
func FuzzEncodeSubset(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("filter and decimate me"))
	f.Add(bytes.Repeat([]byte{0x42, 0x07, 0xee}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzgen.New(data)
		batch := src.Tuples(256, false)

		var req SubscriptionRequest
		if src.Bool() {
			// Patterns drawn from real batch names (sliced to produce both
			// hits and misses) plus the occasional glob.
			n := 1 + src.Intn(3)
			for i := 0; i < n; i++ {
				if len(batch) > 0 && src.Bool() {
					name := batch[src.Intn(len(batch))].Name
					if !strings.ContainsAny(name, " ,") {
						req.Signals = append(req.Signals, name)
						continue
					}
				}
				req.Signals = append(req.Signals, []string{"sig.*", "net*", "no-such-signal", "?"}[src.Intn(4)])
			}
		}
		rates := []float64{0, 0.5, 5, 100, 1000, 1e9}
		req.MaxRate = rates[src.Intn(len(rates))]

		want := refSubset(req, batch)
		sub := &subscriber{sub: compileSubscription(req)}
		kept := sub.passing(batch)
		chunk, matched := (&Server{}).appendTuples(nil, sub, kept), len(kept)
		if matched != len(want) {
			t.Fatalf("matched=%d, reference kept %d (req %+v)", matched, len(want), req)
		}
		// Non-strict: skewed batches are legitimately non-monotonic, which
		// the strict reader rejects. An unparseable line would surface as a
		// skipped tuple and fail the exact count check below.
		got, err := tuple.NewReader(bytes.NewReader(chunk), false).ReadAll()
		if err != nil {
			t.Fatalf("encoded subset does not parse: %v\nchunk %q", err, chunk)
		}
		if len(got) != len(want) {
			t.Fatalf("subset has %d tuples, reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("subset tuple %d: %+v != reference %+v", i, got[i], want[i])
			}
		}
	})
}

// FuzzHubProtocol drives a real hub over TCP with a generated handshake,
// generated tuple batches and generated param commands, and checks the
// server's whole output stream: every complete line is either a
// well-formed control frame or byte-identical to a tuple the server was
// given. Whatever the (possibly hostile) handshake asked for, the hub
// must never synthesize or corrupt data.
func FuzzHubProtocol(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("drive the hub end to end with this decision stream padding"))
	f.Add(bytes.Repeat([]byte{0x13, 0x88, 0x05, 0xe1}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzgen.New(data)
		vc := glib.NewVirtualClock(time.Unix(7000, 0))
		loop := glib.NewLoop(vc, glib.WithGranularity(0))
		srv := NewServer(loop)
		ps := core.NewParamSet()
		delay := 5.0
		ps.Add(&core.Param{Name: "delay", Get: func() float64 { return delay },
			Set: func(v float64) { delay = v }, Min: 0, Max: 100})
		srv.SetParams(ps)
		subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		injected := map[tuple.Tuple]bool{}
		inject := func(ts []tuple.Tuple) {
			for _, tu := range ts {
				injected[tu] = true
			}
			srv.InjectBatch(ts)
		}
		inject(src.Tuples(32, false))

		conn, err := net.Dial("tcp", subAddr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var mu sync.Mutex
		var raw bytes.Buffer
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			chunk := make([]byte, 4096)
			for {
				n, err := conn.Read(chunk)
				mu.Lock()
				raw.Write(chunk[:n])
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()

		// softPump iterates without failing: garbage handshakes leave the
		// connection in states the test cannot (and need not) predict.
		softPump := func(d time.Duration, cond func() bool) {
			deadline := time.Now().Add(d)
			for !cond() && time.Now().Before(deadline) {
				loop.Iterate()
				time.Sleep(100 * time.Microsecond)
			}
		}

		hl := src.HandshakeLine()
		if _, err := conn.Write([]byte(hl + "\n")); err != nil {
			t.Fatal(err)
		}
		softPump(5*time.Second, func() bool { return len(srv.hub.subs) == 1 })
		if len(srv.hub.subs) != 1 {
			t.Fatal("hub never registered the connection")
		}
		// A clean v2 handshake must go live.
		if req, ok, herr := parseSubscriptionRequest(hl); ok && herr == nil && req.Since == 0 {
			softPump(5*time.Second, func() bool { return srv.Subscribers() == 1 })
			if srv.Subscribers() != 1 {
				t.Fatalf("valid v2 handshake %q never went live", hl)
			}
		}

		inject(src.Tuples(64, false))
		for i := 0; i < 2; i++ {
			if _, err := conn.Write([]byte(src.ParamCommand() + "\n")); err != nil {
				break // hub may legitimately have closed on us
			}
		}
		inject(src.Tuples(16, false))
		sent := srv.SubscriberWritten()
		softPump(time.Second, func() bool {
			return srv.SubscribersFlushed() && srv.SubscriberWritten() >= sent
		})

		srv.Close()
		<-drained

		mu.Lock()
		out := raw.String()
		mu.Unlock()
		lines := strings.Split(out, "\n")
		if last := lines[len(lines)-1]; last != "" {
			lines = lines[:len(lines)-1] // torn tail from teardown mid-write
		}
		for _, line := range lines {
			if line == "" {
				continue
			}
			if strings.HasPrefix(line, "#") {
				if _, ok := tuple.ParseControl(line); !ok {
					t.Fatalf("hub emitted malformed control line %q", line)
				}
				continue
			}
			tu, perr := tuple.Parse(line)
			if perr != nil {
				t.Fatalf("hub emitted unparseable line %q: %v", line, perr)
			}
			if !injected[tu] {
				t.Fatalf("hub emitted tuple %+v it was never given (line %q, handshake %q)", tu, line, hl)
			}
		}
	})
}

// TestSinceOverflowRejected is the regression lock for a crasher found by
// FuzzV2HandshakeLine: a since= value whose millisecond count does not
// fit time.Duration silently overflowed the ms→Duration multiply, so the
// request round-tripped to a different window than the client asked for.
// Out-of-range values must be rejected like any other malformed field.
func TestSinceOverflowRejected(t *testing.T) {
	for _, val := range []string{
		"9223372036854775807",  // MaxInt64 ms
		"-9223372036854775808", // MinInt64 ms
		"9223372036855",        // first ms value past the Duration range
		"-9223372036855",
	} {
		_, ok, err := parseSubscriptionRequest("gscope-sub 2 since=" + val)
		if !ok {
			t.Fatalf("since=%s not recognized as a v2 handshake", val)
		}
		if err == nil {
			t.Fatalf("since=%s accepted despite overflowing time.Duration", val)
		}
	}
	// The extremes of the representable range stay accepted.
	for _, val := range []string{"9223372036854", "-9223372036854"} {
		req, ok, err := parseSubscriptionRequest("gscope-sub 2 since=" + val)
		if !ok || err != nil {
			t.Fatalf("in-range since=%s rejected: ok=%v err=%v", val, ok, err)
		}
		if got := req.Since.Milliseconds(); got != mustInt(val) {
			t.Fatalf("since=%s parsed to %d ms", val, got)
		}
	}
}

// TestMaxRateNaNRejected locks the companion fix: max-rate=NaN passed the
// `< 0` check (NaN compares false) and then poisoned the round trip —
// NaN never equals itself — while buying a subscription that decimates
// nothing. The param-set plane already rejects NaN for the same reason.
func TestMaxRateNaNRejected(t *testing.T) {
	for _, val := range []string{"NaN", "nan", "-NaN"} {
		_, ok, err := parseSubscriptionRequest("gscope-sub 2 max-rate=" + val)
		if !ok {
			t.Fatalf("max-rate=%s not recognized as a v2 handshake", val)
		}
		if err == nil {
			t.Fatalf("max-rate=%s accepted", val)
		}
	}
	if _, _, err := parseSubscriptionRequest("gscope-sub 2 max-rate=+Inf"); err != nil {
		t.Fatalf("max-rate=+Inf (harmless: no decimation) rejected: %v", err)
	}
}

func mustInt(s string) int64 {
	var n int64
	var neg bool
	for _, c := range s {
		if c == '-' {
			neg = true
			continue
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		return -n
	}
	return n
}
