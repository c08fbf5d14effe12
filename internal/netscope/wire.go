package netscope

import (
	"fmt"
	"math"
	"path"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/tuple"
)

// This file is the subscriber protocol's v2 vocabulary and its only
// owner: the SubscriptionRequest carried by the client's opening handshake
// line, the field grammar that decodes one (ParseSubscriptionFields, which
// the web gateway's query mapping calls too, and ParseSince), the
// functional options that build one, and the compiled signal filter the
// hub evaluates per tuple. Framing primitives (control-frame encode/parse)
// live in package repro/internal/tuple; the hub's state machine in hub.go.

const (
	// subMagic opens a v2 client's handshake line: "gscope-sub 2 ...".
	// It is a plain line, not a '#' comment — the client→server direction
	// of a subscriber connection is a command channel, not a tuple stream.
	subMagic = "gscope-sub"
	// hubVersion2 is the control-plane protocol revision.
	hubVersion2 = 2
)

// SubscriptionRequest is what a v2 subscriber asks of the hub. The zero
// value means "exactly the v1 stream": every signal, full rate, the
// connect-time snapshot.
type SubscriptionRequest struct {
	// Signals restricts the live stream (and any backfill) to signals
	// whose names match one of these patterns: an exact name, or a glob in
	// path.Match syntax ("cpu.*"). Empty means every signal. Patterns must
	// not contain white space or commas (the §3.3 name grammar allows
	// spaces; such names cannot be addressed by a filter and never match
	// one).
	Signals []string
	// MaxRate caps delivery per signal, in tuples per second: the hub
	// drops samples arriving less than 1/MaxRate after the last delivered
	// sample of the same signal (server-side decimation). 0 means
	// unlimited.
	MaxRate float64
	// Since requests backfill instead of the default snapshot: negative
	// means a trailing window before the newest stream timestamp
	// (-10*time.Second = the last ten seconds), positive an absolute
	// offset on the stream timeline. Zero requests no backfill. Backfill
	// is served from the hub's retained history, its tiered per-signal
	// store (when Cols is set), or the attached flight recorder.
	Since time.Duration
	// Cols, when non-zero with Since, asks for the backfill decimated to
	// at most Cols min/max buckets per signal, served O(Cols) from the
	// hub's tiered history — the zoomed-out-viewer path. Requires the hub
	// to have backfill enabled (Server.SetBackfillRetention).
	Cols int
	// NoStream makes the connection control-plane only: no snapshot, no
	// backfill, no live tuples — just command replies and notification
	// frames (the gscoped "param get/set" path).
	NoStream bool
	// Wire selects the downstream tuple encoding: 3 asks the hub to send
	// snapshot, backfill and deltas as v3 binary frames (docs/WIRE.md);
	// 0, 1 and 2 are the classic text stream. Negotiation is graceful by
	// construction — a pre-v3 hub ignores the unknown handshake key and
	// its ack therefore does not echo wire=3, which tells the client to
	// expect text. Control frames stay textual in every version.
	Wire int
}

// isZero reports whether the request asks for anything beyond the v1
// stream.
func (r *SubscriptionRequest) isZero() bool {
	return len(r.Signals) == 0 && r.MaxRate == 0 && r.Since == 0 && r.Cols == 0 && !r.NoStream &&
		r.Wire == 0
}

// validate rejects requests the wire encoding cannot carry: empty or
// space/comma-bearing signal patterns, malformed globs, negative rates
// or resolutions, unknown wire versions.
func (r *SubscriptionRequest) validate() error {
	for _, p := range r.Signals {
		// The handshake line splits on any white space, so a pattern
		// holding some could not be carried.
		if p == "" || strings.ContainsFunc(p, unicode.IsSpace) || strings.Contains(p, ",") {
			return fmt.Errorf("netscope: bad signal pattern %q (empty, or contains space/comma)", p)
		}
		if _, err := path.Match(p, "probe"); err != nil {
			return fmt.Errorf("netscope: bad signal pattern %q: %w", p, err)
		}
	}
	if r.MaxRate < 0 {
		return fmt.Errorf("netscope: negative max rate %v", r.MaxRate)
	}
	if r.Cols < 0 {
		return fmt.Errorf("netscope: negative backfill resolution %d", r.Cols)
	}
	switch r.Wire {
	case 0, 1, 2, 3:
	default:
		return fmt.Errorf("netscope: unsupported wire version %d", r.Wire)
	}
	return nil
}

// fields encodes the request as its key=value handshake fields (without the
// magic/version prefix); the same fields are echoed in the server's ack.
func (r *SubscriptionRequest) fields() []string {
	var f []string
	if len(r.Signals) > 0 {
		f = append(f, "signals="+strings.Join(r.Signals, ","))
	}
	if r.MaxRate > 0 {
		f = append(f, "max-rate="+strconv.FormatFloat(r.MaxRate, 'g', -1, 64))
	}
	if r.Since != 0 {
		f = append(f, "since="+strconv.FormatInt(r.Since.Milliseconds(), 10))
	}
	if r.Cols > 0 {
		f = append(f, "cols="+strconv.Itoa(r.Cols))
	}
	if r.NoStream {
		f = append(f, "stream=0")
	}
	if r.Wire == 3 {
		f = append(f, "wire=3")
	}
	return f
}

// encodeLine renders the full client handshake line (with newline).
func (r *SubscriptionRequest) encodeLine() string {
	parts := append([]string{subMagic, strconv.Itoa(hubVersion2)}, r.fields()...)
	return strings.Join(parts, " ") + "\n"
}

// parseSubscriptionRequest decodes a client handshake line. ok is false
// when the line is not a v2 subscribe request at all (the v1 fallback);
// err is non-nil when it is one but malformed (the server answers with an
// error frame and treats the connection as v1).
func parseSubscriptionRequest(line string) (req SubscriptionRequest, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) < 2 || f[0] != subMagic {
		return req, false, nil
	}
	if f[1] != strconv.Itoa(hubVersion2) {
		return req, true, fmt.Errorf("unsupported subscriber protocol version %q", f[1])
	}
	req, err = ParseSubscriptionFields(f[2:])
	return req, true, err
}

// ParseSubscriptionFields decodes a request's key=value fields — the
// handshake line after its magic and version, or the web gateway's query
// parameters rendered the same way — and validates the result. signals
// may repeat (its patterns accumulate); any other repeated key takes its
// last value. Unknown keys are ignored for forward compatibility.
func ParseSubscriptionFields(fields []string) (req SubscriptionRequest, err error) {
	for _, kv := range fields {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return req, fmt.Errorf("bad handshake field %q", kv)
		}
		switch key {
		case "signals":
			for _, p := range strings.Split(val, ",") {
				if p != "" {
					req.Signals = append(req.Signals, p)
				}
			}
		case "max-rate":
			req.MaxRate, err = strconv.ParseFloat(val, 64)
			// NaN compares false against 0, so it would slip past the sign
			// check into a subscription that decimates nothing.
			if err != nil || req.MaxRate < 0 || math.IsNaN(req.MaxRate) {
				return req, fmt.Errorf("bad max-rate %q", val)
			}
		case "since":
			if req.Since, err = ParseSince(val); err != nil {
				return req, fmt.Errorf("bad since %q", val)
			}
		case "cols":
			req.Cols, err = strconv.Atoi(val)
			if err != nil || req.Cols < 0 {
				return req, fmt.Errorf("bad cols %q", val)
			}
		case "stream":
			req.NoStream = val == "0" || val == "false"
		case "wire":
			// Known version 3 upgrades; anything else (including future
			// versions this hub cannot speak) falls back to text, and the
			// ack's missing wire=3 echo tells the client so. Never an
			// error: the negotiation degrades, it does not fail.
			if val == "3" {
				req.Wire = 3
			}
		}
	}
	return req, req.validate()
}

// ParseSince decodes a stream-timeline offset: whole milliseconds
// ("-10000") or a Go duration ("-10s", truncated to whole milliseconds,
// the timeline's resolution). Negative is a trailing window before the
// newest stamp, as in SubscriptionRequest.Since. A millisecond count
// whose Duration would overflow is rejected: a wrapped offset would
// silently name a different window.
func ParseSince(s string) (time.Duration, error) {
	if ms, err := strconv.ParseInt(s, 10, 64); err == nil {
		if ms > math.MaxInt64/int64(time.Millisecond) || ms < math.MinInt64/int64(time.Millisecond) {
			return 0, fmt.Errorf("netscope: time offset %q out of range", s)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("netscope: bad time offset %q (want milliseconds or a duration)", s)
	}
	return d.Truncate(time.Millisecond), nil
}

// SubscribeOption configures a v2 subscription. Passing any option to
// SubscribeTo/SubscribeToBatch (or gscope.SubscribeNet) switches the client
// to the v2 handshake; with none, the client is a pure v1 subscriber and
// receives a byte-identical v1 stream.
type SubscribeOption func(*SubscriptionRequest)

// WithSignals restricts the subscription to signals matching the given
// exact names or path.Match globs ("cpu.*").
func WithSignals(patterns ...string) SubscribeOption {
	return func(r *SubscriptionRequest) { r.Signals = append(r.Signals, patterns...) }
}

// WithMaxRate caps delivery at perSec tuples per second per signal,
// decimated server-side.
func WithMaxRate(perSec float64) SubscribeOption {
	return func(r *SubscriptionRequest) { r.MaxRate = perSec }
}

// WithSince requests backfill: negative d is a trailing window before the
// newest stream timestamp, positive an absolute stream offset.
func WithSince(d time.Duration) SubscribeOption {
	return func(r *SubscriptionRequest) { r.Since = d }
}

// WithResolution asks for the backfill decimated to at most cols min/max
// buckets per signal (with WithSince).
func WithResolution(cols int) SubscribeOption {
	return func(r *SubscriptionRequest) { r.Cols = cols }
}

// WithoutStream makes the connection control-plane only (param commands
// and notifications; no tuple stream).
func WithoutStream() SubscribeOption {
	return func(r *SubscriptionRequest) { r.NoStream = true }
}

// WithControl requests the v2 handshake with no other changes — the live
// stream carries the same tuples as v1, but the connection gains the
// control plane (param commands, notification frames).
func WithControl() SubscribeOption {
	return func(*SubscriptionRequest) {}
}

// WithWireVersion selects the downstream tuple encoding: 3 negotiates the
// v3 binary framing (docs/WIRE.md) through the v2 handshake, 1 or 2 the
// classic text stream. A hub that predates v3 ignores the request key and
// the subscription proceeds in text — the client adapts from the ack, so
// the option is always safe to pass. Other versions fail validation.
func WithWireVersion(v int) SubscribeOption {
	return func(r *SubscriptionRequest) {
		if v == 1 || v == 2 {
			v = 0
		}
		r.Wire = v
	}
}

// sigFilter is a compiled signal-name filter: exact names hash, glob
// patterns scan. nil means "match everything". A filter is used by one
// goroutine only (the loop that owns its subscription), which lets match
// memoise its glob verdicts unlocked.
type sigFilter struct {
	exact map[string]struct{}
	globs []string
	key   string // canonical signature, for sharing encoded chunks
	// verdicts memoises the glob verdict per name, for the first
	// maxFilterMemo names, so a stream's steady state does no
	// path.Match per tuple. Past the bound names are matched uncached,
	// so a stream of ever-new names cannot grow it.
	verdicts map[string]bool
}

// maxFilterMemo bounds a filter's verdict memo, in names.
const maxFilterMemo = 1024

// compileFilter builds a filter from request patterns; empty patterns
// yield nil (match all).
func compileFilter(patterns []string) *sigFilter {
	if len(patterns) == 0 {
		return nil
	}
	f := &sigFilter{key: strings.Join(patterns, ",")}
	for _, p := range patterns {
		if strings.ContainsAny(p, "*?[") {
			f.globs = append(f.globs, p)
		} else {
			if f.exact == nil {
				f.exact = make(map[string]struct{}, len(patterns))
			}
			f.exact[p] = struct{}{}
		}
	}
	return f
}

// match reports whether a signal name passes the filter.
func (f *sigFilter) match(name string) bool {
	if f == nil {
		return true
	}
	if _, ok := f.exact[name]; ok {
		return true
	}
	if len(f.globs) == 0 {
		return false
	}
	if v, ok := f.verdicts[name]; ok {
		return v
	}
	v := false
	for _, g := range f.globs {
		if v, _ = path.Match(g, name); v {
			break
		}
	}
	if len(f.verdicts) < maxFilterMemo {
		if f.verdicts == nil {
			f.verdicts = make(map[string]bool)
		}
		f.verdicts[name] = v
	}
	return v
}

// subscription is the hub-side compiled form of a request.
type subscription struct {
	req    SubscriptionRequest
	filter *sigFilter
	// minGapMS is the decimation interval implied by MaxRate (0 = none).
	minGapMS int64
	// lastSent is the per-signal decimation clock: the stamp of the last
	// delivered tuple of each signal.
	lastSent map[string]int64
}

func compileSubscription(req SubscriptionRequest) *subscription {
	s := &subscription{req: req, filter: compileFilter(req.Signals)}
	if req.MaxRate > 0 {
		// A gap past int64's range has no defined conversion (amd64 yields
		// MinInt64, which would switch decimation off): clamp it.
		s.minGapMS = math.MaxInt64
		if gap := 1000 / req.MaxRate; gap < math.MaxInt64 {
			s.minGapMS = int64(gap)
		}
		if s.minGapMS < 1 {
			s.minGapMS = 0 // >=1000/s: millisecond stamps cannot be decimated further
		} else {
			s.lastSent = make(map[string]int64)
		}
	}
	return s
}

// passes applies the filter and the decimation clock to one tuple,
// advancing the clock when the tuple is delivered. Stale-stamped tuples
// (earlier than the last delivered stamp of the same signal — skewed
// publisher clocks produce them) are dropped without rewinding the clock:
// a rewind would widen the next gap and let an out-of-order interleaving
// defeat the rate cap entirely.
func (s *subscription) passes(t tuple.Tuple) bool {
	if !s.filter.match(t.Name) {
		return false
	}
	if s.minGapMS > 0 {
		if last, seen := s.lastSent[t.Name]; seen {
			if t.Time < last || t.Time-last < s.minGapMS {
				return false
			}
		}
		s.lastSent[t.Name] = t.Time
	}
	return true
}

// plain reports whether the subscription imposes no per-tuple work at all,
// so the hub can hand it the shared unfiltered chunk.
func (s *subscription) plain() bool {
	return !s.req.NoStream && s.filter == nil && s.minGapMS == 0 && s.lastSent == nil
}

// shareKey returns a non-empty key when subscriptions with identical
// filters and no decimation state can share one encoded chunk per batch.
func (s *subscription) shareKey() string {
	if s.filter == nil || s.lastSent != nil {
		return ""
	}
	return s.filter.key
}
