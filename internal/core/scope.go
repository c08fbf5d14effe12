package core

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/draw"
	"repro/internal/glib"
	"repro/internal/tuple"
)

// Mode is the scope acquisition mode (§3.1): polling acquires signals from
// the running program; playback replays a recorded tuple stream.
type Mode int

// Acquisition modes.
const (
	ModeStopped Mode = iota
	ModePolling
	ModePlayback
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeStopped:
		return "stopped"
	case ModePolling:
		return "polling"
	case ModePlayback:
		return "playback"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Domain selects the display representation: signals can be viewed in the
// time or the frequency domain (§1).
type Domain int

// Display domains.
const (
	TimeDomain Domain = iota
	FreqDomain
)

// String names the domain.
func (d Domain) String() string {
	if d == FreqDomain {
		return "frequency"
	}
	return "time"
}

// Trigger stabilizes repeating waveforms by aligning the sweep to a level
// crossing of one signal — an oscilloscope feature the paper lists as
// future work (§6) and this reproduction implements as an extension.
type Trigger struct {
	// Signal names the trigger source.
	Signal string
	// Level is the crossing threshold in signal units.
	Level float64
	// Rising selects the slope: true triggers on upward crossings.
	Rising bool
}

// DefaultPeriod is the paper's example polling period (Figure 6 polls every
// 50 ms).
const DefaultPeriod = 50 * time.Millisecond

// Signal is the runtime state of one displayed signal (the paper's
// GtkScopeSignal object, created by the library for each GtkScopeSig the
// application registers).
type Signal struct {
	scope *Scope
	spec  Sig
	kind  Kind
	color draw.RGB
	min   float64
	max   float64
	line  LineMode
	alpha float64

	visible   bool
	showValue bool // the paper's per-signal "Value" button state

	filterY    float64
	filterInit bool

	trace *Trace
	acc   accumulator
	last  FloatVar
	holds bool // whether last holds a real sample yet

	// Envelope extension: rolling min/max band over envWindow samples.
	envWindow int

	samples int64
	holes   int64
}

// Name returns the signal name.
func (s *Signal) Name() string { return s.spec.Name }

// Kind returns the resolved signal kind.
func (s *Signal) Kind() Kind { return s.kind }

// Color returns the trace color.
func (s *Signal) Color() draw.RGB { return s.color }

// SetColor changes the trace color.
func (s *Signal) SetColor(c draw.RGB) { s.color = c }

// Range returns the displayed min/max mapping.
func (s *Signal) Range() (minVal, maxVal float64) { return s.min, s.max }

// SetRange changes the displayed min/max mapping; it is ignored unless
// maxVal > minVal.
func (s *Signal) SetRange(minVal, maxVal float64) {
	if maxVal > minVal {
		s.min, s.max = minVal, maxVal
	}
}

// Line returns the line mode.
func (s *Signal) Line() LineMode { return s.line }

// SetLine changes the line mode.
func (s *Signal) SetLine(m LineMode) { s.line = m }

// Visible reports whether the trace is displayed.
func (s *Signal) Visible() bool { return s.visible }

// SetVisible shows or hides the trace (the paper toggles this by
// left-clicking the signal name).
func (s *Signal) SetVisible(v bool) { s.visible = v }

// ToggleVisible flips visibility and returns the new state.
func (s *Signal) ToggleVisible() bool {
	s.visible = !s.visible
	return s.visible
}

// ShowValue reports whether the continuous value display is on.
func (s *Signal) ShowValue() bool { return s.showValue }

// SetShowValue enables the continuous value display (the Value button).
func (s *Signal) SetShowValue(v bool) { s.showValue = v }

// FilterAlpha returns the low-pass filter coefficient.
func (s *Signal) FilterAlpha() float64 { return s.alpha }

// SetFilterAlpha changes the low-pass α; values outside [0,1] are clamped.
// Setting α also resets the filter state so the next sample re-seeds it.
func (s *Signal) SetFilterAlpha(a float64) {
	if a < 0 {
		a = 0
	}
	if a > 1 {
		a = 1
	}
	s.alpha = a
	s.filterInit = false
}

// SetEnvelope enables the waveform-envelope extension with a rolling window
// of n samples (0 disables).
func (s *Signal) SetEnvelope(n int) {
	if n < 0 {
		n = 0
	}
	s.envWindow = n
}

// Envelope returns the envelope window (0 when disabled).
func (s *Signal) Envelope() int { return s.envWindow }

// Value returns the most recent sampled value (what the paper's Value
// button displays). It is safe to call from any goroutine.
func (s *Signal) Value() float64 { return s.last.Load() }

// Trace exposes the displayed sample history.
func (s *Signal) Trace() *Trace { return s.trace }

// Probe returns the publish handle for a BUFFER signal (see Scope.Probe).
func (s *Signal) Probe() (*Probe, error) { return s.scope.Probe(s.spec.Name) }

// Spec returns a copy of the registering specification.
func (s *Signal) Spec() Sig { return s.spec }

// filter applies the paper's low-pass y[i] = α·y[i-1] + (1-α)·x[i].
func (s *Signal) filter(x float64) float64 {
	if s.alpha == 0 {
		return x
	}
	if !s.filterInit {
		s.filterY = x
		s.filterInit = true
		return x
	}
	s.filterY = s.alpha*s.filterY + (1-s.alpha)*x
	return s.filterY
}

// record one displayed sample.
func (s *Signal) pushSample(v float64) {
	v = s.filter(v)
	s.trace.Push(v)
	s.last.Store(v)
	s.holds = true
	s.samples++
}

func (s *Signal) pushHole() {
	s.trace.PushHole()
	s.holes++
}

// Stats summarizes a scope's activity for tests and the stats display.
type Stats struct {
	// Polls counts timer dispatches (or manual steps).
	Polls int64
	// Slots counts sweep positions advanced, including lost-timeout
	// catch-up; Slots-Polls is the number of compensated intervals.
	Slots int64
	// LostTicks counts missed polling intervals (§4.5).
	LostTicks int64
	// FeedPushed and FeedDropped count buffered samples accepted and
	// dropped-late (§4.4).
	FeedPushed, FeedDropped int64
	// Recorded counts tuples written to the recorder.
	Recorded int64
}

// Scope is a software oscilloscope: the Go analogue of the paper's
// GtkScope widget state, separated from its GUI chrome so it can also run
// headless (recording, serving, benchmarking).
//
// All methods must be called on the owning loop's goroutine unless
// documented otherwise; cross-thread access goes through Loop.Invoke,
// mirroring the paper's global GTK lock discipline (§4.3). Event and Push
// are safe from any goroutine.
type Scope struct {
	loop   *glib.Loop
	name   string
	width  int
	height int

	period time.Duration
	delay  time.Duration
	zoom   float64 // horizontal pixels per sample; 1 = paper default
	bias   float64 // vertical offset in percent of full scale
	domain Domain

	mode    Mode
	srcID   glib.SourceID
	running bool
	origin  time.Time

	signals       []*Signal
	byName        map[string]*Signal
	nextHue       int
	histRetention int

	feed      *Feed
	bufCursor time.Duration
	bufInit   bool
	takeBuf   []tuple.Tuple // reused drain buffer (loop goroutine only)

	playback   []tuple.Tuple
	playIdx    int
	playCursor time.Duration
	onPlayDone func()

	trigger *Trigger

	recMu    sync.Mutex
	recorder *tuple.Writer
	recorded int64

	polls     int64
	slots     int64
	lostTicks int64
}

// New creates a scope named name with a canvas of width×height pixels,
// attached to loop (which supplies both the clock and the polling timer).
// It corresponds to the paper's gtk_scope_new(name, width, height).
func New(loop *glib.Loop, name string, width, height int) *Scope {
	if width < 16 {
		width = 16
	}
	if height < 16 {
		height = 16
	}
	return &Scope{
		loop:   loop,
		name:   name,
		width:  width,
		height: height,
		period: DefaultPeriod,
		zoom:   1,
		byName: make(map[string]*Signal),
		feed:   NewFeed(),
		origin: loop.Clock().Now(),
	}
}

// Name returns the scope name.
func (sc *Scope) Name() string { return sc.name }

// Loop returns the event loop the scope is attached to.
func (sc *Scope) Loop() *glib.Loop { return sc.loop }

// Size returns the canvas dimensions.
func (sc *Scope) Size() (w, h int) { return sc.width, sc.height }

// Mode returns the acquisition mode.
func (sc *Scope) Mode() Mode { return sc.mode }

// Running reports whether acquisition is active.
func (sc *Scope) Running() bool { return sc.running }

// Period returns the polling period.
func (sc *Scope) Period() time.Duration { return sc.period }

// Delay returns the buffered-signal display delay.
func (sc *Scope) Delay() time.Duration { return sc.delay }

// SetDelay changes the buffered display delay (the paper's delay widget).
func (sc *Scope) SetDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	sc.delay = d
}

// Zoom returns the horizontal zoom in pixels per sample.
func (sc *Scope) Zoom() float64 { return sc.zoom }

// SetZoom changes the horizontal zoom; values are clamped to [1/4096, 64].
// At the default zoom of 1 the scope displays data one pixel apart per
// polling period (§3.1). Below 1 each pixel column summarizes 1/zoom
// samples through the decimated render path; with history enabled
// (SetHistoryRetention) the deepest zoom puts millions of samples on
// screen at O(width) render cost.
func (sc *Scope) SetZoom(z float64) {
	if z < 1.0/4096 {
		z = 1.0 / 4096
	}
	if z > 64 {
		z = 64
	}
	sc.zoom = z
}

// Bias returns the vertical offset in percent of full scale.
func (sc *Scope) Bias() float64 { return sc.bias }

// SetBias translates the display vertically (the paper's bias widget).
func (sc *Scope) SetBias(b float64) {
	if b < -100 {
		b = -100
	}
	if b > 100 {
		b = 100
	}
	sc.bias = b
}

// Domain returns the display domain.
func (sc *Scope) Domain() Domain { return sc.domain }

// SetDomain switches between time- and frequency-domain display.
func (sc *Scope) SetDomain(d Domain) { sc.domain = d }

// SetTrigger installs a trigger (nil disables).
func (sc *Scope) SetTrigger(t *Trigger) { sc.trigger = t }

// TriggerConfig returns the installed trigger, or nil.
func (sc *Scope) TriggerConfig() *Trigger { return sc.trigger }

// Feed exposes the scope-wide buffered-signal feed.
func (sc *Scope) Feed() *Feed { return sc.feed }

// SetHistoryRetention backs every signal's trace ring with a tiered
// decimated history retaining approximately n slots (samples or holes) per
// signal — the store behind wide zoomed-out views, sized for millions of
// samples. n is a ceiling: each store grows with the slots it holds. It applies to existing signals (their history starts empty) and
// to signals added later. Non-positive n disables history for existing and
// future signals.
func (sc *Scope) SetHistoryRetention(n int) {
	if n < 0 {
		n = 0
	}
	sc.histRetention = n
	for _, s := range sc.signals {
		if n > 0 {
			s.trace.EnableHistory(n)
		} else {
			s.trace.DisableHistory()
		}
	}
}

// HistoryRetention returns the per-signal history retention in slots (0
// when disabled).
func (sc *Scope) HistoryRetention() int { return sc.histRetention }

// Elapsed returns the scope's clock position: time since the scope was
// created, on the loop's clock.
func (sc *Scope) Elapsed() time.Duration {
	return sc.loop.Clock().Now().Sub(sc.origin)
}

// AddSignal registers a signal from its specification and returns the
// runtime object, like the paper's gtk_scope_signal_new. Signals may be
// added and removed dynamically while the scope runs.
func (sc *Scope) AddSignal(spec Sig) (*Signal, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, dup := sc.byName[spec.Name]; dup {
		return nil, fmt.Errorf("core: duplicate signal %q", spec.Name)
	}
	s := &Signal{
		scope:   sc,
		spec:    spec,
		kind:    spec.inferKind(),
		line:    spec.Line,
		alpha:   spec.FilterAlpha,
		visible: !spec.Hidden,
		trace:   NewTrace(sc.traceCap()),
		min:     spec.Min,
		max:     spec.Max,
	}
	if s.min == 0 && s.max == 0 {
		s.min, s.max = 0, 100
	}
	if sc.histRetention > 0 {
		s.trace.EnableHistory(sc.histRetention)
	}
	if spec.HasColor {
		s.color = spec.Color
	} else if (spec.Color != draw.RGB{}) {
		s.color = spec.Color
	} else {
		s.color = draw.PaletteColor(sc.nextHue)
		sc.nextHue++
	}
	sc.signals = append(sc.signals, s)
	sc.byName[spec.Name] = s
	return s, nil
}

// traceCap sizes signal rings: enough history for the widest zoomed-out
// view plus the frequency-domain FFT window.
func (sc *Scope) traceCap() int {
	n := sc.width * 8
	if n < 1024 {
		n = 1024
	}
	return n
}

// RemoveSignal detaches a signal by name; it reports whether one existed.
func (sc *Scope) RemoveSignal(name string) bool {
	if _, ok := sc.byName[name]; !ok {
		return false
	}
	delete(sc.byName, name)
	kept := sc.signals[:0]
	for _, s := range sc.signals {
		if s.spec.Name != name {
			kept = append(kept, s)
		}
	}
	sc.signals = kept
	return true
}

// Signal looks up a signal by name.
func (sc *Scope) Signal(name string) *Signal { return sc.byName[name] }

// Signals returns the registered signals in registration order.
func (sc *Scope) Signals() []*Signal {
	out := make([]*Signal, len(sc.signals))
	copy(out, sc.signals)
	return out
}

// Event pushes one event sample for an aggregated signal (§4.2). It is
// safe from any goroutine. Events pushed for unknown or non-aggregated
// signals are ignored (returning false) so instrumentation can be left in
// place while signals come and go.
func (sc *Scope) Event(name string, v float64) bool {
	s := sc.byName[name]
	if s == nil || s.spec.Agg == AggNone {
		return false
	}
	s.acc.add(v)
	return true
}

// Push enqueues a timestamped sample for a BUFFER signal; at is relative to
// the scope's origin. Safe from any goroutine. It returns false when the
// sample was dropped for arriving late.
func (sc *Scope) Push(at time.Duration, name string, v float64) bool {
	return sc.feed.Push(at, name, v)
}

// PushNow stamps the sample with the scope's current elapsed time.
func (sc *Scope) PushNow(name string, v float64) bool {
	return sc.feed.Push(sc.Elapsed(), name, v)
}

// Probe returns a pre-registered publish handle for a BUFFER signal on
// this scope: the name is validated and interned once, the feed shard
// pinned, and Probe.Record stamps samples with the scope's clock — the
// few-lines-in-the-hot-loop instrumentation shape of §3–4 without the
// per-sample string costs. The name does not need a registered Signal yet
// (instrumentation may be laid down before the display side exists), but
// if one exists it must be a BUFFER signal. Probes are idempotent per name
// and single-producer; see core.Probe.
func (sc *Scope) Probe(name string) (*Probe, error) {
	if s := sc.byName[name]; s != nil && s.kind != KindBuffer {
		return nil, fmt.Errorf("core: signal %q is %s, not BUFFER", name, s.kind)
	}
	// The clock binds only if this call creates the handle; an existing
	// handle may be live on another goroutine and must not be mutated.
	return sc.feed.probe(name, sc.Elapsed)
}

// SetPollingMode configures polling acquisition with the given sampling
// period, like gtk_scope_set_polling_mode(scope, period_ms). It does not
// start acquisition; call StartPolling.
func (sc *Scope) SetPollingMode(period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("core: polling period must be positive")
	}
	if sc.running {
		return fmt.Errorf("core: cannot change mode while running")
	}
	sc.mode = ModePolling
	sc.period = period
	return nil
}

// SetPlaybackMode configures playback of a recorded tuple stream at the
// given display period (§3.3: data is displayed one pixel per period; a
// tuple at time t lands t/period pixels into the sweep). Tuples must be
// time-ordered.
func (sc *Scope) SetPlaybackMode(tuples []tuple.Tuple, period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("core: playback period must be positive")
	}
	if sc.running {
		return fmt.Errorf("core: cannot change mode while running")
	}
	for i := 1; i < len(tuples); i++ {
		if tuples[i].Time < tuples[i-1].Time {
			return fmt.Errorf("core: playback tuples out of order at index %d", i)
		}
	}
	sc.mode = ModePlayback
	sc.period = period
	sc.playback = tuples
	sc.playIdx = 0
	sc.playCursor = 0
	return nil
}

// OnPlaybackDone registers a callback invoked (on the loop goroutine) when
// playback exhausts its tuples.
func (sc *Scope) OnPlaybackDone(fn func()) { sc.onPlayDone = fn }

// StartPolling attaches the scope's polling timer to the loop, like
// gtk_scope_start_polling. The scope must be in polling mode.
func (sc *Scope) StartPolling() error {
	if sc.mode != ModePolling {
		return fmt.Errorf("core: scope %q is in %s mode", sc.name, sc.mode)
	}
	return sc.start()
}

// StartPlayback starts replaying the configured tuple stream.
func (sc *Scope) StartPlayback() error {
	if sc.mode != ModePlayback {
		return fmt.Errorf("core: scope %q is in %s mode", sc.name, sc.mode)
	}
	return sc.start()
}

func (sc *Scope) start() error {
	if sc.running {
		return fmt.Errorf("core: scope %q already running", sc.name)
	}
	sc.running = true
	sc.srcID = sc.loop.TimeoutAdd(sc.period, func(missed int) bool {
		sc.Step(missed)
		return sc.running
	})
	return nil
}

// Stop halts acquisition (polling or playback). The displayed traces are
// retained.
func (sc *Scope) Stop() {
	if !sc.running {
		return
	}
	sc.running = false
	sc.loop.Remove(sc.srcID)
	sc.srcID = 0
}

// Step advances the sweep by missed+1 polling intervals: one regular
// interval plus the intervals lost to scheduling latency, which the paper's
// implementation tracks and compensates for (§4.5). It is invoked by the
// polling timer and may also be called directly for deterministic
// operation.
func (sc *Scope) Step(missed int) {
	if missed < 0 {
		missed = 0
	}
	sc.polls++
	sc.lostTicks += int64(missed)
	slots := missed + 1
	sc.slots += int64(slots)

	switch sc.mode {
	case ModePlayback:
		sc.stepPlayback(slots)
	default:
		sc.stepPolling(slots)
	}
}

// stepPolling acquires one sample per signal for the newest slot, filling
// compensated (lost) slots with holes for unbuffered signals and with
// buffered data where timestamps allow.
func (sc *Scope) stepPolling(slots int) {
	now := sc.Elapsed()

	// Buffered signals first: their data is timestamped, so even lost
	// intervals can be reconstructed from the feed. The buffered cursor
	// trails `now` by the configured display delay.
	sc.drainFeed(now)

	for _, s := range sc.signals {
		if s.kind == KindBuffer {
			continue
		}
		for i := 0; i < slots-1; i++ {
			s.pushHole()
		}
		var v float64
		var ok bool
		if s.spec.Agg != AggNone {
			v, ok = s.acc.take(s.spec.Agg, sc.period)
		} else {
			v, ok = s.spec.Source.Sample()
		}
		if ok {
			s.pushSample(v)
			sc.record(now, s.spec.Name, v)
		} else if s.holds && s.spec.Agg != AggNone {
			// Sample-and-hold across empty aggregation intervals (§4.2).
			s.trace.Push(s.last.Load())
			s.samples++
		} else {
			s.pushHole()
		}
	}
}

// drainFeed advances the buffered display cursor toward now-delay, one
// period-wide slot at a time, assigning each BUFFER signal the last sample
// in each slot window (or a hole).
func (sc *Scope) drainFeed(now time.Duration) {
	target := now - sc.delay
	if !sc.bufInit {
		// Align the cursor so the first buffered slot ends at the first
		// poll's target time rather than replaying from zero.
		sc.bufCursor = target - sc.period
		if sc.bufCursor < 0 {
			sc.bufCursor = 0
		}
		sc.bufInit = true
	}
	for sc.bufCursor+sc.period <= target {
		windowEnd := sc.bufCursor + sc.period
		sc.takeBuf = sc.feed.DrainInto(windowEnd, sc.takeBuf[:0])
		sc.deliverWindow(sc.takeBuf, windowEnd, func(s *Signal) bool { return s.kind == KindBuffer })
		sc.bufCursor = windowEnd
	}
}

// deliverWindow pushes the last value per signal from batch into each
// matching signal's trace, and a hole where a signal got no data.
func (sc *Scope) deliverWindow(batch []tuple.Tuple, at time.Duration, match func(*Signal) bool) {
	got := make(map[string]float64, len(batch))
	for _, t := range batch {
		name := t.Name
		if name == "" && len(sc.signals) > 0 {
			// Two-field tuple form: route to the sole matching signal.
			name = sc.soleMatch(match)
		}
		got[name] = t.Value
	}
	for _, s := range sc.signals {
		if !match(s) {
			continue
		}
		if v, ok := got[s.spec.Name]; ok {
			s.pushSample(v)
			sc.record(at, s.spec.Name, v)
		} else {
			s.pushHole()
		}
	}
}

func (sc *Scope) soleMatch(match func(*Signal) bool) string {
	name := ""
	n := 0
	for _, s := range sc.signals {
		if match(s) {
			name = s.spec.Name
			n++
		}
	}
	if n == 1 {
		return name
	}
	return ""
}

// stepPlayback advances the playback cursor by slots periods, delivering
// file tuples into their period-wide windows.
func (sc *Scope) stepPlayback(slots int) {
	for i := 0; i < slots; i++ {
		windowEnd := sc.playCursor + sc.period
		var batch []tuple.Tuple
		for sc.playIdx < len(sc.playback) &&
			sc.playback[sc.playIdx].Timestamp() <= windowEnd {
			batch = append(batch, sc.playback[sc.playIdx])
			sc.playIdx++
		}
		sc.deliverWindow(batch, windowEnd, func(s *Signal) bool { return true })
		sc.playCursor = windowEnd
	}
	if sc.playIdx >= len(sc.playback) && sc.running {
		sc.Stop()
		if sc.onPlayDone != nil {
			sc.onPlayDone()
		}
	}
}

// SetRecorder directs every displayed sample to w in tuple format (§3.3);
// nil disables recording. Recording captures what the scope displays, so a
// recorded file replays to the same picture.
func (sc *Scope) SetRecorder(w io.Writer) {
	sc.recMu.Lock()
	defer sc.recMu.Unlock()
	if w == nil {
		if sc.recorder != nil {
			sc.recorder.Flush()
		}
		sc.recorder = nil
		return
	}
	sc.recorder = tuple.NewWriter(w)
}

// FlushRecorder flushes any buffered recorded tuples.
func (sc *Scope) FlushRecorder() error {
	sc.recMu.Lock()
	defer sc.recMu.Unlock()
	if sc.recorder == nil {
		return nil
	}
	return sc.recorder.Flush()
}

func (sc *Scope) record(at time.Duration, name string, v float64) {
	sc.recMu.Lock()
	if sc.recorder != nil {
		sc.recorder.Write(tuple.Tuple{Time: at.Milliseconds(), Value: v, Name: name})
		sc.recorded++
	}
	sc.recMu.Unlock()
}

// Stats returns activity counters.
func (sc *Scope) Stats() Stats {
	pushed, dropped := sc.feed.Stats()
	sc.recMu.Lock()
	rec := sc.recorded
	sc.recMu.Unlock()
	return Stats{
		Polls:       sc.polls,
		Slots:       sc.slots,
		LostTicks:   sc.lostTicks,
		FeedPushed:  pushed,
		FeedDropped: dropped,
		Recorded:    rec,
	}
}

// mapY converts a signal value to a canvas y coordinate within a rect of
// height h: the signal's [min,max] spans [0,100] percent (the paper's
// y-ruler scale), shifted by the scope bias.
func (sc *Scope) mapY(s *Signal, v float64, h int) int {
	span := s.max - s.min
	if span <= 0 {
		span = 1
	}
	pct := (v-s.min)/span*100 + sc.bias
	y := int(math.Round(float64(h-1) * (1 - pct/100)))
	return y
}

// triggerOffset locates the most recent trigger crossing in the trigger
// signal's trace and returns its back-index, or -1 when no crossing (or no
// trigger) applies.
func (sc *Scope) triggerOffset() int {
	tr := sc.trigger
	if tr == nil {
		return -1
	}
	s := sc.byName[tr.Signal]
	if s == nil {
		return -1
	}
	t := s.trace
	limit := t.Len() - 1
	for back := 0; back < limit; back++ {
		cur, ok1 := t.At(back)
		prev, ok2 := t.At(back + 1)
		if !ok1 || !ok2 {
			continue
		}
		if tr.Rising && prev < tr.Level && cur >= tr.Level {
			return back
		}
		if !tr.Rising && prev > tr.Level && cur <= tr.Level {
			return back
		}
	}
	return -1
}
