package glib

import (
	"container/heap"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Standard source priorities, mirroring glib. Lower values dispatch first
// when multiple sources are due at the same instant.
const (
	PriorityHigh    = -100
	PriorityDefault = 0
	PriorityIdle    = 200
)

// DefaultTickGranularity models the kernel timer tick the paper is pinned to
// (§4.5): on 2002-era Linux the select timeout resolves at 10 ms, capping
// polling at 100 Hz. Timeout deadlines are quantized up to this granularity.
const DefaultTickGranularity = 10 * time.Millisecond

// SourceID identifies an attached source. The zero value is never a valid
// ID.
type SourceID uint64

// TimeoutFunc is invoked when a timeout source fires. missed is the number
// of whole intervals that were lost since the previous dispatch (0 when the
// source fired on schedule); the paper's scope uses this to advance its
// sweep appropriately under scheduling-induced timeout loss (§4.5). Return
// true to keep the source installed, false to remove it.
type TimeoutFunc func(missed int) bool

// IdleFunc is invoked when the loop has no due timers. Return true to keep
// the source installed.
type IdleFunc func() bool

// timerSource is a pending timeout source.
type timerSource struct {
	id        SourceID
	priority  int
	interval  time.Duration
	deadline  time.Time // quantized next fire time
	scheduled time.Time // un-quantized phase anchor
	fn        TimeoutFunc
	removed   bool
	index     int // heap index
}

type timerHeap []*timerSource

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].deadline.Equal(h[j].deadline) {
		return h[i].deadline.Before(h[j].deadline)
	}
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].id < h[j].id
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	s := x.(*timerSource)
	s.index = len(*h)
	*h = append(*h, s)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.index = -1
	*h = old[:n-1]
	return s
}

type idleSource struct {
	id      SourceID
	fn      IdleFunc
	removed bool
}

// Loop is a single-threaded event dispatcher. Sources may be added and
// removed from any goroutine; callbacks always run on the goroutine that
// calls Run, Iterate or AdvanceTo.
type Loop struct {
	clock       Clock
	granularity time.Duration

	mu     sync.Mutex
	timers timerHeap
	byID   map[SourceID]*timerSource
	idles  []*idleSource
	nextID uint64

	posted chan func()
	wake   chan struct{}
	quit   atomic.Bool

	lostTicks atomic.Int64 // total missed intervals across all timeout sources
}

// Option configures a Loop.
type Option func(*Loop)

// WithGranularity overrides the timer tick quantum. A granularity of 0
// disables quantization (ideal timers).
func WithGranularity(g time.Duration) Option {
	return func(l *Loop) { l.granularity = g }
}

// NewLoop creates a Loop on the given clock. A nil clock means RealClock.
func NewLoop(clock Clock, opts ...Option) *Loop {
	if clock == nil {
		clock = RealClock{}
	}
	l := &Loop{
		clock:       clock,
		granularity: DefaultTickGranularity,
		byID:        make(map[SourceID]*timerSource),
		posted:      make(chan func(), 1024),
		wake:        make(chan struct{}, 1),
	}
	for _, o := range opts {
		o(l)
	}
	return l
}

// Clock returns the clock the loop runs on.
func (l *Loop) Clock() Clock { return l.clock }

// Granularity returns the timer tick quantum.
func (l *Loop) Granularity() time.Duration { return l.granularity }

// LostTicks returns the total number of missed timeout intervals observed
// since the loop was created (§4.5 lost-timeout accounting).
func (l *Loop) LostTicks() int64 { return l.lostTicks.Load() }

func (l *Loop) wakeup() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// quantize rounds a deadline up to the next tick boundary, modeling the
// kernel waking the process only on timer interrupts.
func (l *Loop) quantize(t time.Time) time.Time {
	if l.granularity <= 0 {
		return t
	}
	ns := t.UnixNano()
	g := int64(l.granularity)
	q := (ns + g - 1) / g * g
	return time.Unix(0, q)
}

// TimeoutAdd installs a repeating timeout source with the given interval and
// default priority. It panics if interval <= 0 or fn is nil.
func (l *Loop) TimeoutAdd(interval time.Duration, fn TimeoutFunc) SourceID {
	return l.TimeoutAddPriority(interval, PriorityDefault, fn)
}

// TimeoutAddPriority installs a repeating timeout source with an explicit
// priority.
func (l *Loop) TimeoutAddPriority(interval time.Duration, priority int, fn TimeoutFunc) SourceID {
	if interval <= 0 {
		panic("glib: TimeoutAdd interval must be positive")
	}
	if fn == nil {
		panic("glib: TimeoutAdd fn must not be nil")
	}
	now := l.clock.Now()
	l.mu.Lock()
	l.nextID++
	s := &timerSource{
		id:        SourceID(l.nextID),
		priority:  priority,
		interval:  interval,
		scheduled: now.Add(interval),
		fn:        fn,
	}
	s.deadline = l.quantize(s.scheduled)
	heap.Push(&l.timers, s)
	l.byID[s.id] = s
	l.mu.Unlock()
	l.wakeup()
	return s.id
}

// IdleAdd installs an idle source that runs when no timers are due.
func (l *Loop) IdleAdd(fn IdleFunc) SourceID {
	if fn == nil {
		panic("glib: IdleAdd fn must not be nil")
	}
	l.mu.Lock()
	l.nextID++
	s := &idleSource{id: SourceID(l.nextID), fn: fn}
	l.idles = append(l.idles, s)
	id := s.id
	l.mu.Unlock()
	l.wakeup()
	return id
}

// Remove detaches a source by ID. Removing an unknown or already-removed
// source is a no-op and returns false.
func (l *Loop) Remove(id SourceID) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s, ok := l.byID[id]; ok {
		s.removed = true
		delete(l.byID, id)
		if s.index >= 0 {
			heap.Remove(&l.timers, s.index)
		}
		return true
	}
	for _, s := range l.idles {
		if s.id == id && !s.removed {
			s.removed = true
			return true
		}
	}
	return false
}

// Invoke schedules fn to run on the loop goroutine. It is the thread-safety
// bridge the paper describes as "acquiring the global GTK lock" (§4.3):
// application threads hand work to the GUI thread instead of mutating scope
// state directly. Invoke never blocks the loop; it may block the caller
// briefly if the posting queue is full.
func (l *Loop) Invoke(fn func()) {
	if fn == nil {
		return
	}
	l.posted <- fn
	l.wakeup()
}

// Quit makes Run return after the current dispatch completes. A Quit
// made before Run starts is kept, and that Run returns at once.
func (l *Loop) Quit() {
	l.quit.Store(true)
	l.wakeup()
}

// ErrVirtualRun is returned by Run when called on a loop whose clock is not
// a RealClock; virtual-clock loops are driven with AdvanceTo/Iterate.
var ErrVirtualRun = errors.New("glib: Run requires a real clock; drive virtual loops with AdvanceTo")

// Run dispatches sources until Quit is called. Returning consumes the
// quit request, so the loop can Run again. It must be used with a real
// clock; deterministic tests use AdvanceTo instead.
func (l *Loop) Run() error {
	if _, ok := l.clock.(RealClock); !ok {
		return ErrVirtualRun
	}
	defer l.quit.Store(false)
	for !l.quit.Load() {
		l.drainPosted()
		if l.quit.Load() {
			break
		}
		now := l.clock.Now()
		l.dispatchDue(now)
		idleRan := l.dispatchIdles()

		next, ok := l.nextDeadline()
		var wait time.Duration
		switch {
		case ok:
			wait = next.Sub(l.clock.Now())
			if wait < 0 {
				wait = 0
			}
		case idleRan:
			wait = 0
		default:
			wait = time.Hour // nothing due; sleep until woken
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-l.wake:
				t.Stop()
			case fn := <-l.posted:
				t.Stop()
				fn()
			case <-t.C:
			}
		} else {
			// Yield to wake/posted without sleeping.
			select {
			case <-l.wake:
			default:
			}
		}
	}
	return nil
}

// Iterate performs one dispatch pass at the clock's current time: posted
// functions, due timers, then idle sources. It returns true if any callback
// ran. It never blocks.
func (l *Loop) Iterate() bool {
	ran := l.drainPosted()
	if l.dispatchDue(l.clock.Now()) {
		ran = true
	}
	if l.dispatchIdles() {
		ran = true
	}
	return ran
}

// AdvanceTo drives a VirtualClock loop deterministically: it repeatedly
// advances the clock to the next timer deadline at or before t, dispatching
// in deadline order, and finally sets the clock to t. It panics when the
// loop's clock is not a *VirtualClock.
func (l *Loop) AdvanceTo(t time.Time) {
	vc, ok := l.clock.(*VirtualClock)
	if !ok {
		panic("glib: AdvanceTo requires a *VirtualClock")
	}
	for {
		l.drainPosted()
		next, ok := l.nextDeadline()
		if !ok || next.After(t) {
			break
		}
		if next.After(vc.Now()) {
			vc.Set(next)
		}
		l.dispatchDue(vc.Now())
		l.dispatchIdles()
	}
	if t.After(vc.Now()) {
		vc.Set(t)
	}
	l.drainPosted()
	l.dispatchIdles()
}

// Advance is shorthand for AdvanceTo(now + d) on a virtual clock.
func (l *Loop) Advance(d time.Duration) {
	vc, ok := l.clock.(*VirtualClock)
	if !ok {
		panic("glib: Advance requires a *VirtualClock")
	}
	l.AdvanceTo(vc.Now().Add(d))
}

func (l *Loop) drainPosted() bool {
	ran := false
	for {
		select {
		case fn := <-l.posted:
			fn()
			ran = true
		default:
			return ran
		}
	}
}

func (l *Loop) nextDeadline() (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.timers) == 0 {
		return time.Time{}, false
	}
	return l.timers[0].deadline, true
}

// dispatchDue fires every timer whose deadline is at or before now and
// reschedules repeating sources phase-coherently: the next deadline is
// computed from the original schedule, and wholly skipped intervals are
// reported to the callback as missed ticks rather than replayed.
func (l *Loop) dispatchDue(now time.Time) bool {
	ran := false
	for {
		l.mu.Lock()
		if len(l.timers) == 0 || l.timers[0].deadline.After(now) {
			l.mu.Unlock()
			return ran
		}
		s := heap.Pop(&l.timers).(*timerSource)
		l.mu.Unlock()
		if s.removed {
			continue
		}

		// Count whole intervals lost beyond the one being delivered.
		missed := 0
		if late := now.Sub(s.scheduled); late > 0 {
			missed = int(late / s.interval)
		}
		if missed > 0 {
			l.lostTicks.Add(int64(missed))
		}

		keep := s.fn(missed)
		ran = true

		l.mu.Lock()
		if keep && !s.removed {
			// Advance the phase anchor past now so the source does not
			// fire in a burst to catch up.
			s.scheduled = s.scheduled.Add(time.Duration(missed+1) * s.interval)
			if !s.scheduled.After(now) {
				s.scheduled = s.scheduled.Add(s.interval)
			}
			s.deadline = l.quantize(s.scheduled)
			heap.Push(&l.timers, s)
		} else {
			s.removed = true
			delete(l.byID, s.id)
		}
		l.mu.Unlock()
	}
}

func (l *Loop) dispatchIdles() bool {
	l.mu.Lock()
	if len(l.idles) == 0 {
		l.mu.Unlock()
		return false
	}
	batch := make([]*idleSource, len(l.idles))
	copy(batch, l.idles)
	l.mu.Unlock()

	ran := false
	for _, s := range batch {
		if s.removed {
			continue
		}
		keep := s.fn()
		ran = true
		if !keep {
			s.removed = true
		}
	}

	l.mu.Lock()
	kept := l.idles[:0]
	for _, s := range l.idles {
		if !s.removed {
			kept = append(kept, s)
		}
	}
	l.idles = kept
	l.mu.Unlock()
	return ran
}
