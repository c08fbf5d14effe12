package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tuple"
)

// feedShards is the number of independent shards a Feed is split into. It
// must be a power of two so the name-hash can be masked instead of modded.
// Publishers pushing different signals land on different shards and never
// contend on one mutex; 16 shards keep the memory overhead of an idle feed
// trivial while giving a machine-sized amount of lock spread.
const feedShards = 16

// feedShard is one independently locked slice of the feed. Tuples are
// routed to shards by signal name, so all samples of one signal share a
// shard and their arrival order is preserved end to end.
//
// The backlog is a head-offset deque: pushes append to buf, drains copy
// buf[head:head+cut] out and advance head, and the consumed prefix is
// compacted away once it outgrows the live tail — every tuple is moved
// O(1) times no matter how the push and drain cadences interleave, and the
// steady-state push→drain cycle allocates nothing (buffer capacity is
// retained across full drains).
type feedShard struct {
	mu sync.Mutex

	//gscope:guardedby mu
	buf []tuple.Tuple
	//gscope:guardedby mu
	head int // buf[:head] is consumed, buf[head:] is pending
	//gscope:guardedby mu
	displayed time.Duration // high-water mark of drained sample time
	//gscope:guardedby mu
	started bool
	//gscope:guardedby mu
	unsorted bool // pending arrived out of time order (rare)
	//gscope:guardedby mu
	lastTime int64 // newest timestamp in pending, for sortedness tracking
	//gscope:guardedby mu
	pushed int64
	//gscope:guardedby mu
	dropped int64
	// limNs mirrors the late-data cutoff for lock-free readers: it holds
	// displayed+1 in nanoseconds once the shard has started, 0 before.
	// Probe.RecordAt loads it to run the late check without taking mu
	// (`at <= displayed` ⟺ `int64(at) < limNs`); drains keep it in sync
	// under mu.
	limNs atomic.Int64
	// probes are the staging rings pinned to this shard; drains steal
	// their published samples under mu. Appended at registration.
	//gscope:guardedby mu
	probes []*Probe
	_      [24]byte // pad toward a cache line to limit false sharing
}

// note records t's timestamp for the sortedness check. Caller holds mu and
// has appended t to the backlog.
//
//gscope:hotpath
//gscope:locked mu
func (s *feedShard) note(t *tuple.Tuple) {
	if t.Time < s.lastTime {
		s.unsorted = true
	} else {
		s.lastTime = t.Time
	}
}

// emptied resets the sortedness tracking after the backlog fully drains.
// Caller holds mu.
//
//gscope:hotpath
//gscope:locked mu
func (s *feedShard) emptied() {
	s.unsorted = false
	s.lastTime = math.MinInt64
}

// Feed is the scope-wide buffer behind BUFFER signals (§3.1, §4.4):
// applications (or the network server) enqueue timestamped samples from any
// goroutine; the scope drains samples whose timestamps have aged past the
// user-specified display delay at each poll. A sample that arrives after
// the scope has already displayed its timestamp window is dropped
// immediately and counted, matching the paper's late-data rule.
//
// Internally the feed is sharded by signal name with per-shard locks, and
// the batch entry points (PushBatch, Take, DrainInto) lock each shard once
// per batch, so many concurrent publishers scale without contending on a
// single mutex. The per-sample Push is a thin wrapper over the same path.
type Feed struct {
	shards [feedShards]feedShard

	// Probe/ID registrations. regs is an id-indexed copy-on-write snapshot
	// so PushID resolves a SignalID with one atomic load and one slice
	// index — no hash, no lock; regMu serializes (rare) registrations.
	regMu sync.Mutex
	regs  atomic.Pointer[[]feedReg]
	//gscope:guardedby regMu
	probes map[string]*Probe
	//gscope:guardedby regMu
	interner *tuple.Interner
	origin   time.Time // Probe.Record's fallback clock origin
}

// feedReg is one registered signal: its canonical name and pinned shard.
type feedReg struct {
	sh   *feedShard
	name string
}

// NewFeed returns an empty feed.
func NewFeed() *Feed { return &Feed{origin: time.Now()} }

// shardIndex routes a signal name to its shard (FNV-1a, masked).
//
//gscope:hotpath
func shardIndex(name string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h & (feedShards - 1))
}

// push appends one tuple to shard s, applying the late-data rule against
// at — the sample's full-precision arrival timestamp. t.Time is at
// truncated to milliseconds (the tuple wire granularity); the check must
// use the un-truncated duration, or a sample at 1.7ms compares as 1ms
// against a 1.5ms displayed watermark and is wrongly dropped even though
// its window has not been displayed yet. Caller must not hold the shard
// lock.
//
//gscope:hotpath
func (s *feedShard) push(t tuple.Tuple, at time.Duration) bool {
	s.mu.Lock()
	s.pushed++
	if s.started && at <= s.displayed {
		s.dropped++
		s.mu.Unlock()
		return false
	}
	s.buf = append(s.buf, t)
	s.note(&t)
	s.mu.Unlock()
	return true
}

// Push enqueues a timestamped sample for the named BUFFER signal. It
// returns false when the sample arrived too late (its timestamp has already
// been displayed) and was dropped. The late check runs at the caller's full
// sub-millisecond precision; only the stored tuple is truncated to the
// millisecond wire granularity.
//
//gscope:hotpath
func (f *Feed) Push(at time.Duration, name string, v float64) bool {
	return f.shards[shardIndex(name)].push(tuple.Tuple{
		Time:  at.Milliseconds(),
		Value: v,
		Name:  name,
	}, at)
}

// PushTuple enqueues an already-encoded tuple (used by the streaming
// server). Wire tuples carry millisecond stamps, so the late check runs at
// that granularity.
//
//gscope:hotpath
func (f *Feed) PushTuple(t tuple.Tuple) bool {
	return f.shards[shardIndex(t.Name)].push(t, t.Timestamp())
}

// pushRun appends a run of same-shard tuples under one lock acquisition.
// sorted tells the shard the run's timestamps are already non-decreasing
// (PushBatch verifies this in its routing scan); such runs, when wholly on
// time — the overwhelming common case — take a bulk path: one append, one
// copy.
//
//gscope:hotpath
func (s *feedShard) pushRun(run []tuple.Tuple, sorted bool) int {
	s.mu.Lock()
	s.pushed += int64(len(run))
	var accepted int
	switch {
	case sorted && (!s.started || run[0].Timestamp() > s.displayed):
		// No tuple can be late (the earliest is on time) and order is
		// verified, so the whole run appends as one copy.
		s.buf = append(s.buf, run...)
		accepted = len(run)
		if run[0].Time < s.lastTime {
			s.unsorted = true
		}
		if last := run[len(run)-1].Time; last > s.lastTime {
			s.lastTime = last
		}
	default:
		for i := range run {
			if s.started && run[i].Timestamp() <= s.displayed {
				s.dropped++
				continue
			}
			s.buf = append(s.buf, run[i])
			s.note(&run[i])
			accepted++
		}
	}
	s.mu.Unlock()
	return accepted
}

// PushBatch enqueues a batch of tuples, locking each shard at most once
// per run of same-signal tuples, and returns how many were accepted (the
// rest arrived late and were dropped). It is the publisher-side hot path:
// the network server and batch-oriented instrumentation call it with whole
// decoded read chunks.
//
//gscope:hotpath
func (f *Feed) PushBatch(batch []tuple.Tuple) int {
	if len(batch) == 0 {
		return 0
	}
	// Publisher batches overwhelmingly carry runs of one signal (a
	// publisher streams the signals it owns), so route by run: hash once
	// per run, lock once per run, append the whole run. The routing scan
	// doubles as the time-order check, so the shard can bulk-append
	// verified runs without re-reading them. A fully mixed batch degrades
	// to per-tuple runs, which is still one hash and a short uncontended
	// lock per tuple — no worse than per-sample Push.
	accepted := 0
	for start := 0; start < len(batch); {
		name := batch[start].Name
		sorted := true
		end := start + 1
		for end < len(batch) && batch[end].Name == name {
			if batch[end].Time < batch[end-1].Time {
				sorted = false
			}
			end++
		}
		accepted += f.shards[shardIndex(name)].pushRun(batch[start:end], sorted)
		start = end
	}
	return accepted
}

// byTime stable-sorts a backlog that arrived out of time order (rare: it
// takes a publisher emitting non-monotonic stamps into one shard).
type byTime []tuple.Tuple

func (b byTime) Len() int           { return len(b) }
func (b byTime) Less(i, j int) bool { return b[i].Time < b[j].Time }
func (b byTime) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// takeRuns drains every shard up to upTo, appending each shard's due
// prefix to dst (one copy, under the shard lock, so concurrent drains are
// safe), and returns the extended dst plus each shard's [start,end) span
// in it. Each span is internally time-ordered.
//
//gscope:hotpath
func (f *Feed) takeRuns(upTo time.Duration, dst []tuple.Tuple) ([]tuple.Tuple, [feedShards][2]int, int) {
	var spans [feedShards][2]int
	total := 0
	for s := range f.shards {
		sh := &f.shards[s]
		sh.mu.Lock()
		sh.stealLocked()
		sh.started = true
		if upTo > sh.displayed {
			sh.displayed = upTo
		}
		sh.limNs.Store(int64(sh.displayed) + 1)
		live := sh.buf[sh.head:]
		n := len(live)
		if n == 0 {
			sh.mu.Unlock()
			continue
		}
		if sh.unsorted {
			// Out-of-order backlog (rare): restore time order in place —
			// a stable sort, so per-signal arrival order survives for
			// equal stamps — after which the prefix rule applies again.
			sort.Stable(byTime(live)) //gscope:allow hotpath rare out-of-order backlog; the interface box does not escape
			sh.unsorted = false
		}
		// The backlog is time-ordered (pushers stamp monotonically), so
		// the due tuples are a prefix found by binary search. The undue
		// tail is never scanned or copied, which keeps a drain
		// O(due + log n) however deep the backlog runs.
		//gscope:allow hotpath sort.Search does not retain its predicate, so the closure stays on the stack
		cut := sort.Search(n, func(i int) bool {
			return live[i].Timestamp() > upTo
		})
		if cut > 0 {
			start := len(dst)
			dst = append(dst, live[:cut]...)
			spans[s] = [2]int{start, start + cut}
			total += cut
			if cut == n {
				// Fully drained: truncate, keeping the capacity for the
				// next fill.
				sh.buf = sh.buf[:0]
				sh.head = 0
				sh.emptied()
			} else {
				sh.head += cut
				// Compact once the consumed prefix reaches 3× the live
				// tail: amortized, each tuple moves at most an extra 1/3
				// of a copy, and dead space never exceeds 3/4 of the
				// buffer.
				if sh.head >= 3*(len(sh.buf)-sh.head) {
					kept := copy(sh.buf, sh.buf[sh.head:])
					sh.buf = sh.buf[:kept]
					sh.head = 0
				}
			}
		}
		sh.mu.Unlock()
	}
	return dst, spans, total
}

// Take removes and returns, in timestamp order, every pending sample whose
// time is at or before upTo. It advances the displayed high-water mark to
// upTo, so samples for that window arriving later will be dropped. Each
// shard's due prefix is already time-ordered; when more than one shard
// holds due data they are merged with ties broken toward the lower shard,
// so per-signal arrival order survives for equal timestamps (samples of
// one signal live on one shard, and shard backlogs keep arrival order) —
// the order a stable sort of the concatenation would produce. Consumers
// that only need per-signal ordering should use DrainInto, the
// allocation-free hot path.
func (f *Feed) Take(upTo time.Duration) []tuple.Tuple {
	buf, spans, total := f.takeRuns(upTo, nil)
	if total == 0 {
		return buf
	}
	nruns := 0
	for s := range spans {
		if spans[s][1] > spans[s][0] {
			nruns++
		}
	}
	if nruns == 1 {
		return buf // a single span is already time-ordered in place
	}
	// K-way merge of the sorted spans, ties to the lowest shard index.
	merged := make([]tuple.Tuple, 0, total)
	var idx [feedShards]int
	for s := range spans {
		idx[s] = spans[s][0]
	}
	for len(merged) < total {
		best := -1
		var bt int64
		for s := range spans {
			if idx[s] >= spans[s][1] {
				continue
			}
			if t := buf[idx[s]].Time; best < 0 || t < bt {
				best, bt = s, t
			}
		}
		merged = append(merged, buf[idx[best]])
		idx[best]++
	}
	return merged
}

// DrainInto is the scope-consumer drain: like Take it removes and
// returns every due sample appending into buf, but the result is ordered
// only per signal (each signal's samples in time order, arrival order for
// ties; how different signals interleave is unspecified), skipping the
// global timestamp merge. That is exactly the guarantee a per-window
// consumer needs — the scope keeps the last sample per signal per window —
// and it makes the drain a straight copy-out.
//
//gscope:hotpath
func (f *Feed) DrainInto(upTo time.Duration, buf []tuple.Tuple) []tuple.Tuple {
	buf, _, _ = f.takeRuns(upTo, buf)
	return buf
}

// Pending returns the number of buffered samples not yet displayed,
// including probe samples already published to their staging rings.
func (f *Feed) Pending() int {
	n := 0
	for s := range f.shards {
		sh := &f.shards[s]
		sh.mu.Lock()
		n += len(sh.buf) - sh.head
		for _, p := range sh.probes {
			n += int(p.tail.Load() - p.head.Load())
		}
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the lifetime counters: samples pushed and samples dropped
// for arriving late. Probe samples enter the pushed count when a drain (or
// a ring overflow) absorbs them from their staging ring; samples a probe
// rejected at record time for being late count as both pushed and dropped,
// matching Push's accounting.
func (f *Feed) Stats() (pushed, dropped int64) {
	for s := range f.shards {
		sh := &f.shards[s]
		sh.mu.Lock()
		pushed += sh.pushed
		dropped += sh.dropped
		for _, p := range sh.probes {
			late := p.late.Load()
			pushed += late
			dropped += late
		}
		sh.mu.Unlock()
	}
	return pushed, dropped
}

// Reset clears the feed and its high-water mark. Probes stay registered;
// their published staging is discarded and their counters cleared. Reset
// is not synchronized with goroutines still recording — samples staged but
// not yet published survive into the fresh feed.
func (f *Feed) Reset() {
	for s := range f.shards {
		sh := &f.shards[s]
		sh.mu.Lock()
		sh.buf = nil
		sh.head = 0
		sh.displayed = 0
		sh.started = false
		sh.pushed = 0
		sh.dropped = 0
		sh.limNs.Store(0)
		for _, p := range sh.probes {
			p.head.Store(p.tail.Load())
			p.late.Store(0)
		}
		sh.emptied()
		sh.mu.Unlock()
	}
}
