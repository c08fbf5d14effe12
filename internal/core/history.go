package core

import "math"

// Tiered trace history: the Trace ring is the hot sweep window (what the
// paper's scope displays), and a History is the cold store behind it — a
// decimated min/max/last pyramid that retains millions of samples in a few
// megabytes and answers range summaries in O(1) per column. The renderer
// consumes it through Trace.View, so rendering a window of W samples into C
// columns costs O(C), not O(W).
//
// Structure: level k holds buckets each summarizing histFanout^(k+1)
// consecutive slots (samples or holes), stored in a ring capped at what the
// configured retention needs. A pushed slot folds into level 0's
// accumulating bucket; every completed bucket cascades into the accumulator
// one level up. A ring starts at histInitRing buckets and doubles when full
// until it reaches its cap, so memory follows the slots held and the
// retention is a ceiling, not an up-front cost. At the cap a level-0
// bucket (32 bytes) per 16 slots is 25% of one float64 per retained slot;
// the coarser levels add under 2%.

// histFanout is the decimation ratio between pyramid levels. A query maps
// each output column to at most 2×fanout buckets of the best level, which
// keeps View O(columns) with a small constant.
const histFanout = 16

// histInitRing is the bucket count a level's ring starts with before it
// doubles toward its cap.
const histInitRing = 16

// Bucket summarizes a span of consecutive trace slots.
type Bucket struct {
	// Min and Max bound every non-hole sample in the span; meaningless
	// when Count is zero.
	Min, Max float64
	// Last is the newest non-hole sample in the span.
	Last float64
	// Count is the number of non-hole samples summarized.
	Count int64
}

// add folds one slot into the bucket. Holes (and NaN values, which the
// trace stores as holes) leave the envelope untouched.
//
//gscope:hotpath
func (b *Bucket) add(v float64, hole bool) {
	if hole || math.IsNaN(v) {
		return
	}
	if b.Count == 0 || v < b.Min {
		b.Min = v
	}
	if b.Count == 0 || v > b.Max {
		b.Max = v
	}
	b.Last = v
	b.Count++
}

// merge folds another bucket (covering newer slots) into b.
//
//gscope:hotpath
func (b *Bucket) merge(o Bucket) {
	if o.Count == 0 {
		return
	}
	if b.Count == 0 || o.Min < b.Min {
		b.Min = o.Min
	}
	if b.Count == 0 || o.Max > b.Max {
		b.Max = o.Max
	}
	b.Last = o.Last
	b.Count += o.Count
}

// histLevel is one ring of completed buckets plus the bucket currently
// accumulating.
type histLevel struct {
	span int64 // slots per bucket: histFanout^(level+1)
	buf  []Bucket
	cap  int // ring capacity the retention needs; buf grows up to it
	head int // slot that will be written next
	n    int // valid buckets, up to len(buf)
	acc  Bucket
	fill int64 // slots folded into acc so far
}

// completed returns the absolute index of the next bucket this level will
// complete, given the total slot count; buckets [completed-n, completed)
// are resident in the ring.
func (l *histLevel) completed(total int64) int64 { return total / l.span }

// push appends a completed bucket to the ring.
//
//gscope:hotpath
func (l *histLevel) push(b Bucket) {
	if l.n == len(l.buf) && len(l.buf) < l.cap {
		l.buf = growRing(l.buf, l.cap)
		l.head = l.n
	}
	l.buf[l.head] = b
	l.head = (l.head + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
}

// growRing returns a full ring's entries in an array twice as long, capped
// at limit; the caller's next write goes to index len(buf). A ring below
// its cap has never wrapped: it fills from index 0, so when full its head
// is back at 0 and its entries already run oldest-first. Doubling keeps
// the copy O(1) amortized per entry, and nothing rotates out before the
// ring reaches its cap.
//
//gscope:hotpath
func growRing[T any](buf []T, limit int) []T {
	out := make([]T, min(2*len(buf), limit)) //gscope:allow hotpath ring doubling is O(1) amortized and stops at the retention's cap
	copy(out, buf)
	return out
}

// ringIndex returns the slot of the entry back positions behind head in a
// ring of the given length (back 0 = the most recently written entry).
// Shared by the bucket rings here and TimedHistory's parallel time ring,
// which advances in lockstep with level 0.
func ringIndex(head, length, back int) int {
	i := head - 1 - back
	return ((i % length) + length) % length
}

// at returns the resident bucket with absolute index abs, given total slots
// pushed; ok is false when it has rotated out (or is not complete yet).
func (l *histLevel) at(abs, total int64) (Bucket, bool) {
	comp := l.completed(total)
	if abs >= comp || abs < comp-int64(l.n) {
		return Bucket{}, false
	}
	return l.buf[ringIndex(l.head, len(l.buf), int(comp-1-abs))], true
}

// History is the decimated store. It is not safe for concurrent use; like
// the Trace that feeds it, it belongs to the scope's loop goroutine.
type History struct {
	retention int64
	levels    []histLevel
	total     int64 // slots pushed (samples + holes)
}

// DefaultHistoryRetention is the retention used when a non-positive value
// is requested: one million slots, the scale the tiered store is built for.
const DefaultHistoryRetention = 1 << 20

// NewHistory creates a store retaining approximately the given number of
// most recent slots (minimum one fanout's worth).
func NewHistory(retention int) *History {
	r := int64(retention)
	if r <= 0 {
		r = DefaultHistoryRetention
	}
	if r < histFanout {
		r = histFanout
	}
	h := &History{retention: r}
	for span := int64(histFanout); span < r; span *= histFanout {
		h.levels = append(h.levels, newHistLevel(span, ringCap(r, span)))
	}
	if len(h.levels) == 0 {
		h.levels = append(h.levels, newHistLevel(histFanout, 2))
	}
	return h
}

// ringCap is the bucket count a level of the given span needs to cover r
// slots (at least two).
func ringCap(r, span int64) int { return int(max((r+span-1)/span, 2)) }

// initRing is the starting length of a ring capped at limit entries.
func initRing(limit int) int { return min(histInitRing, limit) }

func newHistLevel(span int64, limit int) histLevel {
	return histLevel{span: span, buf: make([]Bucket, initRing(limit)), cap: limit}
}

// Retention returns the configured retention in slots.
func (h *History) Retention() int64 { return h.retention }

// Total returns the number of slots ever pushed.
//
//gscope:hotpath
func (h *History) Total() int64 { return h.total }

// Push folds one slot (sample or hole) into the pyramid.
//
//gscope:hotpath
func (h *History) Push(v float64, hole bool) {
	h.total++
	l := &h.levels[0]
	l.acc.add(v, hole)
	l.fill++
	for k := 0; k < len(h.levels); k++ {
		l = &h.levels[k]
		if l.fill < l.span {
			break
		}
		done := l.acc
		l.acc = Bucket{}
		l.fill = 0
		l.push(done)
		if k+1 < len(h.levels) {
			up := &h.levels[k+1]
			up.acc.merge(done)
			up.fill += l.span
		}
	}
}

// Clear resets the store to empty without reallocating; rings keep the
// length they have grown to.
func (h *History) Clear() {
	h.total = 0
	for k := range h.levels {
		l := &h.levels[k]
		l.head, l.n = 0, 0
		l.acc = Bucket{}
		l.fill = 0
	}
}

// Oldest returns the absolute index of the oldest slot the store can still
// summarize. It is the coarsest level's residency: every level's ring
// covers at least the configured retention, span rounding only adds slots
// as spans grow, so the coarsest ring reaches furthest back — and Query
// falls back to it for ranges that have rotated out of finer levels, making
// Oldest exactly the floor of what Query can answer.
func (h *History) Oldest() int64 {
	return h.oldestResident(len(h.levels) - 1)
}

// oldestResident returns the absolute index of the oldest slot level k's
// completed buckets still cover.
func (h *History) oldestResident(k int) int64 {
	l := &h.levels[k]
	oldest := (l.completed(h.total) - int64(l.n)) * l.span
	if oldest < 0 {
		oldest = 0
	}
	return oldest
}

// levelFor picks the coarsest level whose bucket span does not exceed the
// query granularity, so each column touches at most ~2×fanout buckets —
// then climbs to coarser levels while the range's start has rotated out of
// the choice's ring. Fine levels retain slightly fewer slots than coarse
// ones (ring-capacity rounding plus accumulator lag), so without the climb
// an old narrow window could land on a level whose buckets are gone and
// come back empty while a coarser level still covers it, breaking the
// always-contains-every-sample envelope.
func (h *History) levelFor(lo, perCol int64) *histLevel {
	best := 0
	for k := range h.levels {
		if h.levels[k].span <= perCol {
			best = k
		}
	}
	for best+1 < len(h.levels) && lo < h.oldestResident(best) {
		best++
	}
	return &h.levels[best]
}

// Query summarizes the absolute slot range [lo, hi) using buckets of the
// coarsest adequate level. The result is a conservative envelope: it may
// include neighboring slots up to one bucket span on each side, so it
// always contains every sample in [lo, hi). Slots that have rotated out of
// retention contribute nothing.
func (h *History) Query(lo, hi int64) Bucket {
	var out Bucket
	if hi <= lo || h.total == 0 {
		return out
	}
	if hi > h.total {
		hi = h.total
	}
	if lo < 0 {
		lo = 0
	}
	l := h.levelFor(lo, hi-lo)
	b0 := lo / l.span
	b1 := (hi + l.span - 1) / l.span
	comp := l.completed(h.total)
	for b := b0; b < b1 && b < comp; b++ {
		if bk, ok := l.at(b, h.total); ok {
			out.merge(bk)
		}
	}
	if b1 > comp {
		// The range extends past this level's completed buckets into the
		// accumulating tail. The accumulators of level l and below cover
		// the tail exactly and contiguously — acc_k spans
		// [comp_k·span_k, comp_{k-1}·span_{k-1}), down to acc_0 which
		// ends at the newest slot — so merging them from coarse to fine
		// visits the tail in slot order.
		lo := comp * l.span
		for k := len(h.levels) - 1; k >= 0; k-- {
			a := &h.levels[k]
			if a.span > l.span || a.fill == 0 {
				continue
			}
			start := a.completed(h.total) * a.span
			if start+a.fill > lo && start < hi {
				out.merge(a.acc)
			}
		}
	}
	return out
}
