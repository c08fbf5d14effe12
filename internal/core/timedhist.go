package core

import "sort"

// TimedHistory is the time-windowed face of the History pyramid: the
// windowing hook the netscope hub's v2 backfill is built on. History
// answers slot-range queries; remote viewers ask in stream time ("the last
// ten seconds, decimated to 512 columns"). TimedHistory couples a History
// with a coarse time index — the end timestamp of every completed level-0
// bucket, kept in a ring aligned with level 0's residency — so a time
// window maps onto a slot range with one binary search, and the window is
// then summarized column by column through History.Query: O(cols) whatever
// the sample count, the same property Trace.View gives the renderer.
//
// The time index adds one 8-byte stamp per 16 samples at the cap, 6% of
// one float64 per retained sample, and grows with level 0's ring, so a
// store costs what it holds up to its retention.
//
// Timestamps are clamped monotonic on push (a sample stamped earlier than
// its predecessor indexes at the predecessor's time), which keeps the index
// sorted under the skewed publisher clocks the hub already tolerates.
type TimedHistory struct {
	h *History

	// times[i] is the end timestamp (ms) of completed level-0 bucket
	// (firstBucket+i) — a ring aligned with the pyramid's finest level:
	// same cap, grown at the same bucket completion.
	times []int64
	head  int
	n     int

	lastMS int64 // newest (clamped) stamp pushed
	seen   bool
}

// TimedBucket is one backfill column: the min/max/last envelope of the
// samples in a time span, stamped with the span's end time.
type TimedBucket struct {
	// Time is the end of the column's span, in stream milliseconds.
	Time int64
	Bucket
}

// NewTimedHistory creates a store retaining approximately the given number
// of most recent samples (non-positive selects DefaultHistoryRetention).
func NewTimedHistory(retention int) *TimedHistory {
	h := NewHistory(retention)
	// One timestamp per resident level-0 bucket, so the ring keeps level
	// 0's length.
	return &TimedHistory{h: h, times: make([]int64, len(h.levels[0].buf))}
}

// Push records one sample. NaN values become holes, as in Trace.
//
//gscope:hotpath
func (th *TimedHistory) Push(tms int64, v float64) {
	if th.seen && tms < th.lastMS {
		tms = th.lastMS // clamp: keep the time index sorted
	}
	th.lastMS = tms
	th.seen = true
	th.h.Push(v, false)
	if th.h.Total()%histFanout == 0 {
		// A level-0 bucket just completed; stamp it with its newest time.
		if l0 := len(th.h.levels[0].buf); len(th.times) < l0 {
			// Level 0 grew at this completion, so the full time ring
			// grows with it.
			th.times = growRing(th.times, l0)
			th.head = th.n
		}
		th.times[th.head] = tms
		th.head = (th.head + 1) % len(th.times)
		if th.n < len(th.times) {
			th.n++
		}
	}
}

// Samples returns the number of samples pushed.
func (th *TimedHistory) Samples() int64 { return th.h.Total() }

// Newest returns the newest stamp pushed; ok is false when empty.
func (th *TimedHistory) Newest() (int64, bool) { return th.lastMS, th.seen }

// timeAt returns the end stamp of completed level-0 bucket abs (absolute
// index); caller guarantees it is resident.
func (th *TimedHistory) timeAt(abs int64) int64 {
	comp := th.h.Total() / histFanout
	return th.times[ringIndex(th.head, len(th.times), int(comp-1-abs))]
}

// sinceSlot maps a stream time onto the first retained slot whose level-0
// bucket ends at or after sinceMS.
func (th *TimedHistory) sinceSlot(sinceMS int64) int64 {
	comp := th.h.Total() / histFanout
	first := comp - int64(th.n)
	if first < 0 {
		first = 0
	}
	// Find the first resident completed bucket ending >= sinceMS.
	k := sort.Search(th.n, func(i int) bool {
		return th.timeAt(first+int64(i)) >= sinceMS
	})
	if k == th.n {
		// Only the accumulating tail (if anything) is recent enough.
		return comp * histFanout
	}
	return (first + int64(k)) * histFanout
}

// ViewSince summarizes the samples stamped at or after sinceMS into at most
// cols time-ordered buckets, each a conservative min/max envelope (the same
// contract as History.Query: a bucket may include neighbors up to one
// bucket span, never exclude a sample in its range). Column timestamps are
// interpolated linearly between sinceMS (clamped to what is still
// retained) and the newest stamp. Cost is O(cols).
func (th *TimedHistory) ViewSince(sinceMS int64, cols int) []TimedBucket {
	if cols <= 0 || !th.seen {
		return nil
	}
	lo := th.sinceSlot(sinceMS)
	if oldest := th.h.Oldest(); lo < oldest {
		lo = oldest
	}
	hi := th.h.Total()
	if lo >= hi {
		return nil
	}
	// The effective window start in time, for interpolation: the stamp of
	// the bucket holding lo, or sinceMS when it is mid-stream.
	startMS := sinceMS
	if first := lo / histFanout; first < th.h.Total()/histFanout && th.n > 0 {
		if t := th.timeAt(first); t > startMS {
			startMS = t
		}
	}
	if startMS > th.lastMS {
		startMS = th.lastMS
	}
	if int64(cols) > hi-lo {
		cols = int(hi - lo)
	}
	out := make([]TimedBucket, 0, cols)
	span := hi - lo
	for c := 0; c < cols; c++ {
		a := lo + span*int64(c)/int64(cols)
		b := lo + span*int64(c+1)/int64(cols)
		if b <= a {
			continue
		}
		bk := th.h.Query(a, b)
		tms := startMS + (th.lastMS-startMS)*int64(c+1)/int64(cols)
		out = append(out, TimedBucket{Time: tms, Bucket: bk})
	}
	return out
}
