package core

import "sort"

// TimedHistory is the time-windowed face of the History pyramid: the
// windowing hook the netscope hub's v2 backfill is built on. History
// answers slot-range queries; remote viewers ask in stream time ("the last
// ten seconds, decimated to 512 columns"). TimedHistory couples a History
// with a coarse time index — the end timestamp of every completed level-0
// bucket, kept in a ring that reaches back as far as the coarsest level
// (History.Oldest) — so a time window maps onto a slot range with one
// binary search, and the window is then summarized column by column
// through History.Query: O(cols) whatever the sample count, the same
// property Trace.View gives the renderer.
//
// The time index adds one 8-byte stamp per 16 samples at the cap, 6% of
// one float64 per retained sample at retentions that are powers of 16,
// and grows with the samples it stamps, so a store costs what it holds up
// to its retention.
//
// Timestamps are clamped monotonic on push (a sample stamped earlier than
// its predecessor indexes at the predecessor's time), which keeps the index
// sorted under the skewed publisher clocks the hub already tolerates.
type TimedHistory struct {
	h *History

	// times[i] is the end timestamp (ms) of completed level-0 bucket
	// (firstStamped+i): a ring that doubles when full up to timesCap.
	times []int64
	head  int
	n     int

	lastMS int64 // newest (clamped) stamp pushed
	// evicted is the end stamp of the newest bucket rotated out of
	// times. The coarsest level completes its buckets later than level
	// 0 does, so Oldest can sit up to one coarse span before the ring;
	// evicted tells whether samples there may be recent enough for a
	// window.
	evicted int64
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
	th := &TimedHistory{h: NewHistory(retention)}
	th.times = make([]int64, initRing(th.timesCap()))
	return th
}

// timesCap is the time ring's cap: the coarsest ring's reach in level-0
// buckets, which is level 0's own cap when the retention is a power of 16.
//
//gscope:hotpath
func (th *TimedHistory) timesCap() int {
	top := &th.h.levels[len(th.h.levels)-1]
	return int(int64(top.cap) * top.span / histFanout)
}

// Push records one sample. NaN values become holes, as in Trace.
//
//gscope:hotpath
func (th *TimedHistory) Push(tms int64, v float64) {
	if th.h.Total() > 0 && tms < th.lastMS {
		tms = th.lastMS // clamp: keep the time index sorted
	}
	th.lastMS = tms
	th.h.Push(v, false)
	if th.h.Total()%histFanout == 0 {
		// A level-0 bucket just completed; stamp it with its newest time.
		if th.n == len(th.times) {
			if limit := th.timesCap(); th.n < limit {
				th.times = growRing(th.times, limit)
				th.head = th.n
			} else {
				th.evicted = th.times[th.head]
			}
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
func (th *TimedHistory) Newest() (int64, bool) { return th.lastMS, th.h.Total() > 0 }

// timeAt returns the end stamp of completed level-0 bucket abs (absolute
// index); caller guarantees it is resident.
func (th *TimedHistory) timeAt(abs int64) int64 {
	comp := th.h.Total() / histFanout
	return th.times[ringIndex(th.head, len(th.times), int(comp-1-abs))]
}

// firstStamped returns the absolute index of the oldest completed
// level-0 bucket the time ring still stamps.
func (th *TimedHistory) firstStamped() int64 {
	return th.h.Total()/histFanout - int64(th.n)
}

// sinceSlot maps a stream time onto the first retained slot whose level-0
// bucket ends at or after sinceMS (past every stamped bucket: the
// accumulating tail). When buckets rotated out of the ring may end at or
// after sinceMS too, it returns slot 0, which ViewSince clamps to Oldest.
func (th *TimedHistory) sinceSlot(sinceMS int64) int64 {
	first := th.firstStamped()
	k := sort.Search(th.n, func(i int) bool {
		return th.timeAt(first+int64(i)) >= sinceMS
	})
	if k == 0 && first > 0 && th.evicted >= sinceMS {
		return 0
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
	if cols <= 0 || th.h.Total() == 0 {
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
	if first := lo / histFanout; first < th.h.Total()/histFanout && first >= th.firstStamped() {
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
