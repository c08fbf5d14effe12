package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// eagerHistory returns a History whose rings are allocated at their caps
// up front, so they never grow: the reference the growing rings must
// answer identically to.
func eagerHistory(retention int) *History {
	h := NewHistory(retention)
	for k := range h.levels {
		l := &h.levels[k]
		l.buf = make([]Bucket, l.cap)
	}
	return h
}

func eagerTimedHistory(retention int) *TimedHistory {
	th := NewTimedHistory(retention)
	for k := range th.h.levels {
		l := &th.h.levels[k]
		l.buf = make([]Bucket, l.cap)
	}
	th.times = make([]int64, th.timesCap())
	return th
}

// eagerOldest models the residency of rings sized to the retention from
// the first push: the coarsest level keeps its newest cap buckets.
func eagerOldest(retention int, total int64) int64 {
	r := int64(retention)
	if r <= 0 {
		r = DefaultHistoryRetention
	}
	r = max(r, histFanout)
	span := int64(histFanout)
	for span*histFanout < r {
		span *= histFanout
	}
	ring := max((r+span-1)/span, 2)
	done := total / span
	return max(0, (done-min(done, ring))*span)
}

// growthCheckpoints returns the slot counts around every ring-doubling
// boundary of every level, plus regular points out to three retentions.
func growthCheckpoints(h *History) []int64 {
	end := 3 * h.Retention()
	seen := map[int64]bool{}
	for _, l := range h.levels {
		for length := int64(len(l.buf)); ; length = min(2*length, int64(l.cap)) {
			for _, at := range []int64{l.span * length, l.span * (length + 1)} {
				for d := int64(-1); d <= 1; d++ {
					if n := at + d; n > 0 && n <= end {
						seen[n] = true
					}
				}
			}
			if length == int64(l.cap) {
				break
			}
		}
	}
	for n := int64(1); n <= end; n += max(1, h.Retention()/4) {
		seen[n] = true
	}
	seen[end] = true
	out := make([]int64, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestHistoryGrowthMatchesEager pushes samples, holes and NaN across every
// ring-doubling boundary and past the retention. At each boundary the
// growing store must answer every query exactly as a store with full-size
// rings does, hold every raw sample in its envelope, keep the eager
// residency, and hold no ring longer than twice what it stores.
func TestHistoryGrowthMatchesEager(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, retention := range []int{16, 100, 300, 4096, 5000, 1 << 14} {
		h := NewHistory(retention)
		ref := eagerHistory(retention)
		var raw []float64 // NaN marks holes
		for _, n := range growthCheckpoints(h) {
			for int64(len(raw)) < n {
				v := r.NormFloat64() * 100
				switch r.Intn(10) {
				case 0:
					h.Push(v, true)
					ref.Push(v, true)
					v = math.NaN()
				case 1:
					v = math.NaN()
					h.Push(v, false)
					ref.Push(v, false)
				default:
					h.Push(v, false)
					ref.Push(v, false)
				}
				raw = append(raw, v)
			}
			oldest := h.Oldest()
			if want := eagerOldest(retention, n); oldest != want || ref.Oldest() != want {
				t.Fatalf("retention %d total %d: Oldest %d, eager %d, model %d",
					retention, n, oldest, ref.Oldest(), want)
			}
			for k, l := range h.levels {
				if len(l.buf) > max(initRing(l.cap), 2*l.n) {
					t.Fatalf("retention %d total %d: level %d ring %d holds %d buckets",
						retention, n, k, len(l.buf), l.n)
				}
			}
			for q := 0; q < 40; q++ {
				lo := r.Int63n(n)
				hi := min(n, lo+1+int64(math.Exp(r.Float64()*math.Log(float64(n)))))
				got := h.Query(lo, hi)
				if want := ref.Query(lo, hi); !sameBucket(got, want) {
					t.Fatalf("retention %d total %d: Query(%d,%d) = %+v, eager %+v",
						retention, n, lo, hi, got, want)
				}
				var count int64
				for i := max(lo, oldest); i < hi; i++ {
					v := raw[i]
					if math.IsNaN(v) {
						continue
					}
					count++
					if v < got.Min || v > got.Max {
						t.Fatalf("retention %d total %d: Query(%d,%d) = [%v,%v] misses sample %v at %d",
							retention, n, lo, hi, got.Min, got.Max, v, i)
					}
				}
				if got.Count < count {
					t.Fatalf("retention %d total %d: Query(%d,%d) counts %d of %d samples",
						retention, n, lo, hi, got.Count, count)
				}
			}
		}
	}
}

// sameBucket compares two summaries, treating empty buckets as equal.
func sameBucket(a, b Bucket) bool {
	if a.Count == 0 || b.Count == 0 {
		return a.Count == b.Count
	}
	return a == b
}

// TestTimedHistoryGrowthMatchesEager is the time-indexed counterpart: the
// time ring grows with the buckets it stamps, so ViewSince answers exactly
// as full-size rings do, and every sample still in History.Oldest's reach
// and stamped at or after since lies inside some column's envelope — also
// at retentions that are not powers of 16, where the coarsest level
// reaches further back than level 0.
func TestTimedHistoryGrowthMatchesEager(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, retention := range []int{16, 100, 300, 4096, 5000} {
		th := NewTimedHistory(retention)
		ref := eagerTimedHistory(retention)
		var raw []float64
		var stamps []int64
		var tms int64
		for _, n := range growthCheckpoints(th.h) {
			for int64(len(raw)) < n {
				v := r.NormFloat64() * 100
				if r.Intn(8) == 0 {
					v = math.NaN()
				}
				push := tms
				if r.Intn(20) == 0 {
					push -= 5 // behind its predecessor: indexed at its time
				}
				th.Push(push, v)
				ref.Push(push, v)
				raw = append(raw, v)
				if len(stamps) > 0 {
					push = max(push, stamps[len(stamps)-1])
				}
				stamps = append(stamps, push)
				tms += int64(r.Intn(3))
			}
			if len(th.times) > max(initRing(th.timesCap()), 2*th.n) || th.n != int(min(n/histFanout, int64(th.timesCap()))) {
				t.Fatalf("retention %d total %d: time ring holds %d of %d stamps in %d slots",
					retention, n, th.n, n/histFanout, len(th.times))
			}
			oldest := th.h.Oldest()
			for q := 0; q < 12; q++ {
				since := r.Int63n(tms + 2)
				cols := 1 + r.Intn(64)
				got := th.ViewSince(since, cols)
				want := ref.ViewSince(since, cols)
				if len(got) != len(want) {
					t.Fatalf("retention %d total %d: ViewSince(%d,%d) %d cols, eager %d",
						retention, n, since, cols, len(got), len(want))
				}
				for i := range got {
					if got[i].Time != want[i].Time || !sameBucket(got[i].Bucket, want[i].Bucket) {
						t.Fatalf("retention %d total %d: ViewSince(%d,%d)[%d] = %+v, eager %+v",
							retention, n, since, cols, i, got[i], want[i])
					}
				}
				for i := oldest; i < n; i++ {
					v := raw[i]
					if stamps[i] < since || math.IsNaN(v) {
						continue
					}
					inside := false
					for _, c := range got {
						if c.Count > 0 && c.Min <= v && v <= c.Max {
							inside = true
							break
						}
					}
					if !inside {
						t.Fatalf("retention %d total %d: ViewSince(%d,%d) misses sample %v at %d",
							retention, n, since, cols, v, i)
					}
				}
			}
		}
	}
}

// TestHistoryClearKeepsGrownRings checks that Clear keeps the arrays the
// rings have grown to, so a cleared trace refills without allocating.
func TestHistoryClearKeepsGrownRings(t *testing.T) {
	h := NewHistory(1 << 14)
	for i := 0; i < 1<<14; i++ {
		h.Push(float64(i), false)
	}
	grown := len(h.levels[0].buf)
	if grown != h.levels[0].cap {
		t.Fatalf("level 0 ring %d after a full retention, want cap %d", grown, h.levels[0].cap)
	}
	h.Clear()
	if len(h.levels[0].buf) != grown {
		t.Fatalf("Clear shrank level 0 ring to %d", len(h.levels[0].buf))
	}
	// AllocsPerRun calls the refill twice: the second pass rotates the
	// first out, as a full store does.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1<<14; i++ {
			h.Push(float64(i), false)
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a cleared store allocated %v times", allocs)
	}
	if got := h.Query(1<<14, 1<<15); got.Min != 0 || got.Max != 1<<14-1 {
		t.Fatalf("refilled Query = %+v", got)
	}
}

// TestTimedHistoryPowerOf16Footprint: where the retention is a power of
// 16 the coarsest level reaches no further than level 0, so the time ring
// stays level 0's length at every size and the store keeps its footprint.
func TestTimedHistoryPowerOf16Footprint(t *testing.T) {
	if size := unsafe.Sizeof(TimedHistory{}); size > 64 {
		t.Fatalf("TimedHistory is %d bytes, want at most 64", size)
	}
	for _, retention := range []int{4096, 1 << 16} {
		th := NewTimedHistory(retention)
		var total int64
		for _, n := range growthCheckpoints(th.h) {
			for ; total < n; total++ {
				th.Push(total, float64(total))
			}
			if len(th.times) != len(th.h.levels[0].buf) {
				t.Fatalf("retention %d total %d: time ring %d, level 0 ring %d",
					retention, n, len(th.times), len(th.h.levels[0].buf))
			}
		}
	}
}

// TestTimedHistoryViewSinceReachesOldest checks, after every push, that a
// window opening anywhere between History.Oldest and the newest sample
// starts no later than its first sample: stamps and values are the slot
// index, so neither the window's first slot nor its first column's Min
// may exceed the first slot at or after since that is still retained.
// The windows probed bracket the oldest slot the time ring stamps, where
// the coarsest level reaches beyond level 0 (retentions that are not
// powers of 16) or completes its buckets later (every retention).
func TestTimedHistoryViewSinceReachesOldest(t *testing.T) {
	for _, retention := range []int{100, 300, 4096, 5000} {
		th := NewTimedHistory(retention)
		for n := int64(1); n <= 3*int64(retention)+2*histFanout*histFanout; n++ {
			th.Push(n-1, float64(n-1))
			oldest, stamped := th.h.Oldest(), (th.h.Total()/histFanout-int64(th.n))*histFanout
			for _, since := range []int64{0, oldest, oldest + 1, (oldest + stamped) / 2, stamped - 1, stamped, n - 1} {
				if since < 0 || since >= n {
					continue
				}
				want := max(since, oldest)
				if lo := max(th.sinceSlot(since), oldest); lo > want {
					t.Fatalf("retention %d total %d: window since %d opens at slot %d, want ≤ %d (Oldest %d, ring from %d)",
						retention, n, since, lo, want, oldest, stamped)
				}
				cols := th.ViewSince(since, 8)
				if len(cols) == 0 || cols[0].Min > float64(want) {
					t.Fatalf("retention %d total %d: ViewSince(%d) starts at %v, want ≤ %d (Oldest %d, ring from %d)",
						retention, n, since, cols, want, oldest, stamped)
				}
			}
		}
	}
}
