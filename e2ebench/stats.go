package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors now, the benchmark's monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// histSub is the number of sub-buckets per power of two in a hist.
const histSub = 128

// hist is a log-linear histogram of non-negative nanosecond durations
// with 1/128 relative resolution, cheap enough to record every publish
// call. It is owned by one goroutine at a time.
type hist struct {
	counts [histSub * 58]uint64
	n      uint64
}

func histIndex(v int64) int {
	if v < 2*histSub {
		return int(max(v, 0))
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e lands in [128, 256)
	return histSub*e + int(uint64(v)>>e)
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	e := i/histSub - 1
	lo := uint64(i%histSub+histSub) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *hist) add(v int64) {
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (nearest rank) of the recorded values.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var c uint64
	for i, n := range h.counts {
		if c += n; c >= rank {
			return histValue(i)
		}
	}
	return histValue(len(h.counts) - 1)
}

// lockedHist is a hist shared between the hub loop and the main goroutine.
type lockedHist struct {
	mu sync.Mutex
	h  hist
}

func (l *lockedHist) add(v int64) {
	l.mu.Lock()
	l.h.add(v)
	l.mu.Unlock()
}

func (l *lockedHist) quantile(q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.h.quantile(q)
}

// quantile returns the q-quantile of sorted, interpolating linearly
// between the closest ranks.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

func sortInt64(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// cpuTime is the process's user+system CPU time in ns (getrusage).
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// Go runtime health, read through runtime/metrics, which never stops the
// world the way runtime.ReadMemStats does.
const (
	rtMemTotal    = "/memory/classes/total:bytes"
	rtMemReleased = "/memory/classes/heap/released:bytes"
	rtAllocBytes  = "/gc/heap/allocs:bytes"
	rtGCCycles    = "/gc/cycles/total:gc-cycles"
	rtSchedLat    = "/sched/latencies:seconds"
)

// rtGCPause names the GC stop-the-world pause histogram: its current name
// where the runtime has it, the older one otherwise.
var rtGCPause = func() string {
	for _, d := range metrics.All() {
		if d.Name == "/sched/pauses/total/gc:seconds" {
			return d.Name
		}
	}
	return "/gc/pauses:seconds"
}()

// rtSnap is one read of the cumulative runtime counters.
type rtSnap struct {
	alloc, cycles uint64
	pauses, sched *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rtAllocBytes}, {Name: rtGCCycles}, {Name: rtGCPause}, {Name: rtSchedLat}}
	metrics.Read(s)
	return rtSnap{
		alloc:  s[0].Value.Uint64(),
		cycles: s[1].Value.Uint64(),
		pauses: s[2].Value.Float64Histogram(),
		sched:  s[3].Value.Float64Histogram(),
	}
}

// histDelta returns the q-quantile, in seconds, of the observations a
// runtime histogram recorded between reads a and b (bucket midpoints; the
// finite edge for the open-ended buckets).
func histDelta(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(total))), 1)
	var c uint64
	for i := range b.Counts {
		if c += b.Counts[i] - a.Counts[i]; c >= rank {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
				return hi
			case math.IsInf(hi, 1):
				return lo
			}
			return (lo + hi) / 2
		}
	}
	return 0
}
