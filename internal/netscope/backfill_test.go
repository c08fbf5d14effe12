package netscope

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/glib"
	"repro/internal/tuple"
)

// backfillHub returns a hub with the tiered backfill store on at the
// default retention.
func backfillHub() *Server {
	loop := glib.NewLoop(glib.NewVirtualClock(time.Unix(7000, 0)), glib.WithGranularity(0))
	srv := NewServer(loop)
	srv.SetBackfillRetention(0)
	return srv
}

// heapInUse returns the live heap after a full collection.
func heapInUse() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestBackfillStoreFollowsSamplesHeld checks that a signal's backfill
// store costs what it holds, not its retention: a hub that has seen one
// sample from each of 1,000 signals holds them in a few megabytes, where
// stores sized to the default retention up front took about 170 MB.
func TestBackfillStoreFollowsSamplesHeld(t *testing.T) {
	srv := backfillHub()
	// Broadcast, and with it the backfill store, runs once the
	// subscriber side is up.
	if _, err := srv.ListenSubscribers("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The first delivery sizes the hub's one-time buffers (snapshot
	// history, interner); measure from after it.
	srv.InjectBatch([]tuple.Tuple{{Time: 1, Value: 1, Name: "warm"}})
	batch := make([]tuple.Tuple, 1000)
	for i := range batch {
		batch[i] = tuple.Tuple{Time: 2, Value: float64(i), Name: fmt.Sprintf("sig.%04d", i)}
	}
	before := heapInUse()
	srv.InjectBatch(batch)
	after := heapInUse()
	runtime.KeepAlive(srv)
	if got := len(srv.hub.backfill); got != len(batch)+1 {
		t.Fatalf("backfill store tracks %d signals, want %d", got, len(batch)+1)
	}
	const limit = 8 << 20
	grew := int64(after) - int64(before)
	t.Logf("1,000 one-sample signals grew the heap by %.2f MB", float64(grew)/(1<<20))
	if grew > limit {
		t.Fatalf("want under %d MB", limit>>20)
	}
}

// BenchmarkBackfillRetain measures the per-tuple cost of folding a
// delivered batch into the backfill store once every signal's rings have
// reached their cap: the steady state of a long-running hub. The batch is
// shaped like a probe flush, 32 signals each in one run of 32 samples, so
// the per-run store lookup is amortized as it is in service. ns/op and
// allocs/op are per tuple; the steady state must not allocate.
func BenchmarkBackfillRetain(b *testing.B) {
	const signals, run = 32, 32
	srv := backfillHub()
	batch := make([]tuple.Tuple, 0, signals*run)
	for s := 0; s < signals; s++ {
		name := fmt.Sprintf("bench.s%02d", s)
		for i := 0; i < run; i++ {
			batch = append(batch, tuple.Tuple{Value: float64(i), Name: name})
		}
	}
	stamp := func(ms int64) {
		for i := range batch {
			batch[i].Time = ms
		}
	}
	// Fill every store past its retention so no ring grows while timed.
	var ms int64
	for filled := 0; filled <= DefaultBackfillRetention; filled += run {
		ms++
		stamp(ms)
		srv.backfillRetain(batch)
	}
	for _, th := range srv.hub.backfill {
		if th.Samples() <= DefaultBackfillRetention {
			b.Fatalf("store holds %d samples, want past the retention", th.Samples())
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(batch) {
		ms++
		stamp(ms)
		srv.backfillRetain(batch[:min(len(batch), b.N-done)])
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	// MemStats counts the whole process, so a stray runtime allocation
	// is tolerated: the bar is under one per thousand tuples, which
	// ReportAllocs (and the benchdiff gate) shows as 0 allocs/op.
	if allocs := m1.Mallocs - m0.Mallocs; allocs > uint64(b.N/1000) {
		b.Fatalf("backfillRetain allocated %d times over %d tuples", allocs, b.N)
	}
}
