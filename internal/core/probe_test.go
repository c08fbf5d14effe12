package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/glib"
	"repro/internal/tuple"
)

// newTestScope builds a virtual-clock scope for probe tests.
func newTestScope(t *testing.T) *Scope {
	t.Helper()
	vc := glib.NewVirtualClock(time.Unix(0, 0))
	loop := glib.NewLoop(vc, glib.WithGranularity(0))
	return New(loop, "test", 200, 100)
}

func TestProbeRecordTakeRoundTrip(t *testing.T) {
	f := NewFeed()
	p, err := f.Probe("cwnd")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "cwnd" || p.ID() != 0 {
		t.Fatalf("probe identity: name=%q id=%d", p.Name(), p.ID())
	}
	for i := 0; i < 10; i++ {
		if !p.RecordAt(time.Duration(i)*10*time.Millisecond, float64(i)) {
			t.Fatalf("RecordAt(%d) rejected", i)
		}
	}
	p.Flush()
	got := f.Take(time.Second)
	if len(got) != 10 {
		t.Fatalf("Take returned %d tuples, want 10", len(got))
	}
	for i, tu := range got {
		want := tuple.Tuple{Time: int64(i * 10), Value: float64(i), Name: "cwnd"}
		if tu != want {
			t.Fatalf("tuple %d = %+v, want %+v", i, tu, want)
		}
	}
}

// Records spanning more than the publication interval become visible to
// drains without an explicit Flush.
func TestProbeAutoPublishBySpan(t *testing.T) {
	f := NewFeed()
	p, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	p.RecordAt(1*time.Millisecond, 1)
	p.RecordAt(3*time.Millisecond, 2) // spans past 1ms → publishes both
	if got := f.Take(10 * time.Millisecond); len(got) != 2 {
		t.Fatalf("drain saw %d samples, want 2 (span publication)", len(got))
	}
}

// A full ring self-flushes into the shard under its lock, so an arbitrary
// number of records between drains loses nothing.
func TestProbeRingOverflowFlushes(t *testing.T) {
	f := NewFeed()
	p, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10 * probeRingSize
	for i := 0; i < n; i++ {
		// Sub-millisecond spacing, so only the count/overflow rules can
		// publish.
		if !p.RecordAt(time.Duration(i)*time.Microsecond, float64(i)) {
			t.Fatalf("record %d rejected", i)
		}
	}
	p.Flush()
	got := f.Take(time.Second)
	if len(got) != n {
		t.Fatalf("drained %d, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Value != got[i-1].Value+1 {
			t.Fatalf("order broken at %d: %v then %v", i, got[i-1], got[i])
		}
	}
}

func TestProbeLateDrop(t *testing.T) {
	f := NewFeed()
	p, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	f.Take(100 * time.Millisecond) // advance the displayed watermark
	if p.RecordAt(50*time.Millisecond, 1) {
		t.Fatal("late sample accepted at record time")
	}
	if p.Late() != 1 {
		t.Fatalf("Late = %d", p.Late())
	}
	// Exactly-at-watermark is late (`at <= displayed`), one past is not.
	if p.RecordAt(100*time.Millisecond, 2) {
		t.Fatal("watermark-equal sample accepted")
	}
	if !p.RecordAt(100*time.Millisecond+time.Nanosecond, 3) {
		t.Fatal("on-time sample rejected")
	}
	// Record-time rejections count immediately; the accepted sample joins
	// the pushed count when a drain absorbs it from the ring.
	p.Flush()
	f.Take(time.Second)
	pushed, dropped := f.Stats()
	if pushed != 3 || dropped != 2 {
		t.Fatalf("stats = %d pushed, %d dropped; want 3, 2", pushed, dropped)
	}
}

// Samples staged before a drain advanced the watermark are late-dropped
// when the ring is stolen, preserving the late-data rule end to end.
func TestProbeStealAppliesLateRule(t *testing.T) {
	f := NewFeed()
	p, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	p.RecordAt(5*time.Millisecond, 1)
	p.Flush()
	// Stage a second sample that stays unpublished (sub-ms span, below the
	// publication count), then advance the watermark past it with a drain:
	// the record-time check could not see the new watermark, so the steal
	// must apply the late rule instead.
	p.RecordAt(5*time.Millisecond+500*time.Microsecond, 2)
	f.Take(50 * time.Millisecond) // steals {5ms}, watermark → 50ms
	p.Flush()                     // publishes the staged 5.5ms sample
	got := f.Take(100 * time.Millisecond)
	if len(got) != 0 {
		t.Fatalf("stale staged sample delivered: %+v", got)
	}
	_, dropped := f.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (steal-time late drop)", dropped)
	}
}

func TestProbeIdempotentAndValidation(t *testing.T) {
	f := NewFeed()
	p1, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("Probe not idempotent per name")
	}
	if _, err := f.Probe("bad\nname"); err == nil {
		t.Fatal("invalid name accepted")
	}
	if _, err := f.Probe(" padded"); err == nil {
		t.Fatal("padded name accepted")
	}
}

func TestPushIDMatchesPush(t *testing.T) {
	f := NewFeed()
	id, err := f.Register("cwnd")
	if err != nil {
		t.Fatal(err)
	}
	if id2, err := f.Register("cwnd"); err != nil || id2 != id {
		t.Fatalf("re-Register = %d, %v", id2, err)
	}
	ref := NewFeed()
	for i := 0; i < 100; i++ {
		at := time.Duration(i) * time.Millisecond
		if f.PushID(id, at, float64(i)) != ref.Push(at, "cwnd", float64(i)) {
			t.Fatalf("PushID/Push accept mismatch at %d", i)
		}
	}
	got := f.Take(time.Second)
	want := ref.Take(time.Second)
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tuple %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	// Late drops behave identically too.
	if f.PushID(id, 10*time.Millisecond, 1) {
		t.Fatal("late PushID accepted")
	}
	// Unknown IDs are dropped, not misrouted.
	if f.PushID(tuple.SignalID(99), time.Second, 1) {
		t.Fatal("unknown id accepted")
	}
	if f.PushID(tuple.NoSignal, time.Second, 1) {
		t.Fatal("NoSignal accepted")
	}
}

func TestPushIDBatch(t *testing.T) {
	f := NewFeed()
	id, err := f.Register("s")
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]tuple.Sample, 64)
	for i := range samples {
		samples[i] = tuple.Sample{At: time.Duration(i) * time.Millisecond, Value: float64(i)}
	}
	if n := f.PushIDBatch(id, samples); n != 64 {
		t.Fatalf("accepted %d, want 64", n)
	}
	f.Take(30 * time.Millisecond)
	// A second batch straddling the watermark: 0..30ms late, rest on time.
	if n := f.PushIDBatch(id, samples); n != 33 {
		t.Fatalf("accepted %d of straddling batch, want 33", n)
	}
	if n := f.PushIDBatch(id, nil); n != 0 {
		t.Fatalf("empty batch accepted %d", n)
	}
	if n := f.PushIDBatch(tuple.SignalID(7), samples); n != 0 {
		t.Fatalf("unknown id accepted %d", n)
	}
}

// An ID interned directly through the feed's Interner (without Register)
// still routes correctly on first use.
func TestPushIDLazyRegistration(t *testing.T) {
	f := NewFeed()
	id, err := f.Interner().Intern("direct")
	if err != nil {
		t.Fatal(err)
	}
	if !f.PushID(id, 5*time.Millisecond, 42) {
		t.Fatal("lazy PushID rejected")
	}
	got := f.Take(time.Second)
	if len(got) != 1 || got[0].Name != "direct" || got[0].Value != 42 {
		t.Fatalf("got %+v", got)
	}
}

// Mixing the string API and a probe on one signal keeps the drain's time
// order (arrival order for ties is unspecified across the two paths).
func TestProbeAndPushInterleave(t *testing.T) {
	f := NewFeed()
	p, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	p.RecordAt(10*time.Millisecond, 1)
	f.Push(20*time.Millisecond, "s", 2) // lands in shard buf before the steal
	p.RecordAt(30*time.Millisecond, 3)
	p.Flush()
	got := f.Take(time.Second)
	if len(got) != 3 {
		t.Fatalf("got %d tuples", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time < got[i-1].Time {
			t.Fatalf("time order broken: %+v", got)
		}
	}
}

func TestProbePendingAndReset(t *testing.T) {
	f := NewFeed()
	p, err := f.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	p.RecordAt(time.Millisecond, 1)
	p.Flush()
	if n := f.Pending(); n != 1 {
		t.Fatalf("Pending = %d, want 1", n)
	}
	f.Reset()
	if n := f.Pending(); n != 0 {
		t.Fatalf("Pending after Reset = %d", n)
	}
	if got := f.Take(time.Second); len(got) != 0 {
		t.Fatalf("Take after Reset returned %+v", got)
	}
	// The probe survives Reset and keeps working. (The Take above advanced
	// the watermark to 1s even on the empty feed, so record past it.)
	p.RecordAt(2*time.Second, 2)
	p.Flush()
	if got := f.Take(3 * time.Second); len(got) != 1 {
		t.Fatalf("probe dead after Reset: %+v", got)
	}
}

// Concurrent probes (one goroutine each) drain cleanly under -race, with a
// concurrent drainer.
func TestProbesConcurrent(t *testing.T) {
	f := NewFeed()
	const producers = 4
	const per = 5000
	var wg sync.WaitGroup
	for g := 0; g < producers; g++ {
		p, err := f.Probe(fmt.Sprintf("sig%d", g))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.RecordAt(time.Duration(i)*time.Millisecond, float64(i))
			}
			p.Flush()
		}()
	}
	// A concurrent drainer advances the watermark while producers record;
	// samples recorded behind it are legitimately late-dropped, so the
	// invariant is conservation: drained + dropped == recorded.
	stop := make(chan struct{})
	done := make(chan struct{})
	drained := 0
	go func() {
		defer close(done)
		var buf []tuple.Tuple
		cursor := time.Duration(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cursor += time.Millisecond
			buf = f.DrainInto(cursor, buf[:0])
			drained += len(buf)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	final := f.Take(time.Duration(per) * time.Millisecond)
	drained += len(final)
	pushed, dropped := f.Stats()
	if pushed != producers*per {
		t.Fatalf("pushed = %d, want %d", pushed, producers*per)
	}
	if int64(drained)+dropped != pushed {
		t.Fatalf("conservation broken: drained %d + dropped %d != pushed %d",
			drained, dropped, pushed)
	}
}

func TestScopeProbe(t *testing.T) {
	f := newTestScope(t)
	if _, err := f.AddSignal(Sig{Name: "buf", Kind: KindBuffer}); err != nil {
		t.Fatal(err)
	}
	p, err := f.Probe("buf")
	if err != nil {
		t.Fatal(err)
	}
	// Signal.Probe returns the same handle.
	p2, err := f.Signal("buf").Probe()
	if err != nil || p2 != p {
		t.Fatalf("Signal.Probe = %v, %v", p2, err)
	}
	// Probing a non-BUFFER signal is an error.
	var v IntVar
	if _, err := f.AddSignal(Sig{Name: "polled", Source: &v}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Probe("polled"); err == nil {
		t.Fatal("probe on a polled signal accepted")
	}
	// A probe may precede its display signal.
	if _, err := f.Probe("early"); err != nil {
		t.Fatal(err)
	}
}

// Re-registering a probe must not mutate the live handle: Scope.Probe
// binds the Record clock only at creation, so a concurrent re-lookup
// cannot race with a producer mid-Record (caught by -race pre-fix).
func TestScopeProbeRelookupDoesNotRaceRecord(t *testing.T) {
	sc := newTestScope(t)
	p, err := sc.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			p.Record(float64(i))
		}
		p.Flush()
	}()
	for i := 0; i < 1000; i++ {
		p2, err := sc.Probe("s")
		if err != nil {
			t.Error(err)
			break
		}
		if p2 != p {
			t.Error("re-lookup returned a different handle")
			break
		}
	}
	<-done
}

// AddSignal now rejects names the wire format cannot carry.
func TestAddSignalRejectsInvalidName(t *testing.T) {
	sc := newTestScope(t)
	var v IntVar
	if _, err := sc.AddSignal(Sig{Name: "a\nb", Source: &v}); err == nil {
		t.Fatal("newline name accepted")
	}
	if _, err := sc.AddSignal(Sig{Name: " pad", Source: &v}); err == nil {
		t.Fatal("padded name accepted")
	}
	if _, err := sc.AddSignal(Sig{Name: "name with spaces", Source: &v}); err != nil {
		t.Fatalf("interior spaces rejected: %v", err)
	}
}
