package glib

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// lockedBuffer is an io.Writer safe for the watch's writer goroutine.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// gatedWriter blocks every Write until release is closed.
type gatedWriter struct {
	release chan struct{}
	lockedBuffer
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.release
	return g.lockedBuffer.Write(p)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWriteWatchWritesInOrder(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	var buf lockedBuffer
	ww := loop.WatchWriter(&buf, 0, nil)
	for _, s := range []string{"a\n", "b\n", "c\n"} {
		if !ww.Send([]byte(s)) {
			t.Fatal("send refused")
		}
	}
	waitFor(t, func() bool { return ww.Sent() == 3 })
	if got := buf.String(); got != "a\nb\nc\n" {
		t.Fatalf("wrote %q", got)
	}
	if ww.Dropped() != 0 || ww.Queued() != 0 {
		t.Fatalf("dropped=%d queued=%d", ww.Dropped(), ww.Queued())
	}
	ww.Cancel()
	<-ww.Done()
}

// slowWriter takes a while over every Write, so sends pile up behind it.
type slowWriter struct{ lockedBuffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(50 * time.Microsecond)
	return w.lockedBuffer.Write(p)
}

// TestWriteWatchStreamAcrossDrains runs a stream through many writer
// wake-ups — backlogs coalesced behind a slow write, lone chunks, and
// idle waits between bursts — while the queue's backing arrays trade
// places between senders and writer; every chunk arrives once, in order.
func TestWriteWatchStreamAcrossDrains(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	var w slowWriter
	const n = 3000
	ww := loop.WatchWriter(&w, n, nil)
	var want bytes.Buffer
	for i := 0; i < n; i++ {
		chunk := []byte(strconv.Itoa(i) + "\n")
		want.Write(chunk)
		if !ww.Send(chunk) {
			t.Fatal("send refused")
		}
		if i%500 == 499 {
			waitFor(t, func() bool { return ww.Queued() == 0 })
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(t, func() bool { return ww.Sent() == n })
	if got := w.String(); got != want.String() {
		t.Fatalf("stream differs: wrote %d bytes, want %d", len(got), want.Len())
	}
	if ww.Dropped() != 0 {
		t.Fatalf("dropped %d", ww.Dropped())
	}
	ww.Cancel()
	<-ww.Done()
}

func TestWriteWatchDropOldest(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	gw := &gatedWriter{release: make(chan struct{})}
	ww := loop.WatchWriter(gw, 4, nil)

	// First send is picked up by the writer goroutine and blocks in Write;
	// wait for that so the queue fills deterministically.
	ww.Send([]byte("head\n"))
	waitFor(t, func() bool { return ww.Queued() == 0 })

	for i := 0; i < 10; i++ {
		ww.Send([]byte{byte('0' + i), '\n'})
	}
	if ww.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", ww.Dropped())
	}
	if ww.Queued() != 4 {
		t.Fatalf("queued = %d, want 4", ww.Queued())
	}
	close(gw.release)
	waitFor(t, func() bool { return ww.Queued() == 0 && ww.Sent() == 5 })
	// The newest four survive; the oldest six were dropped.
	if got := gw.String(); got != "head\n6\n7\n8\n9\n" {
		t.Fatalf("wrote %q", got)
	}
	ww.Cancel()
	<-ww.Done()
}

func TestWriteWatchProtectedChunkSurvivesDropOldest(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	gw := &gatedWriter{release: make(chan struct{})}
	ww := loop.WatchWriter(gw, 4, nil)

	// Wedge the writer on a first chunk so the queue fills behind it.
	ww.Send([]byte("x\n"))
	waitFor(t, func() bool { return ww.Queued() == 0 })

	ww.SendProtected([]byte("# banner\n"))
	for i := 0; i < 10; i++ {
		ww.Send([]byte{byte('0' + i), '\n'})
	}
	// Bound 4 with one protected: the banner plus the newest three
	// unprotected survive; eviction never touches the protected prefix.
	if ww.Queued() != 4 {
		t.Fatalf("queued = %d, want 4", ww.Queued())
	}
	if ww.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", ww.Dropped())
	}
	close(gw.release)
	waitFor(t, func() bool { return ww.Queued() == 0 && ww.Sent() == 5 })
	if got := gw.String(); got != "x\n# banner\n7\n8\n9\n" {
		t.Fatalf("wrote %q", got)
	}
	ww.Cancel()
	<-ww.Done()
}

type failWriter struct{ err error }

func (f *failWriter) Write(p []byte) (int, error) { return 0, f.err }

func TestWriteWatchErrorCallbackOnLoop(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	boom := errors.New("boom")
	var got error
	ww := loop.WatchWriter(&failWriter{err: boom}, 0, func(err error) { got = err })
	ww.Send([]byte("x\n"))
	<-ww.Done()
	waitFor(t, func() bool { loop.Iterate(); return got != nil })
	if !errors.Is(got, boom) {
		t.Fatalf("callback got %v", got)
	}
	if !errors.Is(ww.Err(), boom) {
		t.Fatalf("Err() = %v", ww.Err())
	}
	if ww.Send([]byte("y\n")) {
		t.Fatal("send after failure should be refused")
	}
}

func TestWriteWatchCancelSuppressesCallback(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	gw := &gatedWriter{release: make(chan struct{})}
	called := false
	ww := loop.WatchWriter(gw, 0, func(error) { called = true })
	ww.Send([]byte("x\n"))
	ww.Cancel()
	close(gw.release)
	<-ww.Done()
	for i := 0; i < 10; i++ {
		loop.Iterate()
	}
	if called {
		t.Fatal("onErr ran after Cancel")
	}
	if ww.Send([]byte("y\n")) {
		t.Fatal("send after cancel should be refused")
	}
}

// failingWriter fails every write.
type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

func TestWriteWatchFlushedConvergesAfterError(t *testing.T) {
	l, _ := newVirtualLoop(0)
	ww := l.WatchWriter(failingWriter{}, 8, nil)
	ww.Send([]byte("doomed\n"))
	ww.Send([]byte("also doomed\n"))
	deadline := time.Now().Add(2 * time.Second)
	for !ww.Flushed() {
		if time.Now().After(deadline) {
			t.Fatalf("Flushed never converged: enq=%d written=%d dropped=%d",
				ww.EnqueuedBytes(), ww.WrittenBytes(), ww.DroppedBytes())
		}
		time.Sleep(time.Millisecond)
	}
	if ww.WrittenBytes() != 0 || ww.DroppedBytes() == 0 {
		t.Fatalf("bytes = %d/%d", ww.WrittenBytes(), ww.DroppedBytes())
	}
	<-ww.Done()
}

func TestWriteWatchFlushedConvergesAfterCancel(t *testing.T) {
	l, _ := newVirtualLoop(0)
	pr, pw := io.Pipe() // nothing ever reads pr, so writes block in flight
	defer pr.Close()
	ww := l.WatchWriter(pw, 8, nil)
	ww.Send([]byte("wedged 1\n"))
	ww.Send([]byte("wedged 2\n"))
	// Wait until the writer goroutine has taken a batch off the queue
	// and is blocked inside the pipe write — Cancel must then cope with
	// a write in flight.
	testutil.WaitFor(t, "writer to block mid-write", func() bool { return ww.Queued() < 2 })
	ww.Cancel()
	pw.Close() // unblock the in-flight write, per the Cancel contract
	deadline := time.Now().Add(2 * time.Second)
	for !ww.Flushed() {
		if time.Now().After(deadline) {
			t.Fatalf("Flushed never converged after Cancel: enq=%d written=%d dropped=%d",
				ww.EnqueuedBytes(), ww.WrittenBytes(), ww.DroppedBytes())
		}
		time.Sleep(time.Millisecond)
	}
	<-ww.Done()
}

// TestWriteWatchAllProtectedCappedAtLimit is the regression test for
// unbounded growth through SendProtected: when every queued chunk is
// protected the eviction loop cannot run, and the queue used to grow past
// the limit without bound. The bound must hold — the incoming chunk drops
// (counted) once the queue is protected chunks to the limit.
func TestWriteWatchAllProtectedCappedAtLimit(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	gw := &gatedWriter{release: make(chan struct{})}
	ww := loop.WatchWriter(gw, 4, nil)

	// Wedge the writer on a first chunk so the queue fills behind it.
	ww.Send([]byte("head\n"))
	waitFor(t, func() bool { return ww.Queued() == 0 })

	for i := 0; i < 10; i++ {
		if !ww.SendProtected([]byte{byte('0' + i), '\n'}) {
			t.Fatalf("SendProtected %d refused a live watch", i)
		}
	}
	if ww.Queued() != 4 {
		t.Fatalf("queued = %d, want the limit 4", ww.Queued())
	}
	if ww.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", ww.Dropped())
	}
	// A regular send against a full all-protected queue drops too: there
	// is nothing evictable.
	ww.Send([]byte("x\n"))
	if ww.Queued() != 4 || ww.Dropped() != 7 {
		t.Fatalf("after Send: queued=%d dropped=%d, want 4/7", ww.Queued(), ww.Dropped())
	}
	close(gw.release)
	waitFor(t, func() bool { return ww.Queued() == 0 && ww.Sent() == 5 })
	// The protected prefix that fit the bound survives in FIFO order.
	if got := gw.String(); got != "head\n0\n1\n2\n3\n" {
		t.Fatalf("wrote %q", got)
	}
	if !ww.Flushed() {
		t.Fatalf("byte accounting unbalanced: enq=%d written=%d dropped=%d",
			ww.EnqueuedBytes(), ww.WrittenBytes(), ww.DroppedBytes())
	}
	ww.Cancel()
	<-ww.Done()
}

// wedged starts a watch whose writer is blocked inside its first write
// ("head\n"), so later sends queue up behind it deterministically.
func wedged(t *testing.T, limit int) (*WriteWatch, *gatedWriter) {
	t.Helper()
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	gw := &gatedWriter{release: make(chan struct{})}
	ww := loop.WatchWriter(gw, limit, nil)
	ww.Send([]byte("head\n"))
	waitFor(t, func() bool { return ww.Queued() == 0 })
	return ww, gw
}

func TestWriteWatchQueueDropOldest(t *testing.T) {
	ww, gw := wedged(t, 2)
	ww.Send([]byte("a\n"))
	ww.Send([]byte("b\n"))
	ww.Send([]byte("c\n"))
	if ww.Dropped() != 1 || ww.DroppedBytes() != 2 {
		t.Fatalf("dropped = %d chunks, %d bytes; want the oldest (a)", ww.Dropped(), ww.DroppedBytes())
	}
	close(gw.release)
	waitFor(t, func() bool { return ww.Flushed() })
	if got := gw.String(); got != "head\nb\nc\n" {
		t.Fatalf("wrote %q", got)
	}
	ww.Cancel()
	<-ww.Done()
}

// TestWriteWatchStalledPeerAllocFree: a peer that never drains holds the
// queue at its bound, so every send evicts one chunk; that must allocate
// nothing. MemStats counts exactly, where AllocsPerRun would truncate a
// few hundred mallocs over 100k sends to zero. The runtime may start a
// thread inside one window, so the best of three counts; garbage from the
// queue itself would show in every window.
func TestWriteWatchStalledPeerAllocFree(t *testing.T) {
	ww, gw := wedged(t, 1024)
	chunk := []byte("x\n")
	for i := 0; i < 4096; i++ { // reach the working array size
		ww.Send(chunk)
	}
	// Keep the collector's own bookkeeping out of the count.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	best := uint64(math.MaxUint64)
	for try := 0; try < 3 && best > 0; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100_000; i++ {
			ww.Send(chunk)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best != 0 {
		t.Errorf("%d mallocs over 100k sends to a stalled peer, want 0", best)
	}
	close(gw.release)
	ww.Cancel()
	<-ww.Done()
}

// TestWriteWatchProtectedAnywhere: a protected chunk queued behind regular
// traffic keeps its place and survives every eviction around it.
func TestWriteWatchProtectedAnywhere(t *testing.T) {
	ww, gw := wedged(t, 2)
	ww.Send([]byte("a\n"))
	ww.SendProtected([]byte("pong\n"))
	// At the limit, each send evicts the oldest regular chunk, never the
	// pong.
	ww.Send([]byte("b\n"))
	ww.Send([]byte("c\n"))
	if ww.Queued() != 2 || ww.Dropped() != 2 {
		t.Fatalf("queued=%d dropped=%d, want 2/2", ww.Queued(), ww.Dropped())
	}
	close(gw.release)
	waitFor(t, func() bool { return ww.Flushed() })
	if got := gw.String(); got != "head\npong\nc\n" {
		t.Fatalf("wrote %q", got)
	}
	ww.Cancel()
	<-ww.Done()
}

func TestWriteWatchCancelUnblocksWriter(t *testing.T) {
	loop := NewLoop(NewVirtualClock(time.Unix(0, 0)))
	var buf lockedBuffer
	ww := loop.WatchWriter(&buf, 4, nil)
	ww.Cancel() // the writer is idle, waiting for work
	select {
	case <-ww.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("writer did not exit on Cancel")
	}
	if ww.Send([]byte("x\n")) {
		t.Fatal("send after Cancel accepted")
	}
	if buf.String() != "" {
		t.Fatalf("wrote %q after Cancel", buf.String())
	}
}

// TestWriteWatchFinishDrains: what is queued before Finish — a protected
// close frame included — is written, later sends are refused and Done
// closes; Cancel during the drain discards the rest.
func TestWriteWatchFinishDrains(t *testing.T) {
	ww, gw := wedged(t, 4)
	ww.Send([]byte("data\n"))
	ww.SendProtected([]byte("close\n"))
	ww.Finish()
	if ww.Send([]byte("late\n")) {
		t.Fatal("send after Finish accepted")
	}
	close(gw.release)
	select {
	case <-ww.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("writer did not exit after draining")
	}
	if got := gw.String(); got != "head\ndata\nclose\n" {
		t.Fatalf("wrote %q", got)
	}

	ww, gw = wedged(t, 4)
	ww.Send([]byte("data\n"))
	ww.SendProtected([]byte("close\n"))
	ww.Finish()
	ww.Cancel() // preempts the drain
	close(gw.release)
	<-ww.Done()
	if got := gw.String(); got != "head\n" {
		t.Fatalf("wrote %q after Cancel preempted the drain", got)
	}
	if !ww.Flushed() {
		t.Fatalf("byte accounting unbalanced: enq=%d written=%d dropped=%d",
			ww.EnqueuedBytes(), ww.WrittenBytes(), ww.DroppedBytes())
	}
}
