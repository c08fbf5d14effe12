package glib

import (
	"bytes"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func epoch() time.Time { return time.Unix(1000, 0) }

func newVirtualLoop(granularity time.Duration) (*Loop, *VirtualClock) {
	vc := NewVirtualClock(epoch())
	l := NewLoop(vc, WithGranularity(granularity))
	return l, vc
}

func TestTimeoutFiresAtInterval(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var fires int
	l.TimeoutAdd(50*time.Millisecond, func(missed int) bool {
		fires++
		return true
	})
	l.Advance(500 * time.Millisecond)
	if fires != 10 {
		t.Fatalf("fires = %d, want 10", fires)
	}
}

func TestTimeoutQuantization(t *testing.T) {
	// With a 10ms tick, a 15ms timeout fires on 10ms boundaries: 20, 40,
	// 60 ... (each deadline rounded up).
	l, vc := newVirtualLoop(10 * time.Millisecond)
	var times []time.Duration
	l.TimeoutAdd(15*time.Millisecond, func(missed int) bool {
		times = append(times, vc.Now().Sub(epoch()))
		return true
	})
	l.Advance(100 * time.Millisecond)
	if len(times) == 0 {
		t.Fatal("no fires")
	}
	for _, at := range times {
		if at%(10*time.Millisecond) != 0 {
			t.Fatalf("fire at %v not on a 10ms tick", at)
		}
	}
	if times[0] != 20*time.Millisecond {
		t.Fatalf("first fire at %v, want 20ms", times[0])
	}
}

func TestTimeoutReturnFalseRemoves(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var fires int
	l.TimeoutAdd(10*time.Millisecond, func(missed int) bool {
		fires++
		return fires < 3
	})
	l.Advance(time.Second)
	if fires != 3 {
		t.Fatalf("fires = %d, want 3", fires)
	}
}

func TestRemoveTimeout(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var fires int
	id := l.TimeoutAdd(10*time.Millisecond, func(missed int) bool {
		fires++
		return true
	})
	l.Advance(35 * time.Millisecond)
	if !l.Remove(id) {
		t.Fatal("Remove should find the source")
	}
	if l.Remove(id) {
		t.Fatal("second Remove should return false")
	}
	l.Advance(100 * time.Millisecond)
	if fires != 3 {
		t.Fatalf("fires = %d after removal, want 3", fires)
	}
}

func TestLostTickAccounting(t *testing.T) {
	// A scheduling stall: the clock jumps past several intervals before
	// the loop gets to run (vc.Set models the kernel not waking the
	// process, §4.5). The source then fires once with the missed count
	// rather than replaying every interval.
	l, vc := newVirtualLoop(0)
	var fires int
	var missedTotal int
	l.TimeoutAdd(10*time.Millisecond, func(missed int) bool {
		fires++
		missedTotal += missed
		return true
	})
	vc.Set(epoch().Add(100 * time.Millisecond))
	l.Iterate()
	if fires != 1 {
		t.Fatalf("fires = %d, want 1 (coalesced)", fires)
	}
	if missedTotal != 9 {
		t.Fatalf("missed = %d, want 9", missedTotal)
	}
	if l.LostTicks() != 9 {
		t.Fatalf("LostTicks = %d, want 9", l.LostTicks())
	}
}

func TestAdvanceToNeverMissesTicks(t *testing.T) {
	// AdvanceTo models ideal time progression: every deadline is visited
	// exactly, so no ticks are lost even across a large span.
	l, _ := newVirtualLoop(0)
	var fires, missedTotal int
	l.TimeoutAdd(10*time.Millisecond, func(missed int) bool {
		fires++
		missedTotal += missed
		return true
	})
	l.Advance(time.Second)
	if fires != 100 || missedTotal != 0 {
		t.Fatalf("fires=%d missed=%d, want 100/0", fires, missedTotal)
	}
}

func TestLostTicksPreservePhase(t *testing.T) {
	l, vc := newVirtualLoop(0)
	var times []time.Duration
	l.TimeoutAdd(10*time.Millisecond, func(missed int) bool {
		times = append(times, vc.Now().Sub(epoch()))
		return true
	})
	// Stall to 95ms: a coalesced fire at 95 (missed 8), then the source
	// resumes on its original 10ms phase: 100, 110, 120.
	vc.Set(epoch().Add(95 * time.Millisecond))
	l.Iterate()
	l.Advance(25 * time.Millisecond)
	want := []time.Duration{95 * time.Millisecond, 100 * time.Millisecond, 110 * time.Millisecond, 120 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestMultipleTimeoutsInterleave(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var a, b int
	l.TimeoutAdd(10*time.Millisecond, func(int) bool { a++; return true })
	l.TimeoutAdd(25*time.Millisecond, func(int) bool { b++; return true })
	l.Advance(100 * time.Millisecond)
	if a != 10 || b != 4 {
		t.Fatalf("a=%d b=%d, want 10 and 4", a, b)
	}
}

func TestPriorityOrderAtSameDeadline(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var order []string
	l.TimeoutAddPriority(10*time.Millisecond, PriorityDefault, func(int) bool {
		order = append(order, "default")
		return false
	})
	l.TimeoutAddPriority(10*time.Millisecond, PriorityHigh, func(int) bool {
		order = append(order, "high")
		return false
	})
	l.Advance(10 * time.Millisecond)
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("order = %v", order)
	}
}

func TestIdleRunsAndRemoves(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var n int
	l.IdleAdd(func() bool {
		n++
		return n < 2
	})
	l.Iterate()
	l.Iterate()
	l.Iterate()
	if n != 2 {
		t.Fatalf("idle ran %d times, want 2", n)
	}
}

func TestIdleRemoveByID(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var n int
	id := l.IdleAdd(func() bool { n++; return true })
	l.Iterate()
	if !l.Remove(id) {
		t.Fatal("Remove idle failed")
	}
	l.Iterate()
	if n != 1 {
		t.Fatalf("idle ran %d times after removal", n)
	}
}

func TestInvokeRunsOnLoop(t *testing.T) {
	l, _ := newVirtualLoop(0)
	done := make(chan struct{})
	var ran atomic.Bool
	go l.Invoke(func() {
		ran.Store(true)
		close(done)
	})
	deadline := time.Now().Add(2 * time.Second)
	for !ran.Load() && time.Now().Before(deadline) {
		l.Iterate()
	}
	select {
	case <-done:
	default:
		t.Fatal("Invoke never ran")
	}
}

func TestRunRequiresRealClock(t *testing.T) {
	l, _ := newVirtualLoop(0)
	if err := l.Run(); err != ErrVirtualRun {
		t.Fatalf("Run on virtual clock returned %v", err)
	}
}

func TestRunRealClockTimeout(t *testing.T) {
	l := NewLoop(RealClock{}, WithGranularity(time.Millisecond))
	var fires atomic.Int32
	l.TimeoutAdd(5*time.Millisecond, func(int) bool {
		if fires.Add(1) >= 3 {
			l.Quit()
			return false
		}
		return true
	})
	errCh := make(chan error, 1)
	go func() { errCh <- l.Run() }()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not quit")
	}
	if fires.Load() < 3 {
		t.Fatalf("fires = %d", fires.Load())
	}
}

// runReturns runs l on its own goroutine and reports whether Run
// returned within a bounded wait.
func runReturns(t *testing.T, l *Loop) bool {
	t.Helper()
	errCh := make(chan error, 1)
	go func() { errCh <- l.Run() }()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestRunKeepsEarlyQuit: a Quit made before Run starts must end that Run,
// and a loop whose Run a Quit ended can Run again.
func TestRunKeepsEarlyQuit(t *testing.T) {
	l := NewLoop(RealClock{}, WithGranularity(time.Millisecond))
	l.Quit()
	if !runReturns(t, l) {
		l.Quit() // release the stuck Run
		t.Fatal("Run lost a Quit made before it started")
	}
	var fires atomic.Int32
	l.TimeoutAdd(time.Millisecond, func(int) bool {
		fires.Add(1)
		l.Quit()
		return false
	})
	if !runReturns(t, l) {
		t.Fatal("second Run did not quit")
	}
	if fires.Load() != 1 {
		t.Fatalf("second Run dispatched %d timeouts, want 1", fires.Load())
	}
}

func TestAdvancePanicsOnRealClock(t *testing.T) {
	l := NewLoop(RealClock{})
	defer func() {
		if recover() == nil {
			t.Fatal("Advance on a real clock should panic")
		}
	}()
	l.Advance(time.Second)
}

func TestConcurrentTimeoutAddRemove(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var wg sync.WaitGroup
	ids := make([]SourceID, 100)
	for i := 0; i < 100; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[i] = l.TimeoutAdd(time.Millisecond, func(int) bool { return true })
		}()
	}
	wg.Wait()
	seen := make(map[SourceID]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatal("duplicate source ID under concurrency")
		}
		seen[id] = true
	}
	for _, id := range ids {
		if !l.Remove(id) {
			t.Fatal("failed to remove concurrently added source")
		}
	}
}

func TestWatchLinesDeliversAndEOF(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var lines []string
	var eof atomic.Bool
	r := strings.NewReader("one\ntwo\nthree\n")
	l.WatchLines(r, func(line string, err error) bool {
		if err == io.EOF {
			eof.Store(true)
			return false
		}
		lines = append(lines, line)
		return true
	})
	deadline := time.Now().Add(2 * time.Second)
	for !eof.Load() && time.Now().Before(deadline) {
		l.Iterate()
	}
	if len(lines) != 3 || lines[0] != "one" || lines[2] != "three" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestWatchLinesCancel(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var count atomic.Int32
	pr, pw := io.Pipe()
	w := l.WatchLines(pr, func(line string, err error) bool {
		count.Add(1)
		return true
	})
	pw.Write([]byte("a\n")) //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		l.Iterate()
	}
	w.Cancel()
	pw.Write([]byte("b\n")) //nolint:errcheck
	for i := 0; i < 50; i++ {
		l.Iterate()
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 1 {
		t.Fatalf("callback ran %d times after cancel", count.Load())
	}
	pw.Close()
	pr.Close()
}

func TestWatchAcceptDeliversConnections(t *testing.T) {
	l, _ := newVirtualLoop(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var got atomic.Int32
	l.WatchAccept(ln, func(conn net.Conn, err error) bool {
		if err != nil {
			return false
		}
		got.Add(1)
		conn.Close()
		return true
	})
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() < 3 && time.Now().Before(deadline) {
		l.Iterate()
	}
	if got.Load() != 3 {
		t.Fatalf("accepted %d connections", got.Load())
	}
}

func TestVirtualClockSetAndAdvance(t *testing.T) {
	vc := NewVirtualClock(epoch())
	if vc.Now() != epoch() {
		t.Fatal("initial time wrong")
	}
	vc.Advance(time.Minute)
	if vc.Now() != epoch().Add(time.Minute) {
		t.Fatal("Advance wrong")
	}
	vc.Set(epoch())
	if vc.Now() != epoch() {
		t.Fatal("Set wrong")
	}
}

func TestTimeoutAddValidation(t *testing.T) {
	l, _ := newVirtualLoop(0)
	for _, fn := range []func(){
		func() { l.TimeoutAdd(0, func(int) bool { return true }) },
		func() { l.TimeoutAdd(time.Second, nil) },
		func() { l.IdleAdd(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestWatchReaderSizeDeliversChunks(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var got []byte
	var calls int
	var eof atomic.Bool
	r := strings.NewReader("one\ntwo\nthree\n")
	l.WatchReaderSize(r, 64, func(data []byte, err error) bool {
		got = append(got, data...)
		calls++
		if err == io.EOF {
			eof.Store(true)
		}
		return true
	})
	deadline := time.Now().Add(2 * time.Second)
	for !eof.Load() && time.Now().Before(deadline) {
		l.Iterate()
	}
	if string(got) != "one\ntwo\nthree\n" {
		t.Fatalf("data = %q", got)
	}
	// The whole reader fits one read; the second callback carries EOF, and
	// the watch ends there even though the callback asked to keep going.
	if calls != 2 {
		t.Fatalf("callbacks = %d, want 2", calls)
	}
}

func TestWatchReaderSizeCancel(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var count atomic.Int32
	pr, pw := io.Pipe()
	w := l.WatchReaderSize(pr, 64, func(data []byte, err error) bool {
		count.Add(1)
		return true
	})
	pw.Write([]byte("a\n")) //nolint:errcheck
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		l.Iterate()
	}
	w.Cancel()
	pw.Write([]byte("b\n")) //nolint:errcheck
	for i := 0; i < 50; i++ {
		l.Iterate()
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 1 {
		t.Fatalf("callback ran %d times; want none after cancel", count.Load())
	}
	pw.Close()
	pr.Close()
}

// TestWatchReaderSizeReleasedOnStoppedLoop: a watch canceled while its
// dispatch waits on a loop that no longer iterates must release its reader
// goroutine, and the stale dispatch must not run the callback when the loop
// does iterate again.
func TestWatchReaderSizeReleasedOnStoppedLoop(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var calls atomic.Int32
	w := l.WatchReaderSize(strings.NewReader("x"), 8, func([]byte, error) bool {
		calls.Add(1)
		return true
	})
	waitFor(t, func() bool { return len(l.posted) == 1 })
	if watchGoroutines() != 1 {
		t.Fatalf("%d watch goroutines, want the one waiting on its dispatch", watchGoroutines())
	}
	w.Cancel()
	waitFor(t, func() bool { return watchGoroutines() == 0 })
	l.Iterate()
	if calls.Load() != 0 {
		t.Fatalf("callback ran %d times after cancel", calls.Load())
	}
}

// watchGoroutines counts the live goroutines that watch constructors called
// from the calling goroutine have started.
func watchGoroutines() int {
	buf := make([]byte, 64)
	self := strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
	all := make([]byte, 1<<20)
	n := 0
	for _, line := range strings.Split(string(all[:runtime.Stack(all, true)]), "\n") {
		if strings.HasPrefix(line, "created by repro/internal/glib.(*Loop).Watch") &&
			strings.HasSuffix(line, " in goroutine "+self) {
			n++
		}
	}
	return n
}

// readerFunc adapts a function to io.Reader.
type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestWatchReaderSizeDispatchAllocFree: a dispatch reuses the watch's done
// channel and its bound loop callback, so handing one read to the loop
// allocates nothing. The best of three windows keeps a thread the runtime
// starts inside one window out of the count.
func TestWatchReaderSizeDispatchAllocFree(t *testing.T) {
	l, _ := newVirtualLoop(0)
	gate := make(chan struct{})
	r := readerFunc(func(p []byte) (int, error) {
		if _, ok := <-gate; !ok {
			return 0, io.EOF
		}
		p[0] = 'x'
		return 1, nil
	})
	var n atomic.Int64
	w := l.WatchReaderSize(r, 64, func(data []byte, err error) bool {
		n.Add(int64(len(data)))
		return true
	})
	defer w.Cancel()
	defer close(gate)
	dispatch := func() {
		want := n.Load() + 1
		gate <- struct{}{}
		for n.Load() < want {
			l.Iterate()
			runtime.Gosched()
		}
	}
	dispatch() // warm up
	best := math.MaxFloat64
	for try := 0; try < 3 && best > 0; try++ {
		best = min(best, testing.AllocsPerRun(200, dispatch))
	}
	if best != 0 {
		t.Errorf("%.0f allocations per dispatch, want 0", best)
	}
}

func TestWatchAcceptClosesConnAfterCancel(t *testing.T) {
	l, _ := newVirtualLoop(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var calls atomic.Int32
	w := l.WatchAccept(ln, func(conn net.Conn, err error) bool {
		calls.Add(1)
		return true
	})
	w.Cancel()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	// The watch accepts the connection, finds itself canceled and closes
	// it: the peer sees EOF rather than a connection held open forever.
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the accepted connection = %v, want EOF", err)
	}
	l.Iterate()
	if calls.Load() != 0 {
		t.Fatalf("callback ran %d times after cancel", calls.Load())
	}
}

// TestWatchAcceptClosesConnPendingAtCancel: a connection whose dispatch is
// already posted when the watch is canceled is closed by the loop instead
// of handed to the callback.
func TestWatchAcceptClosesConnPendingAtCancel(t *testing.T) {
	l, _ := newVirtualLoop(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan struct{})
	var calls atomic.Int32
	w := l.WatchAccept(acceptNotify{ln, accepted}, func(conn net.Conn, err error) bool {
		calls.Add(1)
		return true
	})
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-accepted // accepted and posted to a loop not yet iterated
	w.Cancel()
	l.Iterate()
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the accepted connection = %v, want EOF", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("callback ran %d times after cancel", calls.Load())
	}
}

// acceptNotify signals each successful Accept.
type acceptNotify struct {
	net.Listener
	accepted chan struct{}
}

func (a acceptNotify) Accept() (net.Conn, error) {
	c, err := a.Listener.Accept()
	if err == nil {
		a.accepted <- struct{}{}
	}
	return c, err
}

func TestWriteWatchByteAccounting(t *testing.T) {
	l, _ := newVirtualLoop(0)
	var sink bytes.Buffer
	mu := &lockedWriter{w: &sink}
	ww := l.WatchWriter(mu, 8, nil)
	ww.Send([]byte("hello\n"))
	ww.Send([]byte("world\n"))
	deadline := time.Now().Add(2 * time.Second)
	for !ww.Flushed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !ww.Flushed() {
		t.Fatal("never flushed")
	}
	if ww.EnqueuedBytes() != 12 || ww.WrittenBytes() != 12 || ww.DroppedBytes() != 0 {
		t.Fatalf("bytes = %d/%d/%d", ww.EnqueuedBytes(), ww.WrittenBytes(), ww.DroppedBytes())
	}
	ww.Cancel()
	<-ww.Done()
}

// lockedWriter serializes writes for the race detector (the watch's writer
// goroutine vs. test assertions reading the buffer).
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
