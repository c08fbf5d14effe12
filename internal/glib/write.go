package glib

import (
	"io"
	"sync"
	"sync/atomic"
)

// The read-side watches in io.go emulate G_IO_IN. WriteWatch is the G_IO_OUT
// counterpart for connections the loop writes to (the netscope hub's
// subscribers, TCP viewers and web streams alike): callers enqueue chunks
// without ever blocking — from the loop goroutine or any other — a
// per-watch goroutine performs the blocking writes, and the queue is
// bounded with a drop-oldest policy so one stalled peer can only lose its
// own data — it can never stall the loop or other peers.

// DefaultWriteQueueLimit bounds a WriteWatch's queue when the caller passes
// a non-positive limit.
const DefaultWriteQueueLimit = 1024

// coalesceBufs recycles the buffers writers coalesce a backlog into, so
// a steady backlog costs no allocation and an idle watch holds no buffer.
// Buffers grown past maxPooledCoalesce are left to the collector.
var coalesceBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledCoalesce = 1 << 20

// WriteErrFunc is invoked once, on the loop goroutine, when a watched
// writer fails. The watch is already canceled when it runs; it is not
// called after Cancel.
type WriteErrFunc func(err error)

// WriteWatch is a handle to a write watch: a bounded outbound queue drained
// by a background goroutine.
type WriteWatch struct {
	loop  *Loop
	w     io.Writer
	onErr WriteErrFunc

	mu sync.Mutex
	//gscope:guardedby mu
	q DropQueue[[]byte]
	// closed refuses further sends. Cancel and a failed write also empty
	// the queue; Finish leaves it for the writer to drain.
	//gscope:guardedby mu
	closed bool

	kick chan struct{}
	done chan struct{}

	canceled atomic.Bool
	sent     atomic.Int64
	dropped  atomic.Int64
	errv     atomic.Value // error

	// Byte accounting: with batch-sized chunks, chunk counts no longer
	// measure traffic; bytes do. enqueued == written+droppedB (with an
	// empty queue) means every accepted byte reached the socket.
	enqueued atomic.Int64
	written  atomic.Int64
	droppedB atomic.Int64
}

// WatchWriter starts a write watch on w. limit bounds the queue in chunks
// (non-positive means DefaultWriteQueueLimit). onErr, if non-nil, is
// delivered on the loop goroutine when a write fails; the underlying writer
// is not closed by the watch — the error callback (or Cancel caller) owns
// that, mirroring the read-side watches.
func (l *Loop) WatchWriter(w io.Writer, limit int, onErr WriteErrFunc) *WriteWatch {
	if limit <= 0 {
		limit = DefaultWriteQueueLimit
	}
	ww := &WriteWatch{
		loop:  l,
		w:     w,
		onErr: onErr,
		q:     NewDropQueue[[]byte](limit),
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	go ww.writer()
	return ww
}

// Send enqueues one chunk for writing and returns immediately. The chunk is
// not copied and must not be mutated afterwards (the hub shares one encoded
// tuple line across every subscriber's watch). When the queue is full the
// oldest queued chunks are dropped — never the loop blocked — and the drop
// counter advances. Send reports false once the watch has failed or been
// canceled or finished.
//
//gscope:hotpath
func (ww *WriteWatch) Send(chunk []byte) bool { return ww.send(chunk, false) }

// SendProtected enqueues a chunk exempt from drop-oldest, as a protected
// DropQueue item: handshakes, acks and keepalive replies must reach the
// peer or the stream is unframed. It keeps its FIFO place and counts toward
// the bound; once protected chunks fill the bound, the incoming chunk is
// the one dropped (and counted).
//
//gscope:hotpath
func (ww *WriteWatch) SendProtected(chunk []byte) bool { return ww.send(chunk, true) }

//gscope:hotpath
func (ww *WriteWatch) send(chunk []byte, protect bool) bool {
	if ww.canceled.Load() {
		return false
	}
	ww.mu.Lock()
	if ww.closed {
		ww.mu.Unlock()
		return false
	}
	ww.enqueued.Add(int64(len(chunk)))
	// A dropped chunk, evicted or this one, counts as enqueued and dropped,
	// so Flushed stays balanced.
	if dropped, ok := ww.q.Push(chunk, protect); ok {
		ww.dropped.Add(1)
		ww.droppedB.Add(int64(len(dropped)))
	}
	ww.mu.Unlock()
	ww.wake()
	return true
}

// Queued returns the number of chunks waiting to be written.
func (ww *WriteWatch) Queued() int {
	ww.mu.Lock()
	defer ww.mu.Unlock()
	return ww.q.Len()
}

// Sent returns the number of chunks written to the underlying writer.
func (ww *WriteWatch) Sent() int64 { return ww.sent.Load() }

// Dropped returns the number of chunks discarded by the drop-oldest policy.
func (ww *WriteWatch) Dropped() int64 { return ww.dropped.Load() }

// EnqueuedBytes returns the total bytes accepted by Send/SendProtected.
func (ww *WriteWatch) EnqueuedBytes() int64 { return ww.enqueued.Load() }

// WrittenBytes returns the total bytes written to the underlying writer.
func (ww *WriteWatch) WrittenBytes() int64 { return ww.written.Load() }

// DroppedBytes returns the total bytes discarded by the drop-oldest policy.
func (ww *WriteWatch) DroppedBytes() int64 { return ww.droppedB.Load() }

// Flushed reports whether every accepted byte has either been written or
// dropped — i.e. nothing is queued or in flight.
func (ww *WriteWatch) Flushed() bool {
	return ww.enqueued.Load() == ww.written.Load()+ww.droppedB.Load()
}

// Err returns the write error that stopped the watch, if any.
func (ww *WriteWatch) Err() error {
	if err, ok := ww.errv.Load().(error); ok {
		return err
	}
	return nil
}

// Cancel stops the watch: queued chunks are discarded (counted as dropped
// bytes, so Flushed stays meaningful) and no error callback will run. A
// write already in progress is not interrupted — close the underlying
// connection to unblock it, as with read watches. Cancel also preempts a
// Finish drain.
func (ww *WriteWatch) Cancel() {
	ww.canceled.Store(true)
	ww.mu.Lock()
	ww.discardLocked(0)
	ww.mu.Unlock()
	ww.wake()
}

// Finish refuses further sends and lets the writer drain what is already
// queued, then exit (Done closes) — a close frame queued before Finish
// still reaches the peer. The drain lasts as long as the writes do; Cancel
// preempts it and discards the rest.
func (ww *WriteWatch) Finish() {
	ww.mu.Lock()
	ww.closed = true
	ww.mu.Unlock()
	ww.wake()
}

// wake nudges the writer goroutine without blocking.
//
//gscope:hotpath
func (ww *WriteWatch) wake() {
	select {
	case ww.kick <- struct{}{}:
	default:
	}
}

// discardLocked closes the watch and counts the queue, plus n bytes taken
// but never written, as dropped bytes. The caller holds mu.
func (ww *WriteWatch) discardLocked(n int64) {
	ww.closed = true
	for _, chunk := range ww.q.Take(nil) {
		n += int64(len(chunk))
	}
	ww.droppedB.Add(n)
}

// Done returns a channel closed when the writer goroutine has exited.
func (ww *WriteWatch) Done() <-chan struct{} { return ww.done }

func (ww *WriteWatch) writer() {
	defer close(ww.done)
	var batch [][]byte
	for {
		ww.mu.Lock()
		batch = ww.q.Take(batch)
		closed := ww.closed
		ww.mu.Unlock()

		if len(batch) > 0 {
			// One write per wake-up: a lone chunk goes out as is, several
			// are coalesced into a pooled buffer.
			buf := batch[0]
			var pooled *[]byte
			if len(batch) > 1 {
				n := 0
				for _, chunk := range batch {
					n += len(chunk)
				}
				pooled = coalesceBufs.Get().(*[]byte)
				if cap(*pooled) < n {
					*pooled = make([]byte, 0, n)
				}
				buf = (*pooled)[:0]
				for _, chunk := range batch {
					buf = append(buf, chunk...)
				}
			}
			_, err := ww.w.Write(buf)
			n := int64(len(buf))
			if pooled != nil && cap(buf) <= maxPooledCoalesce {
				*pooled = buf
				coalesceBufs.Put(pooled)
			}
			if err != nil {
				ww.errv.Store(err)
				ww.mu.Lock()
				// The failed batch and anything still queued will never
				// be written; count them dropped so Flushed() (and its
				// waiters) converge instead of spinning forever.
				ww.discardLocked(n)
				ww.mu.Unlock()
				if !ww.canceled.Swap(true) && ww.onErr != nil {
					ww.loop.Invoke(func() { ww.onErr(err) })
				}
				return
			}
			ww.sent.Add(int64(len(batch)))
			ww.written.Add(n)
			continue
		}
		if closed {
			return
		}
		<-ww.kick
	}
}
