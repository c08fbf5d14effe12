package glib

import (
	"bufio"
	"io"
	"net"
	"sync/atomic"
)

// The original gscope drives I/O through GTK's GIOChannel watches so that a
// single-threaded application handles both GUI and network events on one
// loop (§3.4, §4.3). Go's stdlib exposes blocking I/O rather than readiness
// callbacks, so each watch runs a reader goroutine that performs the
// blocking call and posts completions to the loop; the callback still always
// executes on the loop goroutine, preserving the single-threaded dispatch
// model the paper's programming style depends on.

// ReadFunc receives data read from a watched reader. data is valid only for
// the duration of the call. err is non-nil exactly once, when the stream
// ends (io.EOF) or fails; after an error the watch is removed regardless of
// the return value. Return false to cancel the watch early.
type ReadFunc func(data []byte, err error) bool

// LineFunc receives one line (without the trailing newline) from a watched
// reader. Semantics of err and the return value match ReadFunc.
type LineFunc func(line string, err error) bool

// AcceptFunc receives connections from a watched listener. A non-nil err
// means the listener failed or closed and the watch is removed. Return
// false to stop accepting.
type AcceptFunc func(conn net.Conn, err error) bool

// IOWatch is a handle to a reader or accept watch. Its reader goroutine
// blocks for one event at a time and hands it to the loop with dispatch;
// the event lives in variables shared by the reader and deliver, so a
// dispatch allocates nothing.
type IOWatch struct {
	loop    *Loop
	cancel  atomic.Bool
	dead    chan struct{}
	done    chan bool   // deliver's verdict on the event in flight
	deliver func() bool // runs the callback on the event in flight
	discard func()      // releases an event a canceled watch will not deliver
	run     func()      // onLoop, bound once
}

func (l *Loop) newIOWatch(deliver func() bool, discard func()) *IOWatch {
	w := &IOWatch{
		loop:    l,
		dead:    make(chan struct{}),
		done:    make(chan bool, 1),
		deliver: deliver,
		discard: discard,
	}
	w.run = w.onLoop
	return w
}

// Cancel stops delivering callbacks. The underlying blocking read is not
// interrupted (close the reader to unblock it), but no further callbacks
// will run.
func (w *IOWatch) Cancel() {
	if w.cancel.CompareAndSwap(false, true) {
		close(w.dead)
	}
}

// dispatch hands the event in flight to the loop and blocks until deliver
// reports back. It returns false once the callback asks to stop or the
// watch is canceled; the reader goroutine must then quit without touching
// the event again, which is what keeps a callback's data from being
// overwritten. The cancel arm matters when the watch is abandoned on a
// loop that has stopped dispatching (a daemon quitting, a test done
// iterating its virtual clock): the posted callback will never run, and
// without it the reader goroutine would stay pinned forever. At most one
// verdict is ever pending, so the one buffered done channel serves every
// dispatch of the watch.
func (w *IOWatch) dispatch() bool {
	if w.cancel.Load() {
		if w.discard != nil {
			w.discard()
		}
		return false
	}
	w.loop.Invoke(w.run)
	select {
	case keep := <-w.done:
		return keep
	case <-w.dead:
		return false
	}
}

// onLoop runs on the loop goroutine for each dispatch.
func (w *IOWatch) onLoop() {
	keep := false
	if !w.cancel.Load() {
		if keep = w.deliver(); !keep {
			w.Cancel()
		}
	} else if w.discard != nil {
		w.discard()
	}
	w.done <- keep
}

// WatchReader watches r and invokes fn on the loop goroutine with each chunk
// of data as it arrives, emulating a G_IO_IN watch.
func (l *Loop) WatchReader(r io.Reader, fn ReadFunc) *IOWatch {
	return l.WatchReaderSize(r, 4096, fn)
}

// WatchReaderSize is WatchReader with a caller-chosen read buffer size, for
// hot streams (a publisher's binary tuple feed) where 4 KiB reads would pay
// one loop dispatch per few thousand tuples. The callback is handed the
// read buffer itself, not a copy: the reader goroutine blocks until the
// callback returns before it reads again, and quits without reading once
// the watch is canceled, so data is never overwritten while fn can see it.
func (l *Loop) WatchReaderSize(r io.Reader, size int, fn ReadFunc) *IOWatch {
	var data []byte
	var err error
	w := l.newIOWatch(func() bool { return fn(data, err) && err == nil }, nil)
	go func() {
		buf := make([]byte, size)
		for {
			var n int
			n, err = r.Read(buf)
			data = buf[:n]
			if !w.dispatch() || err != nil {
				return
			}
		}
	}()
	return w
}

// WatchLines watches r and delivers it line-by-line, for line-only
// channels such as a hub subscriber's command lines, where no byte may be
// taken for a binary frame. Tuple streams are framed by
// tuple.StreamDecoder over WatchReaderSize instead.
func (l *Loop) WatchLines(r io.Reader, fn LineFunc) *IOWatch {
	var line string
	var err error
	w := l.newIOWatch(func() bool { return fn(line, err) && err == nil }, nil)
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			line = sc.Text()
			if !w.dispatch() {
				return
			}
		}
		line, err = "", sc.Err()
		if err == nil {
			err = io.EOF
		}
		w.dispatch()
	}()
	return w
}

// WatchAccept watches a listener and delivers accepted connections on the
// loop goroutine, so a single-threaded server (§4.4) can manage all clients
// without locks. A connection accepted after the watch is canceled is
// closed, not leaked.
func (l *Loop) WatchAccept(ln net.Listener, fn AcceptFunc) *IOWatch {
	var conn net.Conn
	var err error
	w := l.newIOWatch(func() bool { return fn(conn, err) && err == nil }, func() {
		if conn != nil {
			conn.Close()
		}
	})
	go func() {
		for {
			conn, err = ln.Accept()
			if !w.dispatch() || err != nil {
				return
			}
		}
	}()
	return w
}
