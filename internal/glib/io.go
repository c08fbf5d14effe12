package glib

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
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

// LineBatchFunc receives every complete line found in one read chunk —
// the batch framing used by the streaming hot path, which amortizes one
// loop dispatch over a whole network read instead of paying it per line.
// lines is valid only for the duration of the call. Semantics of err and
// the return value match ReadFunc; the final callback may carry both
// trailing lines and the terminal error.
type LineBatchFunc func(lines []string, err error) bool

// AcceptFunc receives connections from a watched listener. A non-nil err
// means the listener failed or closed and the watch is removed. Return
// false to stop accepting.
type AcceptFunc func(conn net.Conn, err error) bool

// IOWatch is a handle to a reader or accept watch.
type IOWatch struct {
	cancel atomic.Bool
	dead   chan struct{}
}

func newIOWatch() *IOWatch { return &IOWatch{dead: make(chan struct{})} }

// Cancel stops delivering callbacks. The underlying blocking read is not
// interrupted (close the reader to unblock it), but no further callbacks
// will run.
func (w *IOWatch) Cancel() {
	if w.cancel.CompareAndSwap(false, true) {
		close(w.dead)
	}
}

// wait blocks until the invoked callback reports back or the watch is
// canceled. The cancel arm matters when the watch is abandoned on a loop
// that has stopped dispatching (a daemon quitting, a test done iterating
// its virtual clock): the posted callback will never run, and without it
// the reader goroutine would stay pinned on the channel forever.
func (w *IOWatch) wait(done <-chan bool) bool {
	select {
	case keep := <-done:
		return keep
	case <-w.dead:
		return false
	}
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
	w := newIOWatch()
	go func() {
		buf := make([]byte, size)
		for {
			n, err := r.Read(buf)
			if w.cancel.Load() {
				return
			}
			data := buf[:n]
			done := make(chan bool, 1)
			l.Invoke(func() {
				if w.cancel.Load() {
					done <- false
					return
				}
				keep := fn(data, err)
				if err != nil {
					keep = false
				}
				if !keep {
					w.Cancel()
				}
				done <- keep
			})
			if !w.wait(done) || err != nil {
				return
			}
		}
	}()
	return w
}

// WatchLines watches r and delivers it line-by-line; this is the framing
// used by the tuple streaming protocol (§3.3).
func (l *Loop) WatchLines(r io.Reader, fn LineFunc) *IOWatch {
	w := newIOWatch()
	go func() {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			if w.cancel.Load() {
				return
			}
			line := sc.Text()
			done := make(chan bool, 1)
			l.Invoke(func() {
				if w.cancel.Load() {
					done <- false
					return
				}
				keep := fn(line, nil)
				if !keep {
					w.Cancel()
				}
				done <- keep
			})
			if !w.wait(done) {
				return
			}
		}
		err := sc.Err()
		if err == nil {
			err = io.EOF
		}
		if w.cancel.Load() {
			return
		}
		l.Invoke(func() {
			if !w.cancel.Load() {
				fn("", err)
				w.Cancel()
			}
		})
	}()
	return w
}

// maxWatchedLine bounds a single line in a batch watch, matching the
// line-by-line watch's bufio.Scanner limit.
const maxWatchedLine = 1024 * 1024

// WatchLineBatches watches r and delivers all complete lines of each read
// chunk in one callback, so a reader that keeps up with a fast peer pays
// one loop dispatch per network read rather than per line. A line spanning
// reads is carried over and delivered with the chunk that completes it; a
// line longer than the scanner limit ends the watch with an error, like
// WatchLines. At end of stream any unterminated trailing line is delivered
// together with the terminal error.
func (l *Loop) WatchLineBatches(r io.Reader, fn LineBatchFunc) *IOWatch {
	w := newIOWatch()
	deliver := func(lines []string, err error) bool {
		done := make(chan bool, 1)
		l.Invoke(func() {
			if w.cancel.Load() {
				done <- false
				return
			}
			keep := fn(lines, err)
			if err != nil {
				keep = false
			}
			if !keep {
				w.Cancel()
			}
			done <- keep
		})
		return w.wait(done)
	}
	go func() {
		buf := make([]byte, 64*1024)
		var carry []byte
		var lines []string
		for {
			n, err := r.Read(buf)
			if w.cancel.Load() {
				return
			}
			data := buf[:n]
			lines = lines[:0]
			for {
				i := bytes.IndexByte(data, '\n')
				if i < 0 {
					break
				}
				var line string
				if len(carry) > 0 {
					carry = append(carry, data[:i]...)
					line = string(carry)
					carry = carry[:0]
				} else {
					line = string(data[:i])
				}
				lines = append(lines, strings.TrimSuffix(line, "\r"))
				data = data[i+1:]
			}
			carry = append(carry, data...)
			if err == nil && len(carry) > maxWatchedLine {
				err = bufio.ErrTooLong
			}
			if err != nil {
				if len(carry) > 0 && err == io.EOF {
					// An unterminated final line is still a line, the
					// way bufio.Scanner treats it.
					lines = append(lines, strings.TrimSuffix(string(carry), "\r"))
				}
				deliver(lines, err)
				return
			}
			if len(lines) == 0 {
				continue
			}
			if !deliver(lines, nil) {
				return
			}
		}
	}()
	return w
}

// WatchAccept watches a listener and delivers accepted connections on the
// loop goroutine, so a single-threaded server (§4.4) can manage all clients
// without locks.
func (l *Loop) WatchAccept(ln net.Listener, fn AcceptFunc) *IOWatch {
	w := newIOWatch()
	go func() {
		for {
			conn, err := ln.Accept()
			if w.cancel.Load() {
				if conn != nil {
					conn.Close()
				}
				return
			}
			done := make(chan bool, 1)
			l.Invoke(func() {
				if w.cancel.Load() {
					if conn != nil {
						conn.Close()
					}
					done <- false
					return
				}
				keep := fn(conn, err)
				if err != nil {
					keep = false
				}
				if !keep {
					w.Cancel()
				}
				done <- keep
			})
			if !w.wait(done) || err != nil {
				return
			}
		}
	}()
	return w
}
