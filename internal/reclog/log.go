package reclog

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/glib"
	"repro/internal/tuple"
)

// Log is the recording side of a session: an append-only segmented tuple
// log fed through a bounded queue.
//
// Append may be called from one goroutine (the event loop that delivers
// batches); all file I/O happens on the Log's own writer goroutine, so
// Append never blocks on the disk. The queue is bounded with a drop-oldest
// policy — a recorder behind a stalled disk loses its own oldest batches
// (counted) rather than ever stalling the loop, mirroring
// glib.WriteWatch's contract for slow sockets.
type Log struct {
	dir  string
	opts Options

	mu sync.Mutex
	//gscope:guardedby mu
	q glib.DropQueue[[]tuple.Tuple]
	//gscope:guardedby mu
	flushes []chan error
	//gscope:guardedby mu
	closed bool

	kick chan struct{}
	done chan struct{}

	appended atomic.Int64 // tuples accepted into the queue
	dropped  atomic.Int64 // tuples lost to the queue bound
	written  atomic.Int64 // tuples written to the active or sealed segments
	retired  atomic.Int64 // segments deleted by retention
	failed   atomic.Bool
	errv     atomic.Value // error

	// Writer-goroutine state.
	f         *os.File
	w         *bufio.Writer
	seq       int64
	segBytes  int64
	segFirst  int64
	segLast   int64
	segTuples int64
	encBuf    []byte
	benc      *tuple.BinaryEncoder // v3 segment encoder; nil for text sessions
	sealed    []SegmentInfo        // oldest first; excludes the active segment
}

// Open creates (or reopens) a session directory for recording and starts
// the writer goroutine. Reopening an existing session never appends to old
// segments: recording resumes in a fresh segment after the highest existing
// sequence number, and existing segments count toward the retention budget.
func Open(dir string, opts Options) (*Log, error) {
	switch opts.WireVersion {
	case 0, 1, 2, 3:
	default:
		return nil, fmt.Errorf("reclog: unsupported wire version %d", opts.WireVersion)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reclog: %w", err)
	}
	existing, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:    dir,
		opts:   opts.withDefaults(),
		q:      glib.NewDropQueue[[]tuple.Tuple](opts.withDefaults().QueueLimit),
		kick:   make(chan struct{}, 1),
		done:   make(chan struct{}),
		sealed: existing,
	}
	for _, s := range existing {
		if s.Seq > l.seq {
			l.seq = s.Seq
		}
	}
	go l.writer()
	return l, nil
}

// Dir returns the session directory.
func (l *Log) Dir() string { return l.dir }

// Append enqueues one batch for recording and returns immediately; the
// batch is copied, so the caller may reuse it. This is the whole loop-side
// cost of recording: one copy and one queue append per delivered batch,
// regardless of batch size. When the queue is full the oldest queued batch
// is dropped and counted. Append reports false once the log is closed or
// its writer has failed.
//
//gscope:hotpath
func (l *Log) Append(batch []tuple.Tuple) bool {
	if l.failed.Load() {
		return false
	}
	if len(batch) == 0 {
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		return !closed
	}
	cp := make([]tuple.Tuple, len(batch)) //gscope:allow hotpath the batch copy is the documented loop-side cost of recording
	copy(cp, batch)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	if dropped, ok := l.q.Push(cp, false); ok {
		l.dropped.Add(int64(len(dropped)))
	}
	l.appended.Add(int64(len(cp)))
	l.mu.Unlock()
	l.wake()
	return true
}

// wake nudges the writer goroutine without blocking.
//
//gscope:hotpath
func (l *Log) wake() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// Stats returns lifetime tuple counters: accepted by Append, lost to the
// queue bound, and written to segment files.
func (l *Log) Stats() (appended, dropped, written int64) {
	return l.appended.Load(), l.dropped.Load(), l.written.Load()
}

// Retired returns the number of segments deleted by the retention bound.
func (l *Log) Retired() int64 { return l.retired.Load() }

// Drained reports whether every accepted tuple has been written (or
// dropped) — the barrier tests use before reopening the session.
func (l *Log) Drained() bool {
	return l.appended.Load() == l.written.Load()+l.dropped.Load()
}

// Flush is a durability barrier for readers of a live session: it returns
// once every tuple appended before the call has been written through to
// the active segment file (or dropped by the queue bound) and the file's
// buffered bytes pushed to the OS, so OpenSession on the same directory
// sees them. The netscope hub uses it before serving v2 backfill from an
// attached, still-recording log. On a closed (or failed) log it waits for
// the writer to finish sealing and returns its error.
func (l *Log) Flush() error {
	ack := make(chan error, 1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.Err()
	}
	l.flushes = append(l.flushes, ack)
	l.mu.Unlock()
	l.wake()
	return <-ack
}

// Err returns the I/O error that stopped the writer, if any.
func (l *Log) Err() error {
	if err, ok := l.errv.Load().(error); ok {
		return err
	}
	return nil
}

// Close drains the queue, seals the active segment and stops the writer.
// It returns the first I/O error the writer encountered.
func (l *Log) Close() error {
	l.mu.Lock()
	already := l.closed
	l.closed = true
	l.mu.Unlock()
	l.wake()
	if !already {
		<-l.done
	}
	return l.Err()
}

// writer is the background goroutine: it drains the queue, appends to the
// active segment, rotates and retires segments.
func (l *Log) writer() {
	defer close(l.done)
	var batches [][]tuple.Tuple
	for {
		l.mu.Lock()
		batches = l.q.Take(batches)
		flushes := l.flushes
		l.flushes = nil
		closed := l.closed
		l.mu.Unlock()

		var werr error
		for _, b := range batches {
			if werr = l.writeBatch(b); werr != nil {
				break
			}
		}
		if werr == nil && len(flushes) > 0 && l.w != nil {
			if ferr := l.w.Flush(); ferr != nil {
				werr = fmt.Errorf("reclog: flush %s: %w", segName(l.seq), ferr)
			}
		}
		for _, ack := range flushes {
			ack <- werr
		}
		if werr != nil {
			l.fail(werr)
			return
		}
		if closed {
			// Append refuses once closed: this round took the last batches.
			if err := l.seal(); err != nil {
				l.fail(err)
			}
			return
		}
		if len(batches) > 0 {
			continue
		}
		<-l.kick
	}
}

// fail records the terminal error and counts everything still queued as
// dropped so Drained (and its waiters) converge.
func (l *Log) fail(err error) {
	l.errv.Store(err)
	l.failed.Store(true)
	l.mu.Lock()
	l.closed = true
	for _, b := range l.q.Take(nil) {
		l.dropped.Add(int64(len(b)))
	}
	flushes := l.flushes
	l.flushes = nil
	l.mu.Unlock()
	for _, ack := range flushes {
		ack <- err
	}
}

// writeBatch appends one batch to the active segment, opening and rotating
// segments as needed. Runs on the writer goroutine.
//
//gscope:hotpath
func (l *Log) writeBatch(batch []tuple.Tuple) error {
	if l.w == nil {
		if err := l.openSegment(); err != nil { //gscope:allow hotpath segment rotation is once per SegmentBytes of traffic
			return err
		}
	}
	if l.opts.WireVersion == 3 {
		l.encBuf = l.benc.AppendBatch(l.encBuf[:0], batch)
	} else {
		l.encBuf = tuple.AppendWireBatch(l.encBuf[:0], batch)
	}
	n, err := l.w.Write(l.encBuf) //gscope:allow hotpath buffered segment write on the log's own goroutine, off the loop
	l.segBytes += int64(n)
	if err != nil {
		return fmt.Errorf("reclog: %s: %w", segName(l.seq), err) //gscope:allow hotpath error construction happens only when the disk write fails
	}
	for _, t := range batch {
		if l.segTuples == 0 || t.Time < l.segFirst {
			l.segFirst = t.Time
		}
		if l.segTuples == 0 || t.Time > l.segLast {
			l.segLast = t.Time
		}
		l.segTuples++
	}
	l.written.Add(int64(len(batch)))
	if l.segBytes >= l.opts.SegmentBytes ||
		l.segLast-l.segFirst >= l.opts.SegmentSpan.Milliseconds() {
		return l.seal() //gscope:allow hotpath segment rotation is once per SegmentBytes of traffic
	}
	return nil
}

// openSegment starts the next segment file.
func (l *Log) openSegment() error {
	l.seq++
	path := filepath.Join(l.dir, segName(l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("reclog: %w", err)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segBytes = 0
	l.segFirst, l.segLast, l.segTuples = 0, 0, 0
	header := "# %s %d seq=%d\n"
	args := []any{logMagic, formatVersion, l.seq}
	if l.opts.WireVersion == 3 {
		// Each binary segment restarts the dictionary: segments must stay
		// independently readable after their predecessors are retired.
		if l.benc == nil {
			l.benc = tuple.NewBinaryEncoder()
		} else {
			l.benc.Reset()
		}
		header = "# %s %d seq=%d wire=3\n"
	}
	n, err := fmt.Fprintf(l.w, header, args...)
	l.segBytes += int64(n)
	return err
}

// seal finishes the active segment: footer, flush, close, index entry,
// retention. A log with no active segment seals to a no-op.
func (l *Log) seal() error {
	if l.w == nil {
		return nil
	}
	n, err := fmt.Fprintf(l.w, "# seal tuples=%d first=%d last=%d\n",
		l.segTuples, l.segFirst, l.segLast)
	l.segBytes += int64(n)
	if err == nil {
		err = l.w.Flush()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("reclog: seal %s: %w", segName(l.seq), err)
	}
	l.sealed = append(l.sealed, SegmentInfo{
		Seq:    l.seq,
		First:  l.segFirst,
		Last:   l.segLast,
		Bytes:  l.segBytes,
		Tuples: l.segTuples,
	})
	l.f, l.w = nil, nil
	if err := l.retire(); err != nil {
		return err
	}
	return writeIndex(l.dir, l.sealed)
}

// retire deletes the oldest sealed segments until the session fits the
// retention budget. The newest sealed segment is always kept, so retention
// can never empty a session.
func (l *Log) retire() error {
	total := int64(0)
	for _, s := range l.sealed {
		total += s.Bytes
	}
	for len(l.sealed) > 1 && total > l.opts.TotalBytes {
		old := l.sealed[0]
		if err := os.Remove(filepath.Join(l.dir, segName(old.Seq))); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("reclog: retire: %w", err)
		}
		total -= old.Bytes
		l.sealed = append(l.sealed[:0], l.sealed[1:]...)
		l.retired.Add(1)
	}
	return nil
}

// writeIndex atomically rewrites the session index from the sealed-segment
// list, recomputing the concatenated byte offsets.
func writeIndex(dir string, segs []SegmentInfo) error {
	tmp := filepath.Join(dir, indexName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("reclog: index: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s %d\n", indexMagic, formatVersion)
	off := int64(0)
	for _, s := range segs {
		fmt.Fprintf(w, "%d %d %d %d %d %d\n", s.Seq, s.First, s.Last, off, s.Bytes, s.Tuples)
		off += s.Bytes
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, indexName))
	}
	if err != nil {
		return fmt.Errorf("reclog: index: %w", err)
	}
	return nil
}

// scanDir builds the segment list for dir, trusting index entries whose
// size matches the file on disk and scanning everything else. Offsets are
// recomputed over the surviving set, oldest first.
func scanDir(dir string) ([]SegmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reclog: %w", err)
	}
	indexed := readIndex(dir)
	var segs []SegmentInfo
	for _, e := range entries {
		seq, ok := segSeq(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("reclog: %w", err)
		}
		if s, ok := indexed[seq]; ok && s.Bytes == fi.Size() {
			segs = append(segs, s)
			continue
		}
		s, err := scanSegment(filepath.Join(dir, e.Name()), seq, fi.Size())
		if err != nil {
			return nil, err
		}
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	off := int64(0)
	for i := range segs {
		segs[i].Offset = off
		off += segs[i].Bytes
	}
	return segs, nil
}

// readIndex parses the index file into a by-sequence map; a missing or
// corrupt index yields an empty map and the segments are scanned instead.
func readIndex(dir string) map[int64]SegmentInfo {
	out := make(map[int64]SegmentInfo)
	f, err := os.Open(filepath.Join(dir, indexName))
	if err != nil {
		return out
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if tuple.IsComment(line) {
			continue
		}
		var s SegmentInfo
		if _, err := fmt.Sscanf(line, "%d %d %d %d %d %d",
			&s.Seq, &s.First, &s.Last, &s.Offset, &s.Bytes, &s.Tuples); err != nil {
			continue
		}
		out[s.Seq] = s
	}
	return out
}

// scanSegment derives an index entry by reading a segment file — the
// fallback for active or crash-orphaned segments the index does not cover.
func scanSegment(path string, seq, size int64) (SegmentInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return SegmentInfo{}, fmt.Errorf("reclog: %w", err)
	}
	defer f.Close()
	s := SegmentInfo{Seq: seq, Bytes: size}
	// The mixed-stream reader handles both segment encodings — §3.3 text
	// lines and v3 binary frames (docs/WIRE.md) — with no mode switch.
	r := tuple.NewStreamReader(f)
	for {
		t, err := r.Read()
		if err == io.EOF || errors.Is(err, tuple.ErrBadLine) || errors.Is(err, tuple.ErrBadFrame) {
			break // end of segment, or a torn tail from a crash: index what parsed
		}
		if err != nil {
			return SegmentInfo{}, fmt.Errorf("reclog: scan %s: %w", path, err)
		}
		if s.Tuples == 0 || t.Time < s.First {
			s.First = t.Time
		}
		if s.Tuples == 0 || t.Time > s.Last {
			s.Last = t.Time
		}
		s.Tuples++
	}
	return s, nil
}
