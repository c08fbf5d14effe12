package dgram

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/tuple"
)

// Options tune a Receiver. The zero value selects every default.
type Options struct {
	// Hold bounds how long a gap is held open waiting for a missing
	// datagram (reordered or NACK-resent) before it is declared lost
	// and the stream released past it. Default DefaultHold.
	Hold time.Duration
	// NackDelay is how long a sequence must be missing before the first
	// NACK — short enough to recover within Hold, long enough that
	// plain reordering usually self-heals first. Default DefaultNackDelay.
	NackDelay time.Duration
	// NackInterval spaces retries; MaxNacks bounds them (0 = default;
	// negative disables NACKs entirely).
	NackInterval time.Duration
	MaxNacks     int
	// MaxBuffered bounds the jitter buffer per source, in datagrams.
	// Past it the oldest gaps are force-expired. Default DefaultMaxBuffered.
	MaxBuffered int
}

// Receiver defaults.
const (
	DefaultHold        = 200 * time.Millisecond
	DefaultNackDelay   = 20 * time.Millisecond
	DefaultNackItvl    = 40 * time.Millisecond
	DefaultMaxNacks    = 2
	DefaultMaxBuffered = 512
)

// SourceStats are one source's lifetime counters. A source is one
// (remote address, stream ID) pair — one publisher.
type SourceStats struct {
	// Key renders as "addr#stream", stable for the source's lifetime.
	Key string
	// Datagrams counts decodable DATA datagrams accepted (including
	// recovered ones, excluding duplicates/late/stale).
	Datagrams int64
	// Tuples counts tuples released downstream.
	Tuples int64
	// Released counts datagrams released in order.
	Released int64
	// Lost counts datagrams declared lost after Hold expired — the
	// transport's explicit gap accounting.
	Lost int64
	// Reordered counts datagrams that arrived out of order but in time
	// (no NACK had been sent, or none was needed).
	Reordered int64
	// Recovered counts datagrams that arrived after at least one NACK
	// asked for them.
	Recovered int64
	// Late counts datagrams that arrived after their slot was already
	// released or declared lost; they are dropped to keep releases (and
	// per-signal watermarks) monotonic.
	Late int64
	// Duplicates counts re-arrivals of datagrams still in the buffer.
	Duplicates int64
	// StaleEpoch counts datagrams from a superseded epoch of the stream.
	StaleEpoch int64
	// NacksSent counts NACK datagrams emitted toward this source.
	NacksSent int64
}

// Stats aggregates the receiver-wide counters: every SourceStats field
// summed, plus header/chunk-level rejects not attributable to a source.
type Stats struct {
	SourceStats
	// Malformed counts datagrams rejected by the header or chunk
	// decoder. Never sticky — datagrams are independent (WIRE.md §D4).
	Malformed int64
	// Sources is how many (addr, stream) pairs have been heard.
	Sources int
}

// missEntry tracks one open gap.
type missEntry struct {
	since    time.Time // when the gap was first observed
	lastNack time.Time
	nacks    int
	lost     bool // hold expired; the advance loop will count and skip it
}

// source is one publisher's reorder/jitter buffer. All fields are
// guarded by the receiver's mu.
type source struct {
	key    string
	addr   net.Addr
	stream uint64
	epoch  uint64
	next   uint64 // next sequence to release
	// pend maps buffered out-of-order sequences to their decoded,
	// copied batches; missing tracks the open gaps below them.
	pend    map[uint64][]tuple.Tuple
	missing map[uint64]*missEntry
	stats   SourceStats
}

// Receiver ingests DATA datagrams from any number of publishers,
// reorders each source's stream in a bounded jitter buffer, emits NACKs
// for missing sequences, and releases batches strictly in sequence order
// per source through the release callback.
//
// The callback runs on the receiver's read or expiry goroutine with the
// receiver lock held: it must not block, and the batch slice is valid
// only for the duration of the call (netscope copies it onto its loop).
type Receiver struct {
	conn    net.PacketConn
	release func([]tuple.Tuple)
	opt     Options
	// now is the clock, swappable in tests.
	now func() time.Time

	dec *tuple.StreamDecoder
	scratch
	mu sync.Mutex
	//gscope:guardedby mu
	sources map[string]*source
	// order keeps sources in first-heard order for stable stats render.
	//gscope:guardedby mu
	order []*source
	//gscope:guardedby mu
	malformed int64
	//gscope:guardedby mu
	closed bool

	done chan struct{}
	wg   sync.WaitGroup
}

// scratch is the read-goroutine-owned reusable state (the decoder above
// is too: ingest runs only on the read goroutine and the fuzz harness).
type scratch struct {
	batch   []tuple.Tuple // decode accumulation, reused per datagram
	nackBuf []byte
	seqBuf  []uint64
	keyBuf  []byte
}

// Listen binds a UDP listener on addr and starts a receiver on it.
func Listen(addr string, release func([]tuple.Tuple), opt Options) (*Receiver, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dgram: %w", err)
	}
	return NewReceiver(conn, release, opt), nil
}

// withDefaults fills every unset option.
func (o Options) withDefaults() Options {
	if o.Hold <= 0 {
		o.Hold = DefaultHold
	}
	if o.NackDelay <= 0 {
		o.NackDelay = DefaultNackDelay
	}
	if o.NackInterval <= 0 {
		o.NackInterval = DefaultNackItvl
	}
	if o.MaxNacks == 0 {
		o.MaxNacks = DefaultMaxNacks
	}
	if o.MaxBuffered <= 0 {
		o.MaxBuffered = DefaultMaxBuffered
	}
	return o
}

// NewReceiver starts a receiver on conn (taking ownership of it). The
// read loop and the hold-expiry loop run until Close.
func NewReceiver(conn net.PacketConn, release func([]tuple.Tuple), opt Options) *Receiver {
	r := &Receiver{
		conn:    conn,
		release: release,
		opt:     opt.withDefaults(),
		now:     time.Now,
		dec:     tuple.NewStreamDecoder(),
		sources: make(map[string]*source),
		done:    make(chan struct{}),
	}
	r.wg.Add(2)
	go r.readLoop()
	go r.expiryLoop()
	return r
}

// Addr returns the bound listen address.
func (r *Receiver) Addr() net.Addr { return r.conn.LocalAddr() }

func (r *Receiver) readLoop() {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := r.conn.ReadFrom(buf)
		if err != nil {
			select {
			case <-r.done:
				return
			default:
			}
			continue
		}
		r.ingest(buf[:n], from)
	}
}

// ingest handles one datagram. It is the whole receive path in one
// call — the fuzz targets drive it directly with adversarial bytes.
func (r *Receiver) ingest(pkt []byte, from net.Addr) {
	h, err := parseHeader(pkt)
	if err != nil || h.typ != TypeData {
		// NACKs and unknown types addressed to a receiver are noise;
		// count them with the malformed so nothing is silently ignored.
		r.mu.Lock()
		r.malformed++
		r.mu.Unlock()
		return
	}
	// Decode before touching any stream state: a datagram that does not
	// decode must not consume its sequence number slot, so a later
	// intact retransmission can still fill it.
	r.batch = r.batch[:0]
	r.dec.Reset()
	ferr := r.dec.Feed(h.rest, r.onLine, r.onTuples)
	if ferr == nil && r.dec.TornFrame() {
		// A truncated binary frame would be "wait for more" on a stream;
		// a datagram is complete by definition, so a torn tail means the
		// chunk is malformed.
		ferr = errMalformed
	}
	if ferr == nil {
		r.dec.Tail(r.onLine, r.onTuples)
	}
	if ferr != nil {
		r.mu.Lock()
		r.malformed++
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	src := r.lookupSource(from, h.stream)
	switch {
	case h.epoch < src.epoch:
		src.stats.StaleEpoch++
		return
	case h.epoch > src.epoch:
		// The publisher restarted its stream (or this is the source's
		// first datagram: new sources start at epoch 0, below any real
		// epoch). Everything still buffered or missing from the old
		// epoch will never be released in order; account it as lost and
		// restart at sequence 0, where every epoch begins (WIRE.md §D3) —
		// so a reordered first contact still opens recoverable gaps
		// instead of dropping the stream's earliest datagrams as late.
		src.stats.Lost += int64(len(src.pend) + len(src.missing))
		clear(src.pend)
		clear(src.missing)
		src.epoch = h.epoch
		src.next = 0
	}
	r.accept(src, h.seq)
}

// onLine skips comments and bad lines; text tuples arrive in onTuples.
func (r *Receiver) onLine(string) {}

func (r *Receiver) onTuples(ts []tuple.Tuple) { r.batch = append(r.batch, ts...) }

// lookupSource finds or creates the (addr, stream) source. Caller holds mu.
//
//gscope:locked mu
func (r *Receiver) lookupSource(from net.Addr, stream uint64) *source {
	r.keyBuf = append(r.keyBuf[:0], from.String()...)
	r.keyBuf = append(r.keyBuf, '#')
	r.keyBuf = strconv.AppendUint(r.keyBuf, stream, 10)
	if src, ok := r.sources[string(r.keyBuf)]; ok {
		return src
	}
	key := string(r.keyBuf)
	src := &source{
		key:     key,
		addr:    from,
		stream:  stream,
		epoch:   0, // the first datagram's epoch adopts via the > branch
		pend:    make(map[uint64][]tuple.Tuple),
		missing: make(map[uint64]*missEntry),
		stats:   SourceStats{Key: key},
	}
	// Adopt the first heard epoch/seq lazily: epoch 0 is below any real
	// epoch (publishers start at 1), so ingest's epoch-advance branch
	// initializes next on first contact.
	r.sources[key] = src
	r.order = append(r.order, src)
	return src
}

// accept routes one decoded in-epoch datagram through the jitter buffer.
// Caller holds mu.
//
//gscope:locked mu
func (r *Receiver) accept(src *source, seq uint64) {
	if seq < src.next {
		src.stats.Late++
		return
	}
	if seq > src.next {
		if _, dup := src.pend[seq]; dup {
			src.stats.Duplicates++
			return
		}
		if m, ok := src.missing[seq]; ok {
			// A gap we were tracking just filled (its hold may have
			// expired this very tick, but the slot is still open —
			// advance has not passed it — so deliver anyway).
			if m.nacks > 0 {
				src.stats.Recovered++
			} else {
				src.stats.Reordered++
			}
			delete(src.missing, seq)
			src.stats.Datagrams++
			src.pend[seq] = append([]tuple.Tuple(nil), r.batch...)
			r.advance(src)
			return
		}
		// A brand-new jump past the buffered frontier.
		frontier := src.next
		for s := range src.pend {
			if s >= frontier {
				frontier = s + 1
			}
		}
		if seq-frontier < uint64(r.opt.MaxBuffered) {
			src.stats.Reordered++
			for s := frontier; s < seq; s++ {
				src.missing[s] = &missEntry{since: r.now()}
			}
			src.stats.Datagrams++
			src.pend[seq] = append([]tuple.Tuple(nil), r.batch...)
			if len(src.pend) > r.opt.MaxBuffered {
				// Buffer bound: force the oldest gaps closed so memory
				// stays bounded even against a hostile or insane sender.
				for _, m := range src.missing {
					m.lost = true
				}
			}
			r.advance(src)
			return
		}
		// The jump dwarfs the jitter buffer — a rejoin after a long
		// partition, or an adversarial sequence number. Opening one miss
		// entry per skipped seq would let a single datagram allocate
		// without bound, so resync instead: drain what is buffered,
		// charge the whole hole to Lost in one move, and fall through to
		// release this datagram in order.
		for _, m := range src.missing {
			m.lost = true
		}
		r.advance(src)
		src.stats.Lost += int64(seq - src.next)
		src.next = seq
	}
	// In order: release the decode batch directly, no copy. A NACKed gap
	// can fill exactly at the release frontier; retire its miss entry so
	// the sweep stops asking for it.
	if m, ok := src.missing[seq]; ok {
		if m.nacks > 0 {
			src.stats.Recovered++
		} else {
			src.stats.Reordered++
		}
		delete(src.missing, seq)
	}
	src.stats.Datagrams++
	src.stats.Released++
	r.releaseLocked(src, r.batch)
	src.next++
	r.advance(src)
}

// advance releases every in-order batch now available, skipping (and
// counting) gaps already declared lost. Caller holds mu.
//
//gscope:locked mu
func (r *Receiver) advance(src *source) {
	for {
		if b, ok := src.pend[src.next]; ok {
			delete(src.pend, src.next)
			src.stats.Released++ // counted before release: the callback sees consistent stats
			r.releaseLocked(src, b)
			src.next++
			continue
		}
		if m, ok := src.missing[src.next]; ok && m.lost {
			delete(src.missing, src.next)
			src.stats.Lost++
			src.next++
			continue
		}
		return
	}
}

// releaseLocked hands one batch downstream. Caller holds mu.
func (r *Receiver) releaseLocked(src *source, batch []tuple.Tuple) {
	src.stats.Tuples += int64(len(batch))
	if r.release != nil && len(batch) > 0 {
		r.release(batch)
	}
}

// expiryLoop periodically expires overdue gaps and emits NACKs.
func (r *Receiver) expiryLoop() {
	defer r.wg.Done()
	tick := r.opt.NackDelay / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
			r.sweep()
		}
	}
}

// sweep is one expiry/NACK pass over every source.
func (r *Receiver) sweep() {
	now := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	for _, src := range r.order {
		r.seqBuf = r.seqBuf[:0]
		for seq, m := range src.missing {
			if m.lost {
				continue
			}
			if now.Sub(m.since) >= r.opt.Hold {
				m.lost = true
				continue
			}
			if r.opt.MaxNacks < 0 || m.nacks >= r.opt.MaxNacks {
				continue
			}
			due := m.since.Add(r.opt.NackDelay)
			if m.nacks > 0 {
				due = m.lastNack.Add(r.opt.NackInterval)
			}
			if now.Before(due) {
				continue
			}
			m.nacks++
			m.lastNack = now
			r.seqBuf = append(r.seqBuf, seq)
		}
		for i := 0; i < len(r.seqBuf); i += MaxNackSeqs {
			end := i + MaxNackSeqs
			if end > len(r.seqBuf) {
				end = len(r.seqBuf)
			}
			r.nackBuf = appendNack(r.nackBuf[:0], src.stream, src.epoch, r.seqBuf[i:end])
			if _, err := r.conn.WriteTo(r.nackBuf, src.addr); err == nil {
				src.stats.NacksSent++
			}
		}
		r.advance(src)
	}
}

// Stats returns the aggregate counters over every source.
func (r *Receiver) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{Malformed: r.malformed, Sources: len(r.order)}
	for _, src := range r.order {
		st.Datagrams += src.stats.Datagrams
		st.Tuples += src.stats.Tuples
		st.Released += src.stats.Released
		st.Lost += src.stats.Lost
		st.Reordered += src.stats.Reordered
		st.Recovered += src.stats.Recovered
		st.Late += src.stats.Late
		st.Duplicates += src.stats.Duplicates
		st.StaleEpoch += src.stats.StaleEpoch
		st.NacksSent += src.stats.NacksSent
	}
	return st
}

// SourceStats snapshots every source's counters, in first-heard order.
func (r *Receiver) SourceStats() []SourceStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SourceStats, len(r.order))
	for i, src := range r.order {
		out[i] = src.stats
	}
	return out
}

// AppendStats renders the aggregate transport counters, then one
// bracketed group per source, into dst — allocation-free, for status
// lines repainted every frame (cmd/gscoped -ansi).
func (r *Receiver) AppendStats(dst []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	dst = append(dst, "udp src="...)
	dst = strconv.AppendInt(dst, int64(len(r.order)), 10)
	dst = append(dst, " malformed="...)
	dst = strconv.AppendInt(dst, r.malformed, 10)
	for _, src := range r.order {
		dst = append(dst, " ["...)
		dst = append(dst, src.key...)
		dst = append(dst, " recv="...)
		dst = strconv.AppendInt(dst, src.stats.Datagrams, 10)
		dst = append(dst, " lost="...)
		dst = strconv.AppendInt(dst, src.stats.Lost, 10)
		dst = append(dst, " reord="...)
		dst = strconv.AppendInt(dst, src.stats.Reordered, 10)
		dst = append(dst, " rec="...)
		dst = strconv.AppendInt(dst, src.stats.Recovered, 10)
		dst = append(dst, " late="...)
		dst = strconv.AppendInt(dst, src.stats.Late, 10)
		dst = append(dst, ']')
	}
	return dst
}

// Close stops both loops and closes the socket. Buffered out-of-order
// batches are discarded (their sources' Lost counters are not advanced:
// the receiver is gone, there is no stream left to account against).
func (r *Receiver) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
	err := r.conn.Close()
	r.wg.Wait()
	return err
}
