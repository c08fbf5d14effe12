package main

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// lane is how a stand-in viewer reaches the hub.
type lane int

const (
	laneTCP lane = iota // a raw v2 subscriber socket, decoded with tuple.StreamDecoder
	laneSSE             // GET /v1/stream, parsed by the benchmark's own JSON parser
	laneWS              // GET /v1/ws?format=binary, decoded with tuple.StreamDecoder
)

// viewerSpec describes one stand-in viewer of a workload.
type viewerSpec struct {
	name   string
	lane   lane
	wire   int  // TCP lane: 3 negotiates v3 binary frames, 0 keeps text
	filter bool // only the ".lo." half of the data signals, plus the markers
}

// filterPatterns is a filtered viewer's subscription.
const filterPatterns = "bench.p*.lo.*,bench.mark.*"

// obs is one decoded tuple resolved to its global signal index
// (publisher*stride + signal; -1 for a name the generator never made).
type obs struct {
	sig int32
	ms  int64
	val float64
}

// latSample is one marker delivery: when it was decoded and how long it
// took from its latency clock's start.
type latSample struct{ at, ns int64 }

// viewer is one stand-in viewer: a connection reader plus the correctness
// oracle for everything it receives. The oracle state is owned by the
// reader goroutine; what publishers and the sampler read is atomic.
type viewer struct {
	id   int
	spec viewerSpec
	s    *system

	close func() // tears the connection down and waits for the reader

	want    []bool  // per global signal: part of this viewer's subscription
	next    []int64 // per global signal: next expected sample index
	missing int64   // samples skipped over, i.e. lost upstream
	dups    int64   // samples repeated or out of order
	obs     []obs   // per-read scratch

	verified []atomic.Int64 // per publisher: last marker verified, -1 before any
	tuples   atomic.Int64   // tuples verified
	bytes    atomic.Int64   // bytes read off the connection
	decodeNS atomic.Int64   // time spent decoding reads
	decoded  atomic.Int64   // tuples decoded

	ready     chan struct{} // closed once the subscription's snapshot has ended
	readyOnce sync.Once
	done      chan struct{} // closed when the reader goroutine exits

	mu  sync.Mutex
	lat [2][]latSample // marker deliveries per measured segment
}

func newViewer(s *system, id int, spec viewerSpec) *viewer {
	n := len(s.pubs) * stride
	v := &viewer{
		id: id, spec: spec, s: s,
		want:     make([]bool, n),
		next:     make([]int64, n),
		verified: make([]atomic.Int64, len(s.pubs)),
		ready:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	for gi := range v.want {
		sig := gi % stride
		v.want[gi] = !spec.filter || sig == dataSigs || sig < dataSigs/2
	}
	for p := range v.verified {
		v.verified[p].Store(-1)
	}
	return v
}

func (v *viewer) markReady() { v.readyOnce.Do(func() { close(v.ready) }) }

// control handles the hub's '#' frames: the end of the snapshot marks the
// subscription live, and an error frame means the hub refused something.
func (v *viewer) control(line string) {
	switch {
	case strings.HasPrefix(line, "# snapshot-end"):
		v.markReady()
	case strings.HasPrefix(line, "# error"):
		v.s.vd.corruptf("%s: hub error frame %q", v.spec.name, line)
	}
}

// check runs the oracle over one read's decoded tuples.
func (v *viewer) check(batch []obs, tRead, tDec int64) {
	var ok int64
	for _, o := range batch {
		if v.observe(o, tRead, tDec) {
			ok++
		}
	}
	v.tuples.Add(ok)
}

// observe checks one tuple against the generator. It must belong to the
// subscription, sit on its signal's stamp grid, never go backwards, and
// carry exactly the generated value bits. Skipped samples count as
// missing and repeated ones as duplicates; anything else is corruption.
func (v *viewer) observe(o obs, tRead, tDec int64) bool {
	s := v.s
	if o.sig < 0 || int(o.sig) >= len(v.want) || !v.want[o.sig] {
		s.vd.corruptf("%s: delivered signal #%d outside its subscription", v.spec.name, o.sig)
		return false
	}
	p, sig := int(o.sig)/stride, int(o.sig)%stride
	marker := sig == dataSigs
	k, ok := s.g.Index(marker, o.ms)
	if !ok {
		s.vd.corruptf("%s: %s stamped %d ms, off the generator's grid", v.spec.name, s.g.Name(p, sig), o.ms)
		return false
	}
	exp := v.next[o.sig]
	if k < exp {
		v.dups++
		return false
	}
	v.missing += k - exp
	v.next[o.sig] = k + 1
	if want := s.g.Value(p, sig, k); math.Float64bits(o.val) != math.Float64bits(want) {
		s.vd.corruptf("%s: %s sample %d = %v, generator says %v", v.spec.name, s.g.Name(p, sig), k, o.val, want)
		return false
	}
	if marker {
		v.marker(p, k, tRead, tDec)
	}
	return true
}

// marker advances the publisher's window and, inside a measured segment,
// records the delivery's latency (and its hop spans when traced).
func (v *viewer) marker(p int, seq, tRead, tDec int64) {
	pub := v.s.pubs[p]
	v.verified[p].Store(seq)
	select {
	case pub.kick <- struct{}{}:
	default:
	}
	seg := v.s.seg.Load()
	if seg < 0 {
		return
	}
	st := &pub.stamps[seq&ringMask]
	v.mu.Lock()
	v.lat[seg] = append(v.lat[seg], latSample{at: tDec, ns: tDec - st.due.Load()})
	v.mu.Unlock()
	if v.s.traced.Load() {
		v.s.trace.delivery(v, p, seq, st, tRead, tDec)
	}
}

// settle adds every published sample the viewer never received to missing
// and returns how many it should have received. The reader must have
// exited.
func (v *viewer) settle() (expected int64) {
	for gi, want := range v.want {
		if !want {
			continue
		}
		n := v.s.g.Samples(gi%stride, v.s.pubs[gi/stride].next)
		expected += n
		v.missing += max(n-v.next[gi], 0)
	}
	return expected
}

// progress is the position in the published stream the viewer has
// verified through: every tuple up to its last verified marker of each
// publisher, delivered or filtered out.
func (v *viewer) progress() int64 {
	var n int64
	for p := range v.verified {
		n += (v.verified[p].Load() + 1) * v.s.g.UnitTuples()
	}
	return n
}

// streamDecoder is the TCP and WebSocket-binary decode path: each read
// goes through tuple.StreamDecoder, text lines through tuple.Parse, and
// that decode is the viewer's timed layer call.
type streamDecoder struct {
	v        *viewer
	dec      *tuple.StreamDecoder
	batch    []tuple.Tuple
	onLine   func(string)
	onBatch  func([]tuple.Tuple)
	lastName string
	lastSig  int32
}

func newStreamDecoder(v *viewer) *streamDecoder {
	d := &streamDecoder{v: v, dec: tuple.NewStreamDecoder(), batch: make([]tuple.Tuple, 0, 4096), lastSig: -1}
	d.onLine = func(line string) {
		if tuple.IsComment(line) {
			v.control(line)
			return
		}
		t, err := tuple.Parse(line)
		if err != nil {
			v.s.vd.corruptf("%s: undecodable line %q: %v", v.spec.name, line, err)
			return
		}
		d.batch = append(d.batch, t)
	}
	d.onBatch = func(ts []tuple.Tuple) { d.batch = append(d.batch, ts...) }
	return d
}

// feed decodes one read, times the decode, and runs the oracle over it. It
// reports false once the stream is undecodable.
func (d *streamDecoder) feed(chunk []byte, tRead int64) bool {
	v := d.v
	d.batch = d.batch[:0]
	err := d.dec.Feed(chunk, d.onLine, d.onBatch)
	tDec := now()
	v.decodeNS.Add(tDec - tRead)
	v.decoded.Add(int64(len(d.batch)))
	if err != nil {
		v.s.vd.corruptf("%s: undecodable stream: %v", v.spec.name, err)
		return false
	}
	v.obs = v.obs[:0]
	for i := range d.batch {
		t := &d.batch[i]
		if t.Name != d.lastName {
			d.lastName, d.lastSig = t.Name, v.s.sigIndex(t.Name)
		}
		v.obs = append(v.obs, obs{sig: d.lastSig, ms: t.Time, val: t.Value})
	}
	v.check(v.obs, tRead, tDec)
	return true
}
