package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	gscope "repro"
)

// pubSpec describes one publisher of a workload.
type pubSpec struct {
	udp  bool // gscope.DialNetUDP instead of a TCP stream
	wire int  // TCP: 3 publishes v3 binary frames, 0 text
}

// Marker timing slots, indexed by sequence number modulo ringSize: far
// more than the markers a closed loop's window or an open loop's latency
// keeps in flight.
const (
	ringSize = 1 << 14
	ringMask = ringSize - 1
)

// stamp is one marker's timing slot: when its latency clock starts (the
// due time in an open loop, the record call in a closed one), its record
// call's start and end, and when the hub's loop saw it (traced runs).
type stamp struct{ due, start, end, hub atomic.Int64 }

// publisher is one instrumented program: a gscope.Registry over a netscope
// client, one probe per signal.
type publisher struct {
	id     int
	spec   pubSpec
	client *gscope.NetClient
	probes [stride]*gscope.Probe

	kick   chan struct{} // a viewer verified one of this publisher's markers
	stamps [ringSize]stamp

	// Emitter state, owned by whichever goroutine is emitting; phases hand
	// it over through goroutine start and WaitGroup waits.
	next    int64 // next round or tick
	corrupt int64 // unit whose first sample is sent bit-flipped; -1 for none
	round   [dataSigs][perRound]gscope.Sample
	mark    [1]gscope.Sample
	calls   hist    // time inside each RecordAt/RecordBatch call, measured units
	lag     hist    // open loop: record start minus due time, measured units
	occSum  float64 // closed loop: window occupancy summed over measured rounds
	occN    int64

	recorded atomic.Int64 // tuples handed to the probes
	callNS   atomic.Int64 // time inside RecordAt/RecordBatch
	emitted  atomic.Int64 // closed loop: rounds recorded, a copy of next
	parked   atomic.Bool  // closed loop: waiting out a pause
}

func newPublisher(id int, spec pubSpec) *publisher {
	return &publisher{id: id, spec: spec, kick: make(chan struct{}, 1), corrupt: -1}
}

// dial connects the publisher's client and registers its probes.
func (s *system) dial(p *publisher) error {
	var (
		c   *gscope.NetClient
		err error
	)
	if p.spec.udp {
		c, err = gscope.DialNetUDP(s.udpAddr)
	} else {
		c, err = gscope.DialNet(s.pubAddr)
	}
	if err != nil {
		return err
	}
	p.client = c
	if p.spec.wire == 3 && !p.spec.udp {
		if err := c.SetWireVersion(3); err != nil {
			return err
		}
	}
	reg := gscope.NewRegistry(gscope.WithNetClient(c))
	for sig := range p.probes {
		if p.probes[sig], err = reg.Probe(s.g.Name(p.id, sig)); err != nil {
			return fmt.Errorf("publisher %d: %w", p.id, err)
		}
	}
	return nil
}

// startPublishers runs every publisher's emitter on its own goroutine
// until stop reports true for its next unit; wait returns once all have
// returned.
func (s *system) startPublishers(stop func(unit int64) bool) (wait func()) {
	var wg sync.WaitGroup
	for _, p := range s.pubs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.g.open {
				s.emitOpen(p, stop)
			} else {
				s.emitClosed(p, stop)
			}
		}()
	}
	return wg.Wait
}

// kickAll wakes every emitter blocked on its window.
func (s *system) kickAll() {
	for _, p := range s.pubs {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
}

// minVerified is the last marker of publisher p that every viewer has
// verified.
func (s *system) minVerified(p int) int64 {
	m := int64(math.MaxInt64)
	for _, v := range s.viewers {
		m = min(m, v.verified[p].Load())
	}
	return m
}

// emitClosed is the closed-loop generator: round r starts only once every
// viewer has verified marker r-windowD, and records each signal's run with
// one RecordBatch call, then the marker with another. While the system is
// paused it starts no round.
func (s *system) emitClosed(p *publisher, stop func(int64) bool) {
	const unitTuples = dataSigs*perRound + 1
	for r := p.next; !stop(r); r++ {
		for s.paused.Load() {
			p.parked.Store(true)
			<-p.kick
			p.parked.Store(false)
			if stop(r) {
				return
			}
		}
		minV := s.minVerified(p.id)
		measuring := s.seg.Load() >= 0
		if measuring {
			p.occSum += float64(min(r-minV-1, windowD)) / windowD
			p.occN++
		}
		for r > minV+windowD {
			<-p.kick
			if stop(r) {
				return
			}
			minV = s.minVerified(p.id)
		}
		s.g.Round(p.id, r, &p.round)
		if r == p.corrupt {
			p.round[0][0].Value = flipLowBit(p.round[0][0].Value)
		}
		var spent int64
		for sig := range p.round {
			t0 := now()
			p.probes[sig].RecordBatch(p.round[sig][:])
			d := now() - t0
			spent += d
			if measuring {
				p.calls.add(d)
			}
		}
		st := &p.stamps[r&ringMask]
		p.mark[0] = gscope.Sample{At: time.Duration(s.g.Stamp(true, r)) * time.Millisecond, Value: float64(r)}
		t0 := now()
		st.due.Store(t0)
		st.start.Store(t0)
		p.probes[dataSigs].RecordBatch(p.mark[:])
		t1 := now()
		st.end.Store(t1)
		spent += t1 - t0
		if measuring {
			p.calls.add(t1 - t0)
		}
		p.callNS.Add(spent)
		p.recorded.Add(unitTuples)
		p.next = r + 1
		p.emitted.Store(r + 1)
	}
}

// emitOpen is the open-loop generator: tick t is due t-first ms after the
// phase starts, whatever the system does, and records one RecordAt per
// signal. Its lateness against the schedule is recorded, and latency is
// timed from the due time, so a stall counts against every tick it delays.
func (s *system) emitOpen(p *publisher, stop func(int64) bool) {
	base, first := now(), p.next
	for t := p.next; !stop(t); t++ {
		due := base + (t-first)*int64(time.Millisecond)
		if d := due - now(); d > 0 {
			sleepPrecise(d)
		}
		measuring := s.seg.Load() >= 0
		at := time.Duration(t) * time.Millisecond
		start := now()
		if measuring {
			p.lag.add(start - due)
		}
		var spent int64
		for sig := 0; sig < dataSigs; sig++ {
			v := s.g.Value(p.id, sig, t)
			if t == p.corrupt && sig == 0 {
				v = flipLowBit(v)
			}
			t0 := now()
			p.probes[sig].RecordAt(at, v)
			d := now() - t0
			spent += d
			if measuring {
				p.calls.add(d)
			}
		}
		st := &p.stamps[t&ringMask]
		st.due.Store(due)
		t0 := now()
		st.start.Store(t0)
		p.probes[dataSigs].RecordAt(at, float64(t))
		t1 := now()
		st.end.Store(t1)
		spent += t1 - t0
		if measuring {
			p.calls.add(t1 - t0)
		}
		p.callNS.Add(spent)
		p.recorded.Add(stride)
		p.next = t + 1
	}
}

// sleepPrecise sleeps d ns in the kernel. The runtime's timers round a
// sub-millisecond sleep up to the next millisecond, which would add up to
// a tick of generator lateness to every open-loop latency.
func sleepPrecise(d int64) {
	ts := syscall.NsecToTimespec(d)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// flipLowBit is the corruption the oracle smoke test injects.
func flipLowBit(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }
