package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	gscope "repro"
)

// workload is one traffic mix. The names are fixed: later changes cite
// them. BENCHMARK.json and README.md give each one's reason.
type workload struct {
	name    string
	open    bool // open loop at 1 kHz per signal; closed loop otherwise
	pubs    []pubSpec
	viewers []viewerSpec
	subs    bool // TCP subscriber listener
	web     bool // web gateway, with the backfill store gscoped -http enables
	udp     bool // datagram publisher listener
	record  bool // flight recorder writing v3 segments
}

var workloads = []*workload{
	{
		name:    "fanout-tcp",
		pubs:    []pubSpec{{wire: 0}, {wire: 3}},
		viewers: []viewerSpec{{name: "tcp-text", lane: laneTCP}, {name: "tcp-v3", lane: laneTCP, wire: 3}},
		subs:    true,
	},
	{
		name:    "web-fanout",
		pubs:    []pubSpec{{wire: 3}},
		viewers: []viewerSpec{{name: "sse", lane: laneSSE}, {name: "ws", lane: laneWS}},
		web:     true,
	},
	{
		name:    "paced-mixed",
		open:    true,
		pubs:    []pubSpec{{wire: 3}, {udp: true}},
		viewers: []viewerSpec{{name: "tcp-v3-lo", lane: laneTCP, wire: 3, filter: true}, {name: "sse", lane: laneSSE}},
		subs:    true,
		web:     true,
		udp:     true,
		record:  true,
	},
}

const (
	// windowD is the closed loop's window: a publisher starts round r only
	// after every viewer has verified its marker r-windowD.
	windowD = 8
	// The warm-up volume verified at every viewer before setup ends.
	warmRounds = 256 // closed loop, per publisher
	warmTicks  = 200 // open loop, 1 ms each
	// waitLimit bounds every wait for the system: connects, handshakes,
	// warm-up, the final drain.
	waitLimit = 20 * time.Second
)

// verdict collects the corruption found anywhere in a run.
type verdict struct {
	mu    sync.Mutex
	n     int64
	first string
}

func (vd *verdict) corruptf(format string, args ...any) {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	if vd.n++; vd.n == 1 {
		vd.first = fmt.Sprintf(format, args...)
	}
}

func (vd *verdict) get() (int64, string) {
	vd.mu.Lock()
	defer vd.mu.Unlock()
	return vd.n, vd.first
}

// system is one assembled pipeline: hub, publishers and stand-in viewers,
// all in this process.
type system struct {
	w  *workload
	g  *Gen
	o  *options
	vd *verdict

	loop     *gscope.Loop
	srv      *gscope.NetServer
	rec      *gscope.RecordLog
	loopDone chan struct{} // nil until the loop runs
	http     *http.Client
	dir      string // flight-recorder session

	pubAddr, udpAddr, subAddr, webAddr string

	pubs        []*publisher
	viewers     []*viewer
	names       map[string]int32 // signal name → global index
	markerNames []string

	seg      atomic.Int32 // measured segment, -1 outside the window
	traced   atomic.Bool
	stopping atomic.Bool
	paused   atomic.Bool // closed loop: publishers start no round
	trace    *tracer
	ref      *refPipe // untraced closed loop: measures the machine between slices
}

// newSystem assembles the pipeline and runs it to the end of setup: from
// NewServer until every publisher is connected, every viewer has finished
// its handshake, and the warm-up volume is verified at every viewer. It
// returns the setup time in seconds. On error the caller still shuts s
// down.
func newSystem(w *workload, g *Gen, o *options, vd *verdict, idx int) (*system, float64, error) {
	s := &system{w: w, g: g, o: o, vd: vd, names: make(map[string]int32),
		http: &http.Client{Transport: &http.Transport{DisableCompression: true}}}
	s.seg.Store(-1)
	for p, spec := range w.pubs {
		s.pubs = append(s.pubs, newPublisher(p, spec))
		for sig := 0; sig < stride; sig++ {
			s.names[g.Name(p, sig)] = int32(p*stride + sig)
		}
		s.markerNames = append(s.markerNames, g.Name(p, dataSigs))
	}
	s.pubs[0].corrupt = o.corrupt
	for i, spec := range w.viewers {
		s.viewers = append(s.viewers, newViewer(s, i, spec))
	}

	start := time.Now()
	s.loop = gscope.NewLoop(gscope.RealClock{})
	s.srv = gscope.NewNetServer(s.loop)
	s.srv.SetParams(gscope.NewParams())
	if err := s.listen(idx); err != nil {
		return s, 0, err
	}
	s.loopDone = make(chan struct{})
	go func() {
		defer close(s.loopDone)
		s.loop.Run() //nolint:errcheck // a RealClock loop only returns nil
	}()

	for _, v := range s.viewers {
		if err := s.connect(v); err != nil {
			return s, 0, fmt.Errorf("viewer %s: %w", v.spec.name, err)
		}
	}
	for _, v := range s.viewers {
		select {
		case <-v.ready:
		case <-v.done:
			return s, 0, fmt.Errorf("viewer %s: stream ended before its snapshot", v.spec.name)
		case <-time.After(waitLimit):
			return s, 0, fmt.Errorf("viewer %s: no snapshot within %v", v.spec.name, waitLimit)
		}
	}
	var tcp int64
	for _, p := range s.pubs {
		if err := s.dial(p); err != nil {
			return s, 0, err
		}
		if !p.spec.udp {
			tcp++
		}
	}
	connected := func() bool {
		var n int64
		ok := s.onLoop(func() { n, _, _, _ = s.srv.Stats() })
		return ok && n >= tcp
	}
	if err := s.waitFor("publisher connects", connected); err != nil {
		return s, 0, err
	}
	warm := int64(warmRounds)
	if g.open {
		warm = warmTicks
	}
	if err := s.emitUntil(func(u int64) bool { return u >= warm }); err != nil {
		return s, 0, err
	}
	if err := s.waitFor("warm-up verified at every viewer", s.caughtUp); err != nil {
		return s, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}

// listen binds every listener the workload uses, in gscoped's order.
func (s *system) listen(idx int) error {
	if s.w.record {
		s.dir = filepath.Join(s.o.out, fmt.Sprintf("rec-%s-%d-%d", s.w.name, os.Getpid(), idx))
		if err := os.RemoveAll(s.dir); err != nil {
			return err
		}
		rec, err := s.srv.Record(s.dir, gscope.RecordOptions{WireVersion: 3})
		if err != nil {
			return err
		}
		s.rec = rec
	}
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.pubAddr = addr.String()
	if s.w.udp {
		if addr, err = s.srv.ListenPublishersUDP("127.0.0.1:0"); err != nil {
			return err
		}
		s.udpAddr = addr.String()
	}
	if s.w.subs {
		if addr, err = s.srv.ListenSubscribers("127.0.0.1:0"); err != nil {
			return err
		}
		s.subAddr = addr.String()
	}
	if s.w.web {
		s.srv.SetBackfillRetention(0)
		if addr, err = s.srv.ListenWeb("127.0.0.1:0", gscope.NewWebGateway(s.srv, gscope.WebOptions{})); err != nil {
			return err
		}
		s.webAddr = addr.String()
	}
	return nil
}

// connect opens v's subscription on its lane.
func (s *system) connect(v *viewer) error {
	switch v.spec.lane {
	case laneSSE:
		return s.openSSE(v)
	case laneWS:
		return s.openWS(v)
	}
	conn, err := net.DialTimeout("tcp", s.subAddr, 5*time.Second)
	if err != nil {
		return err
	}
	req := "gscope-sub 2"
	if v.spec.filter {
		req += " signals=" + filterPatterns
	}
	if v.spec.wire == 3 {
		req += " wire=3"
	}
	if _, err := conn.Write([]byte(req + "\n")); err != nil {
		conn.Close()
		return err
	}
	v.close = func() {
		conn.Close()
		<-v.done
	}
	go v.readTCP(conn)
	return nil
}

func (v *viewer) readTCP(conn net.Conn) {
	defer close(v.done)
	d := newStreamDecoder(v)
	buf := make([]byte, 64<<10)
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			tRead := now()
			v.bytes.Add(int64(n))
			if !d.feed(buf[:n], tRead) {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// onLoop runs fn on the hub's loop goroutine, which owns all hub state,
// and waits for it; false means the loop did not get to it in time.
func (s *system) onLoop(fn func()) bool {
	done := make(chan struct{})
	s.loop.Invoke(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
		return true
	case <-time.After(waitLimit):
		return false
	}
}

// waitFor polls cond every millisecond until it holds or waitLimit passes.
func (s *system) waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v", what, waitLimit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// emitUntil runs the publishers until stop and waits for them; past
// waitLimit it stops them and reports the stall.
func (s *system) emitUntil(stop func(unit int64) bool) error {
	done := make(chan struct{})
	wait := s.startPublishers(func(u int64) bool { return stop(u) || s.stopping.Load() })
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(waitLimit):
		s.stopping.Store(true)
		s.kickAll()
		<-done
		return fmt.Errorf("publishers stalled: viewers stopped verifying markers")
	}
}

// caughtUp reports whether every viewer has verified every publisher's last
// emitted marker. The emitters must be stopped.
func (s *system) caughtUp() bool {
	for _, v := range s.viewers {
		for p, pub := range s.pubs {
			if v.verified[p].Load() < pub.next-1 {
				return false
			}
		}
	}
	return true
}

// reference pauses the closed loop, waits until every viewer has verified
// every emitted marker, runs the reference pipeline on the otherwise idle
// process, and resumes. It returns the reference's speed factor.
func (s *system) reference() (float64, error) {
	s.paused.Store(true)
	err := s.waitFor("pipeline drained for the reference", func() bool {
		for _, p := range s.pubs {
			if !p.parked.Load() || s.minVerified(p.id) < p.emitted.Load()-1 {
				return false
			}
		}
		return true
	})
	var speed float64
	if err == nil {
		speed, err = s.ref.speed()
	}
	s.paused.Store(false)
	s.kickAll()
	return speed, err
}

func (s *system) sigIndex(name string) int32 {
	if i, ok := s.names[name]; ok {
		return i
	}
	return -1
}

// shutdown stops everything in dependency order: publishers flush and
// close, viewers disconnect, the loop stops, and Server.Close then tears
// down the gateway, the hub and the recorder, sealing the recording.
func (s *system) shutdown() {
	for _, p := range s.pubs {
		if p.client != nil {
			// A failed flush shows as tuples missing at the viewers.
			p.client.Close() //nolint:errcheck
		}
	}
	for _, v := range s.viewers {
		if v.close != nil {
			v.close()
		}
	}
	if s.loopDone != nil {
		s.loop.Quit()
		<-s.loopDone
	}
	if s.srv != nil {
		// A recorder that failed to seal fails the replay check.
		s.srv.Close() //nolint:errcheck
	}
	s.http.CloseIdleConnections()
}

func (s *system) removeRecording() {
	if s.dir != "" {
		os.RemoveAll(s.dir) //nolint:errcheck // scratch space under the output directory
	}
}

// sampler polls gauges every 10 ms while the window runs: process memory
// through runtime/metrics, client queues and recorder lag through their
// public counters, and the hub backlog through Loop.Invoke, since hub
// state is loop-owned.
type sampler struct {
	memPeak, clientQueue, hubBacklog, recLag atomic.Int64
	stop                                     func()
}

func (s *system) startSampler() *sampler {
	sm := &sampler{}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		mem := []metrics.Sample{{Name: rtMemTotal}, {Name: rtMemReleased}}
		tk := time.NewTicker(10 * time.Millisecond)
		defer tk.Stop()
		for {
			metrics.Read(mem)
			storeMax(&sm.memPeak, int64(mem[0].Value.Uint64()-mem[1].Value.Uint64()))
			for _, p := range s.pubs {
				storeMax(&sm.clientQueue, p.recorded.Load()-p.client.Sent())
			}
			if s.rec != nil {
				appended, _, written := s.rec.Stats()
				storeMax(&sm.recLag, appended-written)
			}
			s.loop.Invoke(func() { storeMax(&sm.hubBacklog, int64(s.srv.SubscriberBacklog())) })
			select {
			case <-quit:
				return
			case <-tk.C:
			}
		}
	}()
	sm.stop = func() {
		close(quit)
		wg.Wait()
	}
	return sm
}
