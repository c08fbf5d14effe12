package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	gscope "repro"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // the measured window
	trace    bool    // report per-layer metrics from alternating untraced and traced slices
	setups   int     // setups per run, 7 from the command line; setup_s is their median
	out      string  // recorder sessions, reports and trace dumps go here
	log      io.Writer
	corrupt  int64 // smoke-test hook: unit whose first sample publisher 0 bit-flips; -1 for none
}

// metricDef is one reported metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd is what an untraced run reports: what a user of the pipeline
// sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tput_tps", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"pub_ns_per_tuple", "ns"},
	{"cpu_ns_per_tuple", "ns"},
	{"mem_peak_mb", "MB"},
}

// perLayer is what a traced run reports: one or more counters per layer,
// measured from outside through public calls and counters. README.md maps
// each to the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"client.record_ns_p50", "ns"},
	{"client.record_ns_p99", "ns"},
	{"client.queue_max_tuples", "tuples"},
	{"client.dropped", "tuples"},
	{"dgram.tuples_per_datagram", "tuples"},
	{"dgram.lost", "datagrams"},
	{"dgram.late", "datagrams"},
	{"dgram.reordered", "datagrams"},
	{"dgram.recovered", "datagrams"},
	{"dgram.resent", "datagrams"},
	{"ingest.lat_us_p50", "us"},
	{"ingest.lat_us_p99", "us"},
	{"ingest.parse_errors", "count"},
	{"loop.invoke_wait_us_p50", "us"},
	{"loop.invoke_wait_us_p99", "us"},
	{"hub.lat_us_p50", "us"},
	{"hub.lat_us_p99", "us"},
	{"hub.backlog_chunks_max", "chunks"},
	{"hub.dropped_chunks", "chunks"},
	{"hub.filtered", "tuples"},
	{"hub.bytes_per_tuple.text", "B"},
	{"hub.bytes_per_tuple.v3", "B"},
	{"tuple.decode_ns_per_tuple.text", "ns"},
	{"tuple.decode_ns_per_tuple.v3", "ns"},
	{"web.lat_us_p50.sse", "us"},
	{"web.lat_us_p50.ws", "us"},
	{"web.lat_us_p99.sse", "us"},
	{"web.lat_us_p99.ws", "us"},
	{"web.bytes_per_tuple.sse", "B"},
	{"web.bytes_per_tuple.ws", "B"},
	{"web.dropped", "events"},
	{"reclog.lag_max_tuples", "tuples"},
	{"reclog.dropped", "tuples"},
	{"runtime.alloc_bytes_per_tuple", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_us_p99", "us"},
	{"runtime.sched_lat_us_p99", "us"},
	{"harness.gen_lag_us_p99", "us"},
	{"harness.window_occupancy", "ratio"},
	{"harness.decode_ns_per_tuple.sse", "ns"},
	{"harness.markers", "count"},
	{"harness.trace_overhead_pct", "%"},
	{"fail_ratio", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose guard conditions failed; it is not reported.
var errInvalid = errors.New("run invalid")

// maxGenLag is the open-loop generator lateness (p99) past which a run no
// longer measures the schedule it claims to.
const maxGenLag = 20 * time.Millisecond

// guards are the conditions a run's numbers depend on; every report
// records them.
type guards struct {
	NProc           int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	Publishers      int     `json:"publishers"`
	Viewers         int     `json:"viewers"`
	GenLagP99US     float64 `json:"gen_lag_p99_us"`
	WindowOccupancy float64 `json:"window_occupancy"`
	Drained         bool    `json:"drained"`
	Valid           bool    `json:"valid"`
	Reason          string  `json:"reason,omitempty"`
}

// report is the per-run record written next to the trace output.
type report struct {
	Workload        string             `json:"workload"`
	Seed            uint64             `json:"seed"`
	Seconds         float64            `json:"seconds"`
	Trace           bool               `json:"trace"`
	StreamChecksum  string             `json:"stream_checksum"`
	ChecksumUnits   int64              `json:"stream_checksum_units"`
	Guards          guards             `json:"guards"`
	SetupRuns       []float64          `json:"setup_s_runs"`       // unscaled
	SetupSpeeds     []float64          `json:"setup_speeds"`       // machine speed around each setup
	Speeds          []float64          `json:"window_speeds"`      // machine speed around each untraced slice
	RefGCRetries    int                `json:"ref_gc_retries"`     // speed measurements a GC overlapped, retaken
	RefGCDropped    int                `json:"ref_gc_dropped"`     // speed samples dropped after refTries overlaps
	Raw             map[string]float64 `json:"unscaled,omitempty"` // end-to-end metrics before speed scaling
	LatencySamples  int                `json:"latency_samples"`
	Viewers         []viewerReport     `json:"viewers"`
	Corruptions     int64              `json:"corruptions"`
	FirstCorruption string             `json:"first_corruption,omitempty"`
	Result          *result            `json:"result,omitempty"`
}

type viewerReport struct {
	Name     string `json:"name"`
	Verified int64  `json:"verified"`
	Missing  int64  `json:"missing"`
	Dups     int64  `json:"dups"`
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func seconds(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }

// run sets the workload's system up o.setups times, measures the last
// one, checks every output, and returns the metrics.
func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	g := NewGen(o.seed, len(w.pubs), w.open)
	rep := report{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Guards: guards{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Publishers: len(w.pubs), Viewers: len(w.viewers)}}
	rep.ChecksumUnits = warmRounds
	if w.open {
		rep.ChecksumUnits = warmTicks
	}
	rep.StreamChecksum = fmt.Sprintf("%016x", g.Checksum(rep.ChecksumUnits))
	gd := &rep.Guards
	if gd.Publishers > gd.NProc || gd.Viewers > gd.NProc || gd.GOMAXPROCS > gd.NProc {
		return nil, fmt.Errorf("%w: %d publisher and %d viewer connections, GOMAXPROCS %d, exceed nproc %d",
			errInvalid, gd.Publishers, gd.Viewers, gd.GOMAXPROCS, gd.NProc)
	}

	// An untraced closed loop's timed metrics are scaled to the machine's
	// speed, which the reference pipeline measures around each setup and
	// between the window's slices. The open loop runs far below saturation:
	// its times follow wake-ups, not the speed the reference measures, so
	// it is not scaled.
	var ref *refPipe
	speed := 1.0
	if !w.open && !o.trace {
		if ref, err = newRefPipe(); err != nil {
			return nil, err
		}
		defer ref.close()
		if speed, err = ref.speed(); err != nil {
			return nil, err
		}
	}
	vd := &verdict{}
	var s *system
	for i := 0; i < o.setups; i++ {
		sys, secs, err := newSystem(w, g, &o, vd, i)
		if err != nil {
			sys.shutdown()
			sys.removeRecording()
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		before := speed
		if ref != nil {
			if speed, err = ref.speed(); err != nil {
				sys.shutdown()
				sys.removeRecording()
				return nil, err
			}
		}
		rep.SetupRuns = append(rep.SetupRuns, secs)
		rep.SetupSpeeds = append(rep.SetupSpeeds, (before+speed)/2)
		if i < o.setups-1 {
			sys.shutdown()
			sys.removeRecording()
			continue
		}
		s = sys
	}
	defer s.removeRecording()
	// The heap the earlier setups freed would count in the window's memory
	// peak until the scavenger got round to returning it.
	debug.FreeOSMemory()
	s.ref = ref
	if o.trace {
		s.trace = newTracer()
	}
	win, sm, err := s.measure(seconds(o.seconds), o.trace, speed)
	if err != nil {
		s.shutdown()
		return nil, err
	}
	c, err := s.finish()
	if err != nil {
		return nil, err
	}
	for _, sl := range win.segs[0].slices {
		rep.Speeds = append(rep.Speeds, sl.speed)
	}
	if ref != nil {
		rep.RefGCRetries, rep.RefGCDropped = ref.gcRetries, ref.gcDropped
	}

	var lag hist
	var occSum float64
	var occN int64
	for _, p := range s.pubs {
		lag.merge(&p.lag)
		occSum += p.occSum
		occN += p.occN
	}
	gd.GenLagP99US = lag.quantile(0.99) / 1e3
	gd.WindowOccupancy = ratio(occSum, float64(occN))
	gd.Drained = c.drained
	gd.Valid = time.Duration(lag.quantile(0.99)) <= maxGenLag
	if !gd.Valid {
		gd.Reason = fmt.Sprintf("generator fell behind its schedule: lateness p99 %.1f ms > %v", gd.GenLagP99US/1e3, maxGenLag)
	}
	rep.LatencySamples = len(win.segs[0].lat)
	for _, v := range s.viewers {
		rep.Viewers = append(rep.Viewers, viewerReport{v.spec.name, v.tuples.Load(), v.missing, v.dups})
	}
	rep.Corruptions, rep.FirstCorruption = vd.get()

	vals := s.metrics(win, sm, c, rep.SetupRuns, rep.SetupSpeeds, lag)
	if s.ref != nil {
		rep.Raw = endToEndMetrics(&win.segs[0], rep.SetupRuns, rep.SetupSpeeds, false)
	}
	res := &result{Correct: rep.Corruptions == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metric{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	if gd.Valid {
		rep.Result = res
	}
	if err := s.writeReport(&rep, win, vals); err != nil {
		return nil, err
	}
	if !gd.Valid {
		return nil, fmt.Errorf("%w: %s", errInvalid, gd.Reason)
	}
	return res, nil
}

// writeReport writes the run's report (and, for a traced run, its hop
// tables and span dump) under the output directory, and a summary to the
// log.
func (s *system) writeReport(rep *report, win *window, vals map[string]float64) error {
	base := filepath.Join(s.o.out, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, rep.Seed, btoi(rep.Trace)))
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	gd := rep.Guards
	fmt.Fprintf(s.o.log, "e2ebench: workload=%s seed=%d seconds=%g trace=%v stream_checksum=%s setup_s=%.4f latency_samples=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.StreamChecksum, median(rep.SetupRuns), rep.LatencySamples)
	fmt.Fprintf(s.o.log, "e2ebench: guards nproc=%d gomaxprocs=%d publishers=%d viewers=%d gen_lag_p99_us=%.1f window_occupancy=%.3f drained=%v valid=%v\n",
		gd.NProc, gd.GOMAXPROCS, gd.Publishers, gd.Viewers, gd.GenLagP99US, gd.WindowOccupancy, gd.Drained, gd.Valid)
	for _, v := range rep.Viewers {
		fmt.Fprintf(s.o.log, "e2ebench: viewer %s verified=%d missing=%d dups=%d\n", v.Name, v.Verified, v.Missing, v.Dups)
	}
	if rep.Corruptions > 0 {
		fmt.Fprintf(s.o.log, "e2ebench: %d corrupt outputs; first: %s\n", rep.Corruptions, rep.FirstCorruption)
	}
	if s.trace == nil {
		return nil
	}
	var tables strings.Builder
	untracedP50 := quantile(sortedLatencies(win.segs[0].lat), 0.5) / 1e3
	tracedP50 := quantile(sortedLatencies(win.segs[1].lat), 0.5) / 1e3
	s.trace.writeHopTables(&tables, s, untracedP50, tracedP50, vals["harness.trace_overhead_pct"])
	io.WriteString(s.o.log, tables.String()) //nolint:errcheck // diagnostics
	if err := os.WriteFile(base+".hops.txt", []byte(tables.String()), 0o644); err != nil {
		return err
	}
	return s.trace.dumpSpans(base+".spans.csv", s)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// snap is every cumulative counter at one instant of the window.
type snap struct {
	at, cpu, callNS, recorded int64
	rt                        rtSnap
	v                         []viewerSnap
}

type viewerSnap struct{ progress, tuples, bytes, decodeNS, decoded int64 }

func (s *system) snap() snap {
	sn := snap{at: now(), cpu: cpuTime(), rt: readRuntime()}
	for _, p := range s.pubs {
		sn.callNS += p.callNS.Load()
		sn.recorded += p.recorded.Load()
	}
	for _, v := range s.viewers {
		sn.v = append(sn.v, viewerSnap{v.progress(), v.tuples.Load(), v.bytes.Load(), v.decodeNS.Load(), v.decoded.Load()})
	}
	return sn
}

// window is the measured stretch of a run: the counters at its ends and
// its slices, split into segments.
type window struct {
	first, last snap
	segs        [2]segment // untraced slices; the traced ones in a traced run
}

// segment is the window's slices of one kind, and the marker deliveries
// decoded in them, pooled over viewers.
type segment struct {
	slices []slice
	lat    []latSample
}

// slice is one stretch of the window, about a second long, with every
// counter snapshotted at its ends.
type slice struct {
	a, b  snap
	peak  int64     // memory peak
	speed float64   // the machine's speed around the slice; 1 where unmeasured
	wins  [][]int64 // marker latencies decoded in each latWindow of the slice, sorted
}

// latWindow is the stretch whose marker latencies give one value of a
// latency quantile; the end-to-end figure is the median over the windows.
// A host stall of a few milliseconds, which a shared machine has every few
// seconds, makes the p99 of the window it falls in; with ten windows a
// second, the median ignores it where the median over whole seconds would
// not.
const latWindow = int64(100 * time.Millisecond)

// groupLatencies sorts the latencies decoded in sl into its windows; a
// remainder shorter than latWindow joins the last one.
func (sl *slice) groupLatencies(lat []latSample) {
	sl.wins = make([][]int64, max((sl.b.at-sl.a.at)/latWindow, 1))
	for _, l := range lat {
		if l.at >= sl.a.at && l.at < sl.b.at {
			k := min((l.at-sl.a.at)/latWindow, int64(len(sl.wins)-1))
			sl.wins[k] = append(sl.wins[k], l.ns)
		}
	}
	for _, w := range sl.wins {
		sortInt64(w)
	}
}

// cpuPerDelivery is the CPU per tuple delivery pooled over g's slices.
func (g *segment) cpuPerDelivery() float64 {
	var cpu, n int64
	for i := range g.slices {
		sl := &g.slices[i]
		cpu += sl.b.cpu - sl.a.cpu
		n += deliveriesBetween(&sl.a, &sl.b)
	}
	return ratio(float64(cpu), float64(n))
}

func secsBetween(a, b *snap) float64 { return float64(b.at-a.at) / 1e9 }

// progressBetween is how far the slowest viewer got through the published
// stream.
func progressBetween(a, b *snap) int64 {
	p := int64(-1)
	for i := range a.v {
		if d := b.v[i].progress - a.v[i].progress; p < 0 || d < p {
			p = d
		}
	}
	return p
}

// deliveriesBetween counts tuples verified at any viewer.
func deliveriesBetween(a, b *snap) (n int64) {
	for i := range a.v {
		n += b.v[i].tuples - a.v[i].tuples
	}
	return n
}

func cpuPerDelivery(a, b *snap) float64 {
	return ratio(float64(b.cpu-a.cpu), float64(deliveriesBetween(a, b)))
}

func sortedLatencies(lat []latSample) []int64 {
	ns := make([]int64, len(lat))
	for i, l := range lat {
		ns[i] = l.ns
	}
	sortInt64(ns)
	return ns
}

// overSlices evaluates f on the slices of at least half a second (the
// segment's only slice when it is shorter) in which the machine ran at
// least at its median speed, and returns the median. Each end-to-end
// metric is such a median: one stall moves one slice, not the figure, and
// the stretches where another tenant slows the machine most are left out.
// Where speed is not measured, every slice counts.
func (g *segment) overSlices(f func(sl *slice) float64) float64 {
	var vals []float64
	for _, sl := range g.counted() {
		vals = append(vals, f(sl))
	}
	return median(vals)
}

// overWindows is overSlices for latency: it evaluates f on each latency
// window of the counted slices that decoded a marker, and returns the
// median.
func (g *segment) overWindows(f func(sl *slice, lat []int64) float64) float64 {
	var vals []float64
	for _, sl := range g.counted() {
		for _, w := range sl.wins {
			if len(w) > 0 {
				vals = append(vals, f(sl, w))
			}
		}
	}
	return median(vals)
}

// counted returns the slices the end-to-end medians are taken over.
func (g *segment) counted() []*slice {
	var kept []*slice
	var speeds []float64
	for i := range g.slices {
		if sl := &g.slices[i]; sl.b.at-sl.a.at >= int64(time.Second)/2 || len(g.slices) == 1 {
			kept = append(kept, sl)
			speeds = append(speeds, sl.speed)
		}
	}
	cut := median(speeds)
	var counted []*slice
	for _, sl := range kept {
		if sl.speed >= cut {
			counted = append(counted, sl)
		}
	}
	return counted
}

// measure runs the publishers for d in slices of a second and snapshots
// every counter at each slice's ends, with the sampler running
// throughout. A traced run alternates untraced and traced slices (half a
// window each when d is under two seconds), so the machine's drift falls
// on both alike. With a reference pipeline, measure pauses the system
// after every slice to measure the machine's speed; a slice's speed is the
// mean of the measurements on either side of it, the first taken just
// before.
func (s *system) measure(d time.Duration, traced bool, speed float64) (*window, *sampler, error) {
	sliceLen := time.Second
	if traced {
		sliceLen = min(sliceLen, d/2)
	}
	sm := s.startSampler()
	wait := s.startPublishers(func(int64) bool { return s.stopping.Load() })
	var probeStop chan struct{}
	var probes sync.WaitGroup
	if traced {
		probeStop = make(chan struct{})
		probes.Add(1)
		go s.invokeProbe(probeStop, &probes)
	}
	var err error
	w := &window{first: s.snap()}
	a := w.first
	for i, end := 0, time.Now().Add(d); err == nil && time.Until(end) > 0; i++ {
		seg := 0
		if traced {
			seg = i % 2
			s.setTraced(seg == 1)
			a = s.snap()
		}
		s.seg.Store(int32(seg))
		time.Sleep(min(sliceLen, time.Until(end)))
		sl := slice{a: a, b: s.snap(), peak: sm.memPeak.Swap(0), speed: speed}
		w.last = sl.b
		if s.ref != nil {
			before := speed
			speed, err = s.reference()
			sl.speed = (before + speed) / 2
			sm.memPeak.Store(0)
			a = s.snap()
		} else {
			a = sl.b
		}
		w.segs[seg].slices = append(w.segs[seg].slices, sl)
	}
	s.seg.Store(-1)
	if traced {
		s.setTraced(false)
		close(probeStop)
		probes.Wait()
	}
	s.stopping.Store(true)
	s.kickAll()
	wait()
	sm.stop()
	for _, v := range s.viewers {
		v.mu.Lock()
		for i := range w.segs {
			w.segs[i].lat = append(w.segs[i].lat, v.lat[i]...)
		}
		v.mu.Unlock()
	}
	for i := range w.segs {
		g := &w.segs[i]
		for j := range g.slices {
			g.slices[j].groupLatencies(g.lat)
		}
	}
	return w, sm, err
}

// closing is the end-of-run accounting.
type closing struct {
	attempted, failed int64
	drained           bool
	fan               gscope.FanoutStats
	parseErrors       int64
	clientDropped     int64
	recDropped        int64

	udpAssigned, udpTuples, udpResent                         int64
	udpReleased, udpLost, udpLate, udpReordered, udpRecovered int64
}

// finish drains the pipeline, reads the final counters, shuts the system
// down, and settles the books: every viewer's expected deliveries and
// misses, the UDP lane's released+lost==assigned, and the flight
// recording replayed against the generator.
func (s *system) finish() (closing, error) {
	var c closing
	c.drained = s.waitFor("final markers verified", s.caughtUp) == nil
	for _, p := range s.pubs {
		c.clientDropped += p.client.Dropped()
		if st, ok := p.client.UDPStats(); ok {
			c.udpAssigned += st.Datagrams
			c.udpTuples += st.Tuples
			c.udpResent += st.Resent
		}
	}
	udp := func() {
		c.udpReleased, c.udpLost, c.udpLate, c.udpReordered, c.udpRecovered = 0, 0, 0, 0, 0
		for _, ss := range s.srv.UDPSourceStats() {
			c.udpReleased += ss.Released
			c.udpLost += ss.Lost
			c.udpLate += ss.Late
			c.udpReordered += ss.Reordered
			c.udpRecovered += ss.Recovered
		}
	}
	if s.w.udp {
		// A datagram still in the jitter buffer settles within its hold.
		s.waitFor("UDP accounting", func() bool { //nolint:errcheck // checked below
			return s.onLoop(udp) && c.udpReleased+c.udpLost == c.udpAssigned
		})
	}
	s.onLoop(func() {
		_, _, _, c.parseErrors = s.srv.Stats()
		c.fan = s.srv.FanoutStats()
		udp()
	})
	if s.w.udp && c.udpReleased+c.udpLost != c.udpAssigned {
		s.vd.corruptf("udp accounting: released %d + lost %d != assigned %d", c.udpReleased, c.udpLost, c.udpAssigned)
	}
	s.shutdown()
	for _, v := range s.viewers {
		c.attempted += v.settle()
		c.failed += v.missing + v.dups
	}
	if s.rec != nil {
		_, c.recDropped, _ = s.rec.Stats()
		expected, failed, err := s.replayCheck()
		if err != nil {
			return c, err
		}
		c.attempted += expected
		c.failed += failed
	}
	return c, nil
}

// replayCheck replays the flight recording through the oracle: every tuple
// the hub ingested must come back, in order and bit-exact.
func (s *system) replayCheck() (expected, failed int64, err error) {
	sess, err := gscope.OpenSession(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("opening the flight recording: %w", err)
	}
	rep := gscope.NewReplayer(sess)
	rep.SetSpeed(0)
	rv := newViewer(s, -1, viewerSpec{name: "reclog-replay"})
	err = rep.Run(func(batch []gscope.Tuple) error {
		for _, t := range batch {
			rv.observe(obs{sig: s.sigIndex(t.Name), ms: t.Time, val: t.Value}, 0, 0)
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replaying the flight recording: %w", err)
	}
	expected = rv.settle()
	return expected, rv.missing + rv.dups, nil
}

// endToEndMetrics computes the end-to-end metrics from the untraced
// segment. With scaled set, each timed metric is converted to machine
// speed 1: a time is multiplied by the speed measured around it, a rate
// divided by it. Where no speed was measured it is 1.
func endToEndMetrics(u *segment, setups, setupSpeeds []float64, scaled bool) map[string]float64 {
	at := func(speed float64) float64 {
		if scaled {
			return speed
		}
		return 1
	}
	setup := make([]float64, len(setups))
	for i, x := range setups {
		setup[i] = x * at(setupSpeeds[i])
	}
	return map[string]float64{
		"setup_s": median(setup),
		"tput_tps": u.overSlices(func(sl *slice) float64 {
			return ratio(float64(progressBetween(&sl.a, &sl.b)), secsBetween(&sl.a, &sl.b)) / at(sl.speed)
		}),
		"lat_p50_us": u.overWindows(func(sl *slice, lat []int64) float64 { return quantile(lat, 0.5) / 1e3 * at(sl.speed) }),
		"lat_p99_us": u.overWindows(func(sl *slice, lat []int64) float64 { return quantile(lat, 0.99) / 1e3 * at(sl.speed) }),
		"pub_ns_per_tuple": u.overSlices(func(sl *slice) float64 {
			return ratio(float64(sl.b.callNS-sl.a.callNS), float64(sl.b.recorded-sl.a.recorded)) * at(sl.speed)
		}),
		"cpu_ns_per_tuple": u.overSlices(func(sl *slice) float64 { return cpuPerDelivery(&sl.a, &sl.b) * at(sl.speed) }),
		"mem_peak_mb":      u.overSlices(func(sl *slice) float64 { return float64(sl.peak) / 1e6 }),
	}
}

// metrics computes every metric: end-to-end ones from the untraced
// slices, per-layer ones over the whole window and the traced slices.
func (s *system) metrics(win *window, sm *sampler, c closing, setups, setupSpeeds []float64, lag hist) map[string]float64 {
	m := endToEndMetrics(&win.segs[0], setups, setupSpeeds, true)
	if s.trace == nil {
		return m
	}
	first, last := &win.first, &win.last
	var calls hist
	var occSum float64
	var occN int64
	for _, p := range s.pubs {
		calls.merge(&p.calls)
		occSum += p.occSum
		occN += p.occN
	}
	// lanes totals the viewer counters over the window for the viewers sel picks.
	lanes := func(sel func(viewerSpec) bool) (bytes, decoded, decodeNS float64) {
		for i, v := range s.viewers {
			if sel(v.spec) {
				bytes += float64(last.v[i].bytes - first.v[i].bytes)
				decoded += float64(last.v[i].decoded - first.v[i].decoded)
				decodeNS += float64(last.v[i].decodeNS - first.v[i].decodeNS)
			}
		}
		return bytes, decoded, decodeNS
	}
	textB, textN, textNS := lanes(func(v viewerSpec) bool { return v.lane == laneTCP && v.wire != 3 })
	v3B, v3N, _ := lanes(func(v viewerSpec) bool { return v.lane == laneTCP && v.wire == 3 })
	_, binN, binNS := lanes(func(v viewerSpec) bool { return v.lane == laneWS || v.lane == laneTCP && v.wire == 3 })
	sseB, sseN, sseNS := lanes(func(v viewerSpec) bool { return v.lane == laneSSE })
	wsB, wsN, _ := lanes(func(v viewerSpec) bool { return v.lane == laneWS })
	hopQ := func(h hop, l func(lane) bool) (p50, p99 float64) {
		d := s.trace.hopDurations(s, h, l)
		return quantile(d, 0.5) / 1e3, quantile(d, 0.99) / 1e3
	}
	is := func(want lane) func(lane) bool { return func(l lane) bool { return l == want } }
	ingest50, ingest99 := hopQ(hopIngest, func(lane) bool { return true })
	hub50, hub99 := hopQ(hopRelay, is(laneTCP))
	sse50, sse99 := hopQ(hopRelay, is(laneSSE))
	ws50, ws99 := hopQ(hopRelay, is(laneWS))
	deliveries := deliveriesBetween(first, last)
	base := win.segs[0].cpuPerDelivery()
	overhead := ratio(win.segs[1].cpuPerDelivery()-base, base) * 100

	m["client.record_ns_p50"] = calls.quantile(0.5)
	m["client.record_ns_p99"] = calls.quantile(0.99)
	m["client.queue_max_tuples"] = float64(sm.clientQueue.Load())
	m["client.dropped"] = float64(c.clientDropped)
	m["dgram.tuples_per_datagram"] = ratio(float64(c.udpTuples), float64(c.udpAssigned))
	m["dgram.lost"] = float64(c.udpLost)
	m["dgram.late"] = float64(c.udpLate)
	m["dgram.reordered"] = float64(c.udpReordered)
	m["dgram.recovered"] = float64(c.udpRecovered)
	m["dgram.resent"] = float64(c.udpResent)
	m["ingest.lat_us_p50"], m["ingest.lat_us_p99"] = ingest50, ingest99
	m["ingest.parse_errors"] = float64(c.parseErrors)
	m["loop.invoke_wait_us_p50"] = s.trace.invoke.quantile(0.5) / 1e3
	m["loop.invoke_wait_us_p99"] = s.trace.invoke.quantile(0.99) / 1e3
	m["hub.lat_us_p50"], m["hub.lat_us_p99"] = hub50, hub99
	m["hub.backlog_chunks_max"] = float64(sm.hubBacklog.Load())
	m["hub.dropped_chunks"] = float64(c.fan.Dropped)
	m["hub.filtered"] = float64(c.fan.Filtered)
	m["hub.bytes_per_tuple.text"] = ratio(textB, textN)
	m["hub.bytes_per_tuple.v3"] = ratio(v3B, v3N)
	m["tuple.decode_ns_per_tuple.text"] = ratio(textNS, textN)
	m["tuple.decode_ns_per_tuple.v3"] = ratio(binNS, binN)
	m["web.lat_us_p50.sse"], m["web.lat_us_p99.sse"] = sse50, sse99
	m["web.lat_us_p50.ws"], m["web.lat_us_p99.ws"] = ws50, ws99
	m["web.bytes_per_tuple.sse"] = ratio(sseB, sseN)
	m["web.bytes_per_tuple.ws"] = ratio(wsB, wsN)
	m["web.dropped"] = float64(c.fan.WebDropped)
	m["reclog.lag_max_tuples"] = float64(sm.recLag.Load())
	m["reclog.dropped"] = float64(c.recDropped)
	m["runtime.alloc_bytes_per_tuple"] = ratio(float64(last.rt.alloc-first.rt.alloc), float64(deliveries))
	m["runtime.gc_cycles"] = float64(last.rt.cycles - first.rt.cycles)
	m["runtime.gc_pause_us_p99"] = histDelta(first.rt.pauses, last.rt.pauses, 0.99) * 1e6
	m["runtime.sched_lat_us_p99"] = histDelta(first.rt.sched, last.rt.sched, 0.99) * 1e6
	m["harness.gen_lag_us_p99"] = lag.quantile(0.99) / 1e3
	m["harness.window_occupancy"] = ratio(occSum, float64(occN))
	m["harness.decode_ns_per_tuple.sse"] = ratio(sseNS, sseN)
	m["harness.markers"] = float64(len(win.segs[0].lat))
	m["harness.trace_overhead_pct"] = overhead
	m["fail_ratio"] = ratio(float64(c.failed), float64(c.attempted))
	return m
}
