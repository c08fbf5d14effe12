package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	gscope "repro"
)

// The traced run. Tracing lives entirely in the benchmark: the hub's
// public Server.OnTuple hook stamps each marker as the loop sees it, a
// no-op Loop.Invoke probe times the loop's queue, and each viewer records
// the hop chain of every marker it decodes. The hops of one delivery are
// contiguous, so they tile the interval its end-to-end latency measures.

// hop is one leg of a marker delivery.
type hop uint8

const (
	hopGenLag hop = iota // due time → record start (open loop only)
	hopRecord            // the marker's own RecordAt/RecordBatch call
	hopIngest            // record return → Server.OnTuple sees the marker
	hopRelay             // OnTuple → the viewer's socket read
	hopDecode            // read → decoded
	hopE2E               // the whole delivery, the table's reference row
	numHops
)

// hopName names a hop as the hop table and the span dump print it.
func hopName(h hop, l lane) string {
	switch h {
	case hopGenLag:
		return "gen.lag"
	case hopRecord:
		return "gscope.record"
	case hopIngest:
		return "netscope.ingest"
	case hopRelay:
		switch l {
		case laneSSE:
			return "web.sse.relay"
		case laneWS:
			return "web.ws.relay"
		}
		return "netscope.hub"
	case hopDecode:
		if l == laneSSE {
			return "web.sse.parse"
		}
		return "tuple.decode"
	}
	return "e2e"
}

// span is one hop of one marker delivery. Spans of a delivery share
// (pub, seq, viewer); each hop's parent is the hop before it.
type span struct {
	start, end  int64
	seq         int64
	pub, viewer uint8
	hop         hop
}

// tracer keeps spans in memory allocated before the run; they are written
// out when it ends.
type tracer struct {
	spans   []span
	n       atomic.Int64
	skipped atomic.Int64 // deliveries whose slot was stamped before tracing began

	invoke lockedHist // Loop.Invoke wait of the no-op probe
}

// traceCapacity bounds the spans one traced run keeps (32 B each);
// deliveries past it are counted but not spanned.
const traceCapacity = 1 << 19

func newTracer() *tracer { return &tracer{spans: make([]span, traceCapacity)} }

func (t *tracer) add(sp span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = sp
	}
}

func (t *tracer) recorded() []span { return t.spans[:min(t.n.Load(), int64(len(t.spans)))] }

// delivery records the hop chain of one marker delivery from the
// marker's ring slot and the viewer's read and decode times.
func (t *tracer) delivery(v *viewer, p int, seq int64, st *stamp, tRead, tDec int64) {
	due, rs, re, hub := st.due.Load(), st.start.Load(), st.end.Load(), st.hub.Load()
	if re < rs || hub < re || tRead < hub {
		t.skipped.Add(1)
		return
	}
	mk := func(h hop, a, b int64) span {
		return span{start: a, end: b, seq: seq, pub: uint8(p), viewer: uint8(v.id), hop: h}
	}
	if v.s.g.open {
		t.add(mk(hopGenLag, due, rs))
	}
	t.add(mk(hopRecord, rs, re))
	t.add(mk(hopIngest, re, hub))
	t.add(mk(hopRelay, hub, tRead))
	t.add(mk(hopDecode, tRead, tDec))
	t.add(mk(hopE2E, due, tDec))
}

// hubHook is the traced run's Server.OnTuple: it stamps each marker's slot
// as the hub's loop sees it.
func (s *system) hubHook(t gscope.Tuple) {
	for p, name := range s.markerNames {
		if t.Name == name {
			s.pubs[p].stamps[int64(t.Value)&ringMask].hub.Store(now())
			return
		}
	}
}

// setTraced turns the traced slices' instruments on or off: the hub hook,
// the Invoke probe and the viewers' spans. A marker whose hub stamp was
// not taken in the current traced slice fails delivery's ordering check
// and is skipped.
func (s *system) setTraced(on bool) {
	if on {
		s.onLoop(func() { s.srv.OnTuple = s.hubHook })
		s.traced.Store(true)
		return
	}
	s.traced.Store(false)
	s.onLoop(func() { s.srv.OnTuple = nil })
}

// invokeProbe posts a no-op onto the hub loop every 10 ms of the traced
// slices until stop and records how long each waited to run.
func (s *system) invokeProbe(stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	tk := time.NewTicker(10 * time.Millisecond)
	defer tk.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		if !s.traced.Load() {
			continue
		}
		t0 := now()
		s.loop.Invoke(func() { s.trace.invoke.add(now() - t0) })
	}
}

// hopDurations pools one hop's durations (ns, sorted) over the viewers
// whose lane lanes selects.
func (t *tracer) hopDurations(s *system, h hop, lanes func(lane) bool) []int64 {
	var d []int64
	for _, sp := range t.recorded() {
		if sp.hop == h && lanes(s.viewers[sp.viewer].spec.lane) {
			d = append(d, sp.end-sp.start)
		}
	}
	sortInt64(d)
	return d
}

// hopRow summarizes one hop, in µs.
type hopRow struct {
	name           string
	n              int
	p50, p99, mean float64
}

func summarize(name string, d []int64) hopRow {
	r := hopRow{name: name, n: len(d)}
	if len(d) == 0 {
		return r
	}
	sortInt64(d)
	var sum float64
	for _, x := range d {
		sum += float64(x)
	}
	r.p50, r.p99, r.mean = quantile(d, 0.5)/1e3, quantile(d, 0.99)/1e3, sum/float64(len(d))/1e3
	return r
}

// writeHopTables prints, per viewer, each hop's p50/p99/mean, their sums,
// the end-to-end figure, and the residual (end-to-end minus the sum of
// hops; on means it is zero up to rounding, because the hops tile each
// delivery), followed by the untraced comparison and the tracing overhead.
func (t *tracer) writeHopTables(w io.Writer, s *system, untracedP50, tracedP50, overheadPct float64) {
	spans := t.recorded()
	fmt.Fprintf(w, "hop table: workload=%s seed=%d, µs; %d spans kept of %d, %d deliveries skipped\n",
		s.w.name, s.o.seed, len(spans), t.n.Load(), t.skipped.Load())
	for _, v := range s.viewers {
		var d [numHops][]int64
		for _, sp := range spans {
			if int(sp.viewer) == v.id {
				d[sp.hop] = append(d[sp.hop], sp.end-sp.start)
			}
		}
		fmt.Fprintf(w, "  viewer %s\n    %-18s %8s %10s %10s %10s\n", v.spec.name, "hop", "n", "p50", "p99", "mean")
		var sumP50, sumMean float64
		for h := hop(0); h < hopE2E; h++ {
			if h == hopGenLag && !s.g.open {
				continue
			}
			r := summarize(hopName(h, v.spec.lane), d[h])
			sumP50 += r.p50
			sumMean += r.mean
			fmt.Fprintf(w, "    %-18s %8d %10.1f %10.1f %10.1f\n", r.name, r.n, r.p50, r.p99, r.mean)
		}
		e := summarize("end-to-end", d[hopE2E])
		fmt.Fprintf(w, "    %-18s %8s %10.1f %10s %10.1f\n", "sum of hops", "", sumP50, "", sumMean)
		fmt.Fprintf(w, "    %-18s %8d %10.1f %10.1f %10.1f\n", e.name, e.n, e.p50, e.p99, e.mean)
		fmt.Fprintf(w, "    %-18s %8s %10.1f %10s %10.1f\n", "residual", "", e.p50-sumP50, "", e.mean-sumMean)
	}
	fmt.Fprintf(w, "  lat_p50_us untraced %.1f, traced %.1f; harness.trace_overhead_pct %.2f (cpu per delivered tuple)\n",
		untracedP50, tracedP50, overheadPct)
}

// dumpSpans writes every recorded span as CSV.
func (t *tracer) dumpSpans(path string, s *system) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "viewer,pub,seq,hop,parent,start_ns,end_ns")
	for _, sp := range t.recorded() {
		v := s.viewers[sp.viewer]
		parent := ""
		if sp.hop > hopRecord && sp.hop < hopE2E || sp.hop == hopRecord && s.g.open {
			parent = hopName(sp.hop-1, v.spec.lane)
		}
		fmt.Fprintf(w, "%s,%d,%d,%s,%s,%d,%d\n", v.spec.name, sp.pub, sp.seq,
			hopName(sp.hop, v.spec.lane), parent, sp.start, sp.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
