package gscope

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	FIG1-FIG3   — widget screenshots           → out/fig*.png
//	FIG4, FIG5  — the TCP vs ECN experiment    → out/fig4_tcp.png, out/fig5_ecn.png
//	TAB-A1/A2   — §4.6 CPU overhead at 10/50ms → overhead% metric
//	TAB-A3      — §4.6 per-signal overhead     → overhead% per signal count
//	TAB-A4      — §4.5 lost-timeout handling   → compensated sweep metrics
//
// plus ablation benches for the design choices DESIGN.md calls out
// (trigger alignment, RED vs DropTail, timer granularity, filtering) and
// microbenches of the hot paths. Figures are written once per `go test
// -bench` run into out/.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/draw"
	"repro/internal/figures"
	"repro/internal/glib"
	"repro/internal/loadgen"
	"repro/internal/mxtraf"
	"repro/internal/netscope"
	"repro/internal/netsim"
	"repro/internal/reclog"
	"repro/internal/tuple"
	"repro/internal/webscope"
)

const outDir = "out"

var outOnce sync.Once

func writeArtifact(b *testing.B, name string, s *draw.Surface) {
	b.Helper()
	outOnce.Do(func() { os.MkdirAll(outDir, 0o755) }) //nolint:errcheck
	path := outDir + "/" + name
	if err := s.WritePNG(path); err != nil {
		b.Fatalf("writing %s: %v", path, err)
	}
}

// --- FIG1–FIG3: widget screenshots -----------------------------------------

func BenchmarkFigure1ScopeWidget(b *testing.B) {
	var frame *draw.Surface
	for i := 0; i < b.N; i++ {
		f, err := figures.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		frame = f
	}
	writeArtifact(b, "fig1_scope_widget.png", frame)
}

func BenchmarkFigure2SignalParams(b *testing.B) {
	var frame *draw.Surface
	for i := 0; i < b.N; i++ {
		f, err := figures.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		frame = f
	}
	writeArtifact(b, "fig2_signal_params.png", frame)
}

func BenchmarkFigure3ControlParams(b *testing.B) {
	var frame *draw.Surface
	for i := 0; i < b.N; i++ {
		f, err := figures.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		frame = f
	}
	writeArtifact(b, "fig3_control_params.png", frame)
}

// --- FIG4/FIG5: the TCP vs ECN experiment ----------------------------------

func benchTCPExperiment(b *testing.B, ecn bool, png string) {
	var res *figures.TCPResult
	for i := 0; i < b.N; i++ {
		cfg := figures.DefaultTCPExperiment(ecn)
		r, err := figures.RunTCPExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	b.ReportMetric(float64(res.CwndMin1Hits), "cwnd-floor-hits")
	b.ReportMetric(float64(res.TimeoutsDuring8), "obsflow-timeouts-8")
	b.ReportMetric(float64(res.TimeoutsDuring16), "obsflow-timeouts-16")
	b.ReportMetric(float64(res.TotalTimeouts), "all-timeouts")
	b.ReportMetric(res.MeanCwnd8, "mean-cwnd-8")
	b.ReportMetric(res.MeanCwnd16, "mean-cwnd-16")
	writeArtifact(b, png, res.Frame)
}

func BenchmarkFigure4TCP(b *testing.B) { benchTCPExperiment(b, false, "fig4_tcp.png") }
func BenchmarkFigure5ECN(b *testing.B) { benchTCPExperiment(b, true, "fig5_ecn.png") }

// --- TAB-A1/A2: §4.6 CPU overhead vs polling period ------------------------

// runOverhead measures the §4.6 ratio with the real clock: a spin loop
// with and without a scope polling n integer signals at the given period.
func runOverhead(b *testing.B, period time.Duration, n int) float64 {
	var stop func()
	start := func() {
		loop := glib.NewLoop(glib.RealClock{}, glib.WithGranularity(period))
		scope := core.New(loop, "bench", 600, 200)
		vars := make([]core.IntVar, n)
		for i := 0; i < n; i++ {
			if _, err := scope.AddSignal(core.Sig{Name: fmt.Sprintf("s%d", i), Source: &vars[i]}); err != nil {
				b.Fatal(err)
			}
		}
		if err := scope.SetPollingMode(period); err != nil {
			b.Fatal(err)
		}
		if err := scope.StartPolling(); err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			loop.Run() //nolint:errcheck
			close(done)
		}()
		stop = func() {
			loop.Quit()
			<-done
		}
	}
	res := loadgen.MeasureRepeated(3, 150*time.Millisecond, start, func() { stop() })
	oh := res.OverheadPercent()
	if oh < 0 {
		oh = 0 // scheduler noise can make the loaded run "faster"
	}
	return oh
}

func BenchmarkOverheadPolling10ms(b *testing.B) {
	var oh float64
	for i := 0; i < b.N; i++ {
		oh = runOverhead(b, 10*time.Millisecond, 8)
	}
	b.ReportMetric(oh, "overhead-%")
	b.ReportMetric(2.0, "paper-bound-%")
}

func BenchmarkOverheadPolling50ms(b *testing.B) {
	var oh float64
	for i := 0; i < b.N; i++ {
		oh = runOverhead(b, 50*time.Millisecond, 8)
	}
	b.ReportMetric(oh, "overhead-%")
	b.ReportMetric(1.0, "paper-bound-%")
}

// --- TAB-A3: §4.6 per-signal overhead --------------------------------------

func BenchmarkOverheadPerSignal(b *testing.B) {
	for _, n := range []int{1, 8, 16, 32} {
		n := n
		b.Run(fmt.Sprintf("signals=%d", n), func(b *testing.B) {
			var oh float64
			for i := 0; i < b.N; i++ {
				oh = runOverhead(b, 10*time.Millisecond, n)
			}
			b.ReportMetric(oh, "overhead-%")
		})
	}
}

// --- TAB-A4: §4.5 lost-timeout compensation --------------------------------

func BenchmarkLostTimeoutCompensation(b *testing.B) {
	// Inject timer starvation on a virtual clock and verify/measure that
	// the sweep advances by wall time, not by dispatch count.
	vc := glib.NewVirtualClock(time.Unix(0, 0))
	loop := glib.NewLoop(vc, glib.WithGranularity(0))
	scope := core.New(loop, "bench", 600, 200)
	var v core.IntVar
	if _, err := scope.AddSignal(core.Sig{Name: "v", Source: &v}); err != nil {
		b.Fatal(err)
	}
	if err := scope.SetPollingMode(10 * time.Millisecond); err != nil {
		b.Fatal(err)
	}
	if err := scope.StartPolling(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate clean ticks with 50ms stalls.
		loop.Advance(10 * time.Millisecond)
		vc.Set(vc.Now().Add(50 * time.Millisecond))
		loop.Iterate()
	}
	st := scope.Stats()
	if st.Slots != st.Polls+st.LostTicks {
		b.Fatalf("sweep not compensated: slots=%d polls=%d lost=%d",
			st.Slots, st.Polls, st.LostTicks)
	}
	b.ReportMetric(float64(st.LostTicks)/float64(st.Polls), "lost-ticks/poll")
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationGranularity quantifies §4.5/§6: finer kernel ticks let
// the same 10ms polling fire closer to schedule. The metric is the mean
// quantization-induced deadline slip.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, g := range []time.Duration{10 * time.Millisecond, time.Millisecond, 0} {
		g := g
		name := "ideal"
		if g > 0 {
			name = g.String()
		}
		b.Run("tick="+name, func(b *testing.B) {
			var slip time.Duration
			var fires int
			for i := 0; i < b.N; i++ {
				vc := glib.NewVirtualClock(time.Unix(0, 0))
				loop := glib.NewLoop(vc, glib.WithGranularity(g))
				var last time.Time
				scheduledGap := 15 * time.Millisecond
				loop.TimeoutAdd(scheduledGap, func(int) bool {
					now := vc.Now()
					if !last.IsZero() {
						gap := now.Sub(last)
						if gap > scheduledGap {
							slip += gap - scheduledGap
						}
					}
					last = now
					fires++
					return true
				})
				loop.Advance(3 * time.Second)
			}
			if fires > 0 {
				b.ReportMetric(float64(slip.Microseconds())/float64(fires), "slip-us/fire")
			}
		})
	}
}

// BenchmarkAblationREDvsDropTail isolates the router discipline: identical
// ECN-capable senders through both queues. RED+ECN should eliminate
// timeouts; DropTail cannot (ECN negotiation never helps if the router
// only drops).
func BenchmarkAblationREDvsDropTail(b *testing.B) {
	for _, red := range []bool{false, true} {
		red := red
		name := "droptail"
		if red {
			name = "red"
		}
		b.Run(name, func(b *testing.B) {
			var timeouts int64
			for i := 0; i < b.N; i++ {
				cfg := netsim.DefaultDumbbell()
				cfg.RED = red
				cfg.TCP.ECN = true
				d := netsim.NewDumbbell(cfg)
				for f := 0; f < 16; f++ {
					at := time.Duration(f) * 100 * time.Millisecond
					d.Sim.At(at, func() { d.AddElephant() })
				}
				d.Sim.RunUntil(30 * time.Second)
				timeouts = d.TotalTimeouts()
			}
			b.ReportMetric(float64(timeouts), "timeouts")
		})
	}
}

// BenchmarkAblationTrigger measures the §6 trigger extension's render cost
// against the plain scrolling sweep.
func BenchmarkAblationTrigger(b *testing.B) {
	for _, trig := range []bool{false, true} {
		trig := trig
		name := "off"
		if trig {
			name = "on"
		}
		b.Run("trigger="+name, func(b *testing.B) {
			rig := figures.NewRig("bench", 600, 200)
			var v core.IntVar
			sig, err := rig.Scope.AddSignal(core.Sig{Name: "s", Source: &v})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				sig.Trace().Push(float64(50 + 40*((i/20)%2)))
			}
			if trig {
				rig.Scope.SetTrigger(&core.Trigger{Signal: "s", Level: 50, Rising: true})
			}
			s := draw.NewSurface(600, 200)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.Scope.Render(s, s.Bounds())
			}
		})
	}
}

// BenchmarkAblationFilter measures the low-pass filter's per-poll cost.
func BenchmarkAblationFilter(b *testing.B) {
	for _, alpha := range []float64{0, 0.5} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha=%v", alpha), func(b *testing.B) {
			rig := figures.NewRig("bench", 600, 200)
			var v core.IntVar
			if _, err := rig.Scope.AddSignal(core.Sig{Name: "s", Source: &v, FilterAlpha: alpha}); err != nil {
				b.Fatal(err)
			}
			if err := rig.Scope.SetPollingMode(10 * time.Millisecond); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.Scope.Step(0)
			}
		})
	}
}

// --- Microbenches of the hot paths ------------------------------------------

func BenchmarkScopePoll(b *testing.B) {
	for _, n := range []int{1, 8, 32} {
		n := n
		b.Run(fmt.Sprintf("signals=%d", n), func(b *testing.B) {
			rig := figures.NewRig("bench", 600, 200)
			vars := make([]core.IntVar, n)
			for i := 0; i < n; i++ {
				if _, err := rig.Scope.AddSignal(core.Sig{Name: fmt.Sprintf("s%d", i), Source: &vars[i]}); err != nil {
					b.Fatal(err)
				}
			}
			if err := rig.Scope.SetPollingMode(10 * time.Millisecond); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.Scope.Step(0)
			}
		})
	}
}

func BenchmarkRenderCanvas(b *testing.B) {
	rig := figures.NewRig("bench", 600, 200)
	var v core.IntVar
	sig, err := rig.Scope.AddSignal(core.Sig{Name: "s", Source: &v})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sig.Trace().Push(float64(i % 100))
	}
	s := draw.NewSurface(600, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Scope.Render(s, s.Bounds())
	}
}

func BenchmarkFreqDomainRender(b *testing.B) {
	rig := figures.NewRig("bench", 600, 200)
	var v core.IntVar
	sig, err := rig.Scope.AddSignal(core.Sig{Name: "s", Source: &v})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		sig.Trace().Push(float64(i % 100))
	}
	rig.Scope.SetDomain(core.FreqDomain)
	s := draw.NewSurface(600, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Scope.Render(s, s.Bounds())
	}
}

func BenchmarkTupleParse(b *testing.B) {
	line := "123456 42.125 CWND"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuple.Parse(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeedPushTake(b *testing.B) {
	f := core.NewFeed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := time.Duration(i) * time.Millisecond
		f.Push(at, "x", 1)
		if i%64 == 63 {
			f.Take(at)
		}
	}
}

// benchFeedIngest measures the feed's pure ingest throughput: 8
// concurrent publishers, each owning one signal, push b.N tuples in total
// — per sample or in batches. Work proceeds in bounded rounds; between
// rounds the timer stops while the feed is drained (the consumer side has
// its own benchmarks), so ns/op is the per-tuple cost of the push path
// alone and the backlog never outgrows one round. Timestamps rise
// monotonically across rounds and the drain cursor trails them, so no
// tuple is ever dropped and both variants do identical per-tuple work.
func benchFeedIngest(b *testing.B, batchSize int) {
	const publishers = 8
	const roundPer = 1 << 11 // tuples per publisher per round (cache-resident backlog)
	f := core.NewFeed()
	var drainBuf []tuple.Tuple
	names := make([]string, publishers)
	templates := make([][]tuple.Tuple, publishers)
	for g := range names {
		names[g] = fmt.Sprintf("sig%d", g)
		if batchSize > 1 {
			// The batch is a reusable template — name and value slots
			// are laid down once, each round restamps only the times.
			// That is the shape of a real batching publisher (and of the
			// network server's decode scratch): batching amortizes
			// construction, not just locking.
			templates[g] = make([]tuple.Tuple, batchSize)
			for j := range templates[g] {
				templates[g][j] = tuple.Tuple{Value: float64(j), Name: names[g]}
			}
		}
	}
	base := 0 // starting timestamp of the current round, ms
	b.ResetTimer()
	for pushed := 0; pushed < b.N; {
		per := roundPer
		if rem := (b.N - pushed + publishers - 1) / publishers; rem < per {
			per = rem
		}
		var wg sync.WaitGroup
		for g := 0; g < publishers; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				if batchSize <= 1 {
					name := names[g]
					for i := 0; i < per; i++ {
						f.Push(time.Duration(base+i)*time.Millisecond, name, float64(i))
					}
					return
				}
				batch := templates[g]
				for i := 0; i < per; i += batchSize {
					n := batchSize
					if per-i < n {
						n = per - i
					}
					for j := 0; j < n; j++ {
						batch[j].Time = int64(base + i + j)
					}
					f.PushBatch(batch[:n])
				}
			}()
		}
		wg.Wait()
		pushed += per * publishers
		b.StopTimer()
		drainBuf = f.DrainInto(time.Duration(base+per-1)*time.Millisecond, drainBuf[:0])
		base += per
		b.StartTimer()
	}
	b.StopTimer()
	if _, dropped := f.Stats(); dropped != 0 {
		b.Fatalf("benchmark dropped %d tuples; timestamp discipline broken", dropped)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkFeedPushPerSample is the pre-shard ingest shape: 8 publishers
// contending one tuple at a time.
func BenchmarkFeedPushPerSample(b *testing.B) { benchFeedIngest(b, 1) }

// BenchmarkFeedPushBatch is the batch ingest path the network server
// uses; the acceptance bar is ≥4x the per-sample throughput above.
func BenchmarkFeedPushBatch(b *testing.B) { benchFeedIngest(b, 256) }

// BenchmarkProbeRecord measures the redesigned instrumentation hot path:
// one probe handle recording from one goroutine — the paper's "a few lines
// in the hot loop of a time-sensitive program" shape. Registration interned
// the name and pinned the shard up front, so each record is a lock-free
// late check plus plain stores into the probe's staging ring, with the
// cross-goroutine publication and the ring→shard flush amortized over
// batches. The benchmark measures an identical hot loop through the
// string-keyed Feed.Push for reference and asserts the acceptance bar
// inline: ≥2x over the string path and an allocation-free steady state
// (ReportAllocs must show 0 allocs/op; benchdiff gates both).
func BenchmarkProbeRecord(b *testing.B) {
	const signal = "net.flow0.cwnd"
	const drainMask = 1<<12 - 1 // drain cadence: keep the backlog cache-resident

	// Reference: the same loop, same drain cadence, through Feed.Push.
	const refN = 1 << 19
	ref := core.NewFeed()
	var refBuf []tuple.Tuple
	refStart := time.Now()
	for i := 0; i < refN; i++ {
		ref.Push(time.Duration(i)*time.Microsecond, signal, float64(i))
		if i&drainMask == drainMask {
			refBuf = ref.DrainInto(time.Duration(i)*time.Microsecond, refBuf[:0])
		}
	}
	nsPush := float64(time.Since(refStart)) / refN

	f := core.NewFeed()
	p, err := f.Probe(signal)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up past the first-fill allocations (ring flush growing the
	// shard backlog, the drain buffer) so the timed region is steady
	// state.
	var drainBuf []tuple.Tuple
	base := 0
	for i := 0; i < 1<<13; i++ {
		p.RecordAt(time.Duration(base+i)*time.Microsecond, float64(i))
	}
	base += 1 << 13
	p.Flush()
	drainBuf = f.DrainInto(time.Duration(base-1)*time.Microsecond, drainBuf[:0])

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RecordAt(time.Duration(base+i)*time.Microsecond, float64(i))
		if i&drainMask == drainMask {
			b.StopTimer()
			drainBuf = f.DrainInto(time.Duration(base+i)*time.Microsecond, drainBuf[:0])
			b.StartTimer()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)

	nsProbe := float64(b.Elapsed()) / float64(b.N)
	if nsProbe > 0 {
		b.ReportMetric(nsPush/nsProbe, "speedup-vs-push")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	if _, dropped := f.Stats(); dropped != 0 {
		b.Fatalf("benchmark dropped %d samples; timestamp discipline broken", dropped)
	}
	// The acceptance bar, asserted only on runs long enough to be
	// meaningful.
	if b.N >= 1<<16 {
		if allocs := m1.Mallocs - m0.Mallocs; allocs > uint64(b.N/1000) {
			b.Fatalf("record path allocated: %d mallocs over %d records", allocs, b.N)
		}
		if nsProbe*2 > nsPush {
			b.Fatalf("Probe.RecordAt %.1f ns/op is not ≥2x Feed.Push %.1f ns/op", nsProbe, nsPush)
		}
	}
}

// BenchmarkClientSendProbeBatch measures the remote publish hot path: a
// probe-keyed batch enqueue through the client's reusable queue and encode
// buffers onto a loopback socket. ns/op is per sample. The steady state
// must be allocation-free (ReportAllocs 0 allocs/op, gated by benchdiff):
// the queue ping-pongs between two retained slices, the writer reuses one
// wire buffer, and the probe's canonical name means no per-sample string
// work anywhere.
func BenchmarkClientSendProbeBatch(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, conn) //nolint:errcheck
				conn.Close()
			}()
		}
	}()

	c, err := netscope.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	p, err := c.Probe("cps")
	if err != nil {
		b.Fatal(err)
	}
	const batchLen = 256
	samples := make([]tuple.Sample, batchLen)
	stamp := 0
	fill := func(n int) {
		for j := 0; j < n; j++ {
			samples[j] = tuple.Sample{At: time.Duration(stamp) * time.Millisecond, Value: float64(j & 0xff)}
			stamp++
		}
	}
	// Warm up the queue/encode buffers to their steady-state capacity.
	for r := 0; r < 8; r++ {
		fill(batchLen)
		if err := c.SendProbeBatch(p, samples); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	batches := 0
	for i := 0; i < b.N; i += batchLen {
		n := batchLen
		if b.N-i < n {
			n = b.N - i
		}
		fill(n)
		if err := c.SendProbeBatch(p, samples[:n]); err != nil {
			b.Fatal(err)
		}
		// Bound the queue by letting the writer catch up periodically
		// (untimed), so growth never masquerades as steady state.
		if batches++; batches&63 == 0 {
			b.StopTimer()
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	ln.Close()
	wg.Wait()
}

// BenchmarkClientSendFullQueue measures Client.Send through a hub outage:
// a DialReconnect client whose hub is down, its queue held at the
// DefaultClientQueueLimit bound, so every sample evicts the oldest. ns/op
// is per sample; dropping must cost no more than queueing, or the outage
// the queue exists to ride out would stall the instrumented program.
func BenchmarkClientSendFullQueue(b *testing.B) {
	c := netscope.DialReconnect("127.0.0.1:1") // nothing listens: never connects
	for i := 0; i < netscope.DefaultClientQueueLimit; i++ {
		if err := c.Send(time.Duration(i)*time.Millisecond, "cps", 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(time.Duration(i)*time.Millisecond, "cps", float64(i&0xff)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := c.Dropped(); d != int64(b.N) {
		b.Fatalf("dropped %d of %d samples sent past the bound", d, b.N)
	}
	c.Close() //nolint:errcheck // the hub is down: the bounded close flush times out by design
}

// BenchmarkTraceView measures the tiered-history render query: a window
// of W samples decimated into 512 columns. Doubling the window eight-fold
// should leave ns/op roughly flat — the query is O(columns), not
// O(samples).
func BenchmarkTraceView(b *testing.B) {
	tr := core.NewTrace(4096)
	tr.EnableHistory(1 << 21)
	for i := 0; i < 1<<20; i++ {
		tr.Push(float64(i & 0x3ff))
	}
	for _, window := range []int{1 << 17, 1 << 20} {
		window := window
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			var cols []core.Bucket
			for i := 0; i < b.N; i++ {
				cols = tr.View(window, 512)
			}
			if len(cols) != 512 {
				b.Fatalf("View returned %d cols", len(cols))
			}
			b.ReportMetric(float64(window)/512, "samples/col")
		})
	}
}

// BenchmarkRenderCanvasZoomedOut draws a million-sample sweep through the
// decimated render path (history-backed, ~1750 samples per pixel column),
// the O(columns) counterpart of BenchmarkRenderCanvas.
func BenchmarkRenderCanvasZoomedOut(b *testing.B) {
	rig := figures.NewRig("bench", 600, 200)
	var v core.IntVar
	sig, err := rig.Scope.AddSignal(core.Sig{Name: "s", Source: &v})
	if err != nil {
		b.Fatal(err)
	}
	sig.Trace().EnableHistory(1 << 21)
	for i := 0; i < 1<<20; i++ {
		sig.Trace().Push(float64(i % 100))
	}
	rig.Scope.SetZoom(600.0 / (1 << 20)) // the whole canvas spans 2^20 samples
	s := draw.NewSurface(600, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Scope.Render(s, s.Bounds())
	}
}

func BenchmarkTupleAppendWire(b *testing.B) {
	t := tuple.Tuple{Time: 123456, Value: 42.125, Name: "CWND"}
	buf := make([]byte, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tuple.AppendWire(buf[:0], t)
	}
	if len(buf) == 0 {
		b.Fatal("no output")
	}
}

// BenchmarkTupleValueCodec times the text codec on one line per value
// shape: an integer counter, a two-decimal reading, and a full-precision
// (17-digit) sawtooth value. Short decimals take the exact fast paths;
// the full row gates the Schubfach and Eisel–Lemire kernels behind them.
func BenchmarkTupleValueCodec(b *testing.B) {
	for _, c := range []struct {
		shape string
		v     float64
	}{
		{"int", 1000042},
		{"decimal", 519.53},
		{"full", 1 + 37.0*13/137},
	} {
		t := tuple.Tuple{Time: 60000, Value: c.v, Name: "net.flow0.cwnd"}
		line := t.String()
		b.Run(c.shape+"/format", func(b *testing.B) {
			buf := make([]byte, 0, 64)
			for i := 0; i < b.N; i++ {
				buf = tuple.AppendWire(buf[:0], t)
			}
		})
		b.Run(c.shape+"/parse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got, err := tuple.Parse(line); err != nil || got.Value != c.v {
					b.Fatalf("Parse(%q) = %v, %v", line, got, err)
				}
			}
		})
	}
}

// --- wire protocol v3 (docs/WIRE.md) ----------------------------------------

// benchTelemetryBatch builds the runs-shaped counter-telemetry batch the
// binary codec is designed for: one signal per run, steady timestamps,
// counter-like values — the shape probe batches and the soak workload
// actually have on the wire.
func benchTelemetryBatch(n int) []tuple.Tuple {
	batch := make([]tuple.Tuple, n)
	for j := range batch {
		// A minute into a run, 2ms sample spacing, a monotone counter —
		// the magnitudes a real session's text lines actually carry.
		batch[j] = tuple.Tuple{Time: 60_000 + int64(j)*2, Value: float64(1_000_000 + j), Name: "net.flow0.cwnd"}
	}
	return batch
}

// BenchmarkTupleAppendBinary measures the v3 binary encode hot path: one
// warmed encoder appending runs-shaped batches into a reused buffer. ns/op
// is per tuple. The acceptance bar is asserted inline on runs long enough
// to be meaningful: sub-10 ns/tuple and an allocation-free steady state.
func BenchmarkTupleAppendBinary(b *testing.B) {
	const batchLen = 256
	batch := benchTelemetryBatch(batchLen)
	enc := tuple.NewBinaryEncoder()
	buf := enc.AppendBatch(make([]byte, 0, 4096), batch) // warm dictionary and buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		buf = enc.AppendBatch(buf[:0], batch)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	if len(buf) == 0 {
		b.Fatal("no output")
	}
	ns := float64(b.Elapsed()) / float64(b.N)
	b.ReportMetric(float64(len(buf))/batchLen, "bytes/tuple")
	// Assert only on full-length runs: the short calibration rounds the
	// harness uses to find b.N carry timer noise worth a few ns/tuple.
	if b.N >= 1<<22 {
		if allocs := m1.Mallocs - m0.Mallocs; allocs > uint64(b.N/10000) {
			b.Fatalf("binary encode allocated: %d mallocs over %d tuples", allocs, b.N)
		}
		if ns >= 10 {
			b.Fatalf("binary encode %.2f ns/tuple, want <10", ns)
		}
	}
}

// BenchmarkTupleParseBinary measures the v3 decode hot path: a
// StreamDecoder fed one pre-encoded runs-shaped chunk per iteration. ns/op
// is per tuple, directly comparable to BenchmarkTupleParse for the text
// grammar.
func BenchmarkTupleParseBinary(b *testing.B) {
	const batchLen = 256
	enc := tuple.NewBinaryEncoder()
	chunk := enc.AppendBatch(nil, benchTelemetryBatch(batchLen))
	dec := tuple.NewStreamDecoder()
	line := func(string) { b.Fatal("text line in a binary chunk") }
	sink := 0
	batch := func(ts []tuple.Tuple) { sink += len(ts) }
	if err := dec.Feed(chunk, line, batch); err != nil { // warm the dictionary
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		if err := dec.Feed(chunk, line, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if sink == 0 {
		b.Fatal("no tuples decoded")
	}
}

// BenchmarkTupleParseText is the text-stream analogue of
// BenchmarkTupleParseBinary: a ~64 KiB runs-shaped chunk of §3.3 lines —
// one network read's worth — through StreamDecoder.Feed, which parses the
// lines in place and hands their tuples to batch. ns/op and allocs/op are
// per tuple, so the stream's own per-line cost shows here, which
// BenchmarkTupleParse (starting from a string) never sees. "split" feeds
// the chunk as two reads cut mid-line, so the carried line is completed
// from the second read's head.
func BenchmarkTupleParseText(b *testing.B) {
	var chunk []byte
	for k := 0; k < 9; k++ {
		run := benchTelemetryBatch(256)
		for j := range run {
			run[j].Name = fmt.Sprintf("net.flow%d.cwnd", k)
		}
		chunk = tuple.AppendWireBatch(chunk, run)
	}
	const tuples = 9 * 256
	for _, tc := range []struct {
		name string
		cut  int
	}{
		{"whole", len(chunk)},
		{"split", len(chunk)/2 + 7},
	} {
		b.Run(tc.name, func(b *testing.B) {
			dec := tuple.NewStreamDecoder()
			out := make([]tuple.Tuple, 0, tuples)
			line := func(ln string) { b.Fatalf("line %q is not a tuple", ln) }
			batch := func(ts []tuple.Tuple) { out = append(out, ts...) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += tuples {
				out = out[:0]
				if err := dec.Feed(chunk[:tc.cut], line, batch); err != nil {
					b.Fatal(err)
				}
				if err := dec.Feed(chunk[tc.cut:], line, batch); err != nil {
					b.Fatal(err)
				}
				if len(out) != tuples {
					b.Fatalf("decoded %d tuples, want %d", len(out), tuples)
				}
			}
		})
	}
}

// BenchmarkWireBytesPerTuple measures what v3 exists for: wire bandwidth.
// The same counter-telemetry stream is encoded as text lines and as binary
// frames (dictionary included); the metrics report bytes/tuple for both
// and the reduction ratio, and the run fails if binary does not beat text
// by the claimed ≥5x.
func BenchmarkWireBytesPerTuple(b *testing.B) {
	const batchLen = 256
	batch := benchTelemetryBatch(batchLen)
	enc := tuple.NewBinaryEncoder()
	var txt, bin []byte
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		enc.Reset()
		txt = tuple.AppendWireBatch(txt[:0], batch)
		bin = enc.AppendBatch(bin[:0], batch)
	}
	b.StopTimer()
	txtPer := float64(len(txt)) / batchLen
	binPer := float64(len(bin)) / batchLen
	b.ReportMetric(txtPer, "text-bytes/tuple")
	b.ReportMetric(binPer, "binary-bytes/tuple")
	if binPer > 0 {
		ratio := txtPer / binPer
		b.ReportMetric(ratio, "reduction-x")
		if ratio < 5 {
			b.Fatalf("binary wire carries %.2f bytes/tuple vs text %.2f: %.1fx reduction, want ≥5x",
				binPer, txtPer, ratio)
		}
	}
}

func BenchmarkEventAggregation(b *testing.B) {
	rig := figures.NewRig("bench", 600, 200)
	if _, err := rig.Scope.AddSignal(core.Sig{Name: "lat", Agg: core.AggMax}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rig.Scope.Event("lat", float64(i&0xff))
		if i%100 == 99 {
			rig.Scope.Step(0)
		}
	}
}

// BenchmarkHubFanOut measures the netscope hub's fan-out path: one merged
// tuple stream broadcast to M loopback-TCP subscribers, each drained by its
// own reader. The timed section covers Inject through every subscriber's
// queue fully flushing, so ns/op is the true per-tuple fan-out cost.
func BenchmarkHubFanOut(b *testing.B) {
	for _, subs := range []int{1, 4, 16} {
		subs := subs
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			vc := glib.NewVirtualClock(time.Unix(0, 0))
			loop := glib.NewLoop(vc, glib.WithGranularity(0))
			srv := netscope.NewServer(loop)
			srv.SetSnapshotWindow(0)             // measure deltas, not history replay
			srv.SetSubscriberQueueLimit(1 << 20) // count drops, don't hide them
			subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			conns := make([]net.Conn, subs)
			for i := range conns {
				conn, err := net.Dial("tcp", subAddr.String())
				if err != nil {
					b.Fatal(err)
				}
				conns[i] = conn
				wg.Add(1)
				go func() {
					defer wg.Done()
					io.Copy(io.Discard, conn) //nolint:errcheck
				}()
			}
			for srv.Subscribers() < subs {
				loop.Iterate()
				time.Sleep(time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Inject(tuple.Tuple{Time: int64(i), Value: float64(i & 0xff), Name: "s"})
			}
			// Wait until every accepted byte is on the wire (or counted
			// dropped); the queue alone reads empty while a taken batch
			// is still going out on the socket.
			for !srv.SubscribersFlushed() {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			_, _, published, dropped := srv.SubscriberStats()
			b.ReportMetric(float64(subs), "fanout")
			b.ReportMetric(float64(published*int64(subs))/b.Elapsed().Seconds(), "deliveries/s")
			b.ReportMetric(float64(dropped), "dropped")
			srv.Close()
			for _, c := range conns {
				c.Close()
			}
			wg.Wait()
		})
	}
}

// BenchmarkHubFanOutBatch is BenchmarkHubFanOut through the batch
// pipeline: tuples are injected in read-chunk-sized batches, so each
// subscriber queue takes one shared chunk per batch instead of one per
// tuple. ns/op stays per tuple for direct comparison.
func BenchmarkHubFanOutBatch(b *testing.B) {
	const batchLen = 64
	for _, subs := range []int{4, 16} {
		subs := subs
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			vc := glib.NewVirtualClock(time.Unix(0, 0))
			loop := glib.NewLoop(vc, glib.WithGranularity(0))
			srv := netscope.NewServer(loop)
			srv.SetSnapshotWindow(0)
			srv.SetSubscriberQueueLimit(1 << 20)
			subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			conns := make([]net.Conn, subs)
			for i := range conns {
				conn, err := net.Dial("tcp", subAddr.String())
				if err != nil {
					b.Fatal(err)
				}
				conns[i] = conn
				wg.Add(1)
				go func() {
					defer wg.Done()
					io.Copy(io.Discard, conn) //nolint:errcheck
				}()
			}
			for srv.Subscribers() < subs {
				loop.Iterate()
				time.Sleep(time.Millisecond)
			}
			batch := make([]tuple.Tuple, batchLen)
			for j := range batch {
				batch[j] = tuple.Tuple{Value: float64(j & 0xff), Name: "s"}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += batchLen {
				n := batchLen
				if b.N-i < n {
					n = b.N - i
				}
				for j := 0; j < n; j++ {
					batch[j].Time = int64(i + j)
				}
				srv.InjectBatch(batch[:n])
			}
			for !srv.SubscribersFlushed() {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			_, _, published, dropped := srv.SubscriberStats()
			b.ReportMetric(float64(published*int64(subs))/b.Elapsed().Seconds(), "deliveries/s")
			b.ReportMetric(float64(dropped), "dropped")
			srv.Close()
			for _, c := range conns {
				c.Close()
			}
			wg.Wait()
		})
	}
}

// BenchmarkHubFanOutFiltered measures the v2 per-signal subscription path
// at hub scale: 64 signals, 100 subscribers all filtered to one hot
// signal, plus one unfiltered reference viewer. The filtered subscribers
// share a single narrowed encoding per batch (the memo path), so the
// per-tuple cost stays near the unfiltered broadcast while each filtered
// wire carries ~1/64 of the bytes. The bench asserts the headline claim:
// a filtered subscriber receives <5% of the unfiltered byte volume.
func BenchmarkHubFanOutFiltered(b *testing.B) {
	const (
		signals  = 64
		filtered = 100
		batchLen = 64
	)
	vc := glib.NewVirtualClock(time.Unix(0, 0))
	loop := glib.NewLoop(vc, glib.WithGranularity(0))
	srv := netscope.NewServer(loop)
	srv.SetSnapshotWindow(0)
	srv.SetSubscriberQueueLimit(1 << 20)
	subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	var conns []net.Conn
	var counters []*int64
	dial := func(request string) *int64 {
		conn, err := net.Dial("tcp", subAddr.String())
		if err != nil {
			b.Fatal(err)
		}
		if request != "" {
			if _, err := conn.Write([]byte(request)); err != nil {
				b.Fatal(err)
			}
		}
		conns = append(conns, conn)
		n := new(int64)
		counters = append(counters, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				k, err := conn.Read(buf)
				atomic.AddInt64(n, int64(k))
				if err != nil {
					return
				}
			}
		}()
		return n
	}
	unfiltered := dial("") // silent v1 reference viewer
	var filteredBytes []*int64
	for i := 0; i < filtered; i++ {
		filteredBytes = append(filteredBytes, dial("gscope-sub 2 signals=sig0\n"))
	}
	for srv.Subscribers() < filtered+1 {
		loop.Iterate()
		time.Sleep(time.Millisecond)
	}
	batch := make([]tuple.Tuple, batchLen)
	for j := range batch {
		batch[j] = tuple.Tuple{Value: float64(j & 0xff), Name: fmt.Sprintf("sig%d", j%signals)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		n := batchLen
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			batch[j].Time = int64(i + j)
		}
		srv.InjectBatch(batch[:n])
	}
	for !srv.SubscribersFlushed() {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	st := srv.FanoutStats()
	b.ReportMetric(float64(st.Published*int64(filtered+1))/b.Elapsed().Seconds(), "deliveries/s")
	b.ReportMetric(float64(st.Dropped), "dropped")
	srv.Close()
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	ref := atomic.LoadInt64(unfiltered)
	var filtTotal int64
	for _, n := range filteredBytes {
		filtTotal += atomic.LoadInt64(n)
	}
	filtAvg := filtTotal / int64(len(filteredBytes))
	if ref > 0 {
		ratio := float64(filtAvg) / float64(ref)
		b.ReportMetric(100*ratio, "filtered-bytes-%")
		// The acceptance bar: 1 hot signal of 64 must cost <5% of the
		// full stream. Only meaningful once enough batches flowed to
		// amortize the handshake frames.
		if b.N >= 64*100 && ratio >= 0.05 {
			b.Fatalf("filtered subscriber received %.1f%% of the unfiltered bytes, want <5%%", 100*ratio)
		}
	}
}

// BenchmarkParamSetNetwork measures one remote-parameter round trip: a
// control-plane client sends "param set" on the subscriber socket and
// waits for the hub's param-ok ack. ns/op is the full wire round trip
// through the loop's command handling and bounds clamping.
func BenchmarkParamSetNetwork(b *testing.B) {
	loop := glib.NewLoop(glib.RealClock{})
	srv := netscope.NewServer(loop)
	ps := core.NewParamSet()
	var knob core.FloatVar
	if err := ps.Add(core.FloatParam("knob", &knob, 0, 1e9)); err != nil {
		b.Fatal(err)
	}
	srv.SetParams(ps)
	subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		loop.Run() //nolint:errcheck
		close(done)
	}()
	defer func() {
		// Server state belongs to the loop goroutine: stop the loop
		// before closing the server from this one.
		loop.Quit()
		<-done
		srv.Close()
	}()
	conn, err := net.Dial("tcp", subAddr.String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("gscope-sub 2 stream=0\n")); err != nil {
		b.Fatal(err)
	}
	r := bufio.NewReader(conn)
	readFrame := func(verb string) {
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				b.Fatal(err)
			}
			f, ok := tuple.ParseControl(line)
			if !ok {
				continue
			}
			if f.Verb == "error" {
				b.Fatalf("hub error: %v", f.Fields)
			}
			if f.Verb == verb {
				return
			}
		}
	}
	readFrame("gscope-hub") // the v2 ack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fmt.Fprintf(conn, "param set knob %d\n", i); err != nil {
			b.Fatal(err)
		}
		readFrame("param-ok")
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "sets/s")
	if knob.Load() != float64(b.N-1) {
		b.Fatalf("knob = %v after %d sets", knob.Load(), b.N)
	}
}

// BenchmarkNetsimThroughput reports how many simulated seconds of the
// 16-elephant dumbbell fit in one wall-clock second.
func BenchmarkNetsimThroughput(b *testing.B) {
	cfg := netsim.DefaultDumbbell()
	d := netsim.NewDumbbell(cfg)
	for f := 0; f < 16; f++ {
		d.AddElephant()
	}
	horizon := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon += 100 * time.Millisecond
		d.Sim.RunUntil(horizon)
	}
	b.ReportMetric(float64(d.Sim.Processed())/float64(b.N), "events/op")
}

// BenchmarkMxtrafSnapshot measures the metrics path mxtraf exports to the
// scope each poll.
func BenchmarkMxtrafSnapshot(b *testing.B) {
	g := mxtraf.New(mxtraf.DefaultConfig())
	g.SetElephants(8)
	g.Sim().RunUntil(2 * time.Second)
	at := g.Sim().Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at += time.Millisecond
		g.Sim().RunUntil(at)
		g.Snapshot()
	}
}

// --- flight recorder (internal/reclog) -------------------------------------

// BenchmarkRecordAppend measures the loop-side cost of flight recording:
// one bounded-queue append per delivered batch. ns/op is per tuple; the
// allocation report must show amortized sub-1 allocs/op (one batch copy
// per 256 tuples — never a per-tuple allocation), which is the acceptance
// bar for "recording costs one extra queue append per batch".
func BenchmarkRecordAppend(b *testing.B) {
	lg, err := reclog.Open(b.TempDir(), reclog.Options{
		SegmentBytes: 64 << 20,
		QueueLimit:   1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batchSize = 256
	batch := make([]tuple.Tuple, batchSize)
	for j := range batch {
		batch[j] = tuple.Tuple{Value: float64(j % 50), Name: "cps"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batchSize {
		for j := range batch {
			batch[j].Time = int64(i + j)
		}
		lg.Append(batch)
	}
	b.StopTimer()
	if err := lg.Close(); err != nil {
		b.Fatal(err)
	}
	appended, _, _ := lg.Stats()
	b.ReportMetric(float64(appended)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkReplayDrain measures as-fast-as-possible replay throughput:
// sealed segments read back, decoded and delivered in batches. ns/op is
// per tuple.
func BenchmarkReplayDrain(b *testing.B) {
	dir := b.TempDir()
	lg, err := reclog.Open(dir, reclog.Options{SegmentBytes: 4 << 20, QueueLimit: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 17
	batch := make([]tuple.Tuple, 256)
	for i := 0; i < n; i += len(batch) {
		for j := range batch {
			batch[j] = tuple.Tuple{Time: int64(i + j), Value: float64(j % 50), Name: "cps"}
		}
		lg.Append(batch)
	}
	if err := lg.Close(); err != nil {
		b.Fatal(err)
	}
	sess, err := reclog.OpenSession(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for drained := 0; drained < b.N; {
		rep := reclog.NewReplayer(sess)
		rep.SetSpeed(0)
		if err := rep.Run(func(batch []tuple.Tuple) error {
			drained += len(batch)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// --- Web gateway fan-out ----------------------------------------------------

// BenchmarkWebFanout measures the web gateway's per-tuple fan-out cost on
// both live lanes: sse-json (the hub's JSON events behind GET /v1/stream)
// and ws-binary (the hub's v3 stream in WebSocket binary messages behind
// GET /v1/ws?format=binary). Tuples are injected in read-chunk-sized batches
// on the loop goroutine — the realistic ingest shape — and browser
// stand-ins drain real TCP sockets. ns/op is per injected tuple.
func BenchmarkWebFanout(b *testing.B) {
	const wsBinaryReq = "GET /v1/ws?format=binary HTTP/1.1\r\nHost: bench\r\n" +
		"Upgrade: websocket\r\nConnection: Upgrade\r\n" +
		"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\nSec-WebSocket-Version: 13\r\n\r\n"
	for _, lane := range []struct{ name, request string }{
		{"sse-json", "GET /v1/stream HTTP/1.1\r\nHost: bench\r\n\r\n"},
		{"ws-binary", wsBinaryReq},
	} {
		lane := lane
		for _, clients := range []int{1, 4} {
			clients := clients
			b.Run(fmt.Sprintf("%s/clients=%d", lane.name, clients), func(b *testing.B) {
				benchWebFanout(b, lane.request, clients)
			})
		}
	}
}

func benchWebFanout(b *testing.B, request string, clients int) {
	loop := glib.NewLoop(glib.RealClock{})
	srv := netscope.NewServer(loop)
	srv.SetSnapshotWindow(0)             // measure deltas, not history replay
	srv.SetSubscriberQueueLimit(1 << 20) // count drops, don't hide them
	g := webscope.New(srv, webscope.Options{QueueLimit: 1 << 20, NoDashboard: true})
	addr, err := srv.ListenWeb("127.0.0.1:0", g)
	if err != nil {
		b.Fatal(err)
	}
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		loop.Run() //nolint:errcheck
	}()
	defer func() {
		loop.Quit()
		<-loopDone
		srv.Close()
	}()

	var drained atomic.Int64
	var wg sync.WaitGroup
	conns := make([]net.Conn, clients)
	for i := range conns {
		conn, err := net.Dial("tcp", addr.String())
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = conn
		if _, err := conn.Write([]byte(request)); err != nil {
			b.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 32*1024)
			for {
				n, err := conn.Read(buf)
				drained.Add(int64(n))
				if err != nil {
					return
				}
			}
		}()
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	}()
	for srv.Web().Clients() < int64(clients) {
		time.Sleep(time.Millisecond)
	}

	const batchLen = 64
	batch := make([]tuple.Tuple, batchLen)
	for j := range batch {
		batch[j] = tuple.Tuple{Value: float64(j & 0xff), Name: "s"}
	}
	var n int
	injected := make(chan struct{})
	inject := func() { srv.InjectBatch(batch[:n]); injected <- struct{}{} }
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		n = batchLen
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			batch[j].Time = int64(i + j)
		}
		loop.Invoke(inject)
		<-injected
	}
	// First the hub side: every injected tuple encoded and written to the
	// client sockets (the writers work in bursts, so byte-count stability
	// alone would false-trigger between bursts).
	for !srv.SubscribersFlushed() {
		time.Sleep(50 * time.Microsecond)
	}
	// Then the readers: the drained byte count holding still across
	// several polls means they have read everything written.
	last := drained.Load()
	for quiet := 0; quiet < 5; {
		time.Sleep(2 * time.Millisecond)
		if cur := drained.Load(); cur == last {
			quiet++
		} else {
			last, quiet = cur, 0
		}
	}
	b.StopTimer()
	var fs netscope.FanoutStats
	loop.Invoke(func() { fs = srv.FanoutStats(); injected <- struct{}{} })
	<-injected
	b.ReportMetric(float64(last)/float64(b.N), "bytes/tuple")
	b.ReportMetric(float64(fs.Dropped+fs.WebDropped), "hub-dropped")
}
