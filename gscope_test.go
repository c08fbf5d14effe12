package gscope

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/tuple"
)

// TestFigure6ProgramStructure exercises the paper's Figure 6 sample
// program through the public facade: create a scope, register the
// elephants signal, set 50 ms polling mode, start polling, drive signal
// changes from an event source on the same loop, run. (Experiment FIG6 in
// DESIGN.md; examples/quickstart is the runnable twin of this test.)
func TestFigure6ProgramStructure(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	loop := NewLoopGranularity(clock, 0)

	// scope = gtk_scope_new(name, width, height);
	scope := New(loop, "fig6", 600, 200)

	// GtkScopeSig elephants_sig = {...}; gtk_scope_signal_new(scope, sig);
	var elephants IntVar
	sig, err := scope.AddSignal(Sig{Name: "elephants", Source: &elephants, Min: 0, Max: 40})
	if err != nil {
		t.Fatal(err)
	}

	// gtk_scope_set_polling_mode(scope, 50);
	if err := scope.SetPollingMode(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// gtk_scope_start_polling(scope);
	if err := scope.StartPolling(); err != nil {
		t.Fatal(err)
	}

	// g_io_add_watch(..., read_program, fd); — modeled as a control
	// callback on the same loop mutating the signal variable, like
	// read_program reacting to control data.
	loop.TimeoutAdd(200*time.Millisecond, func(int) bool {
		if elephants.Load() == 8 {
			elephants.Store(16)
		} else {
			elephants.Store(8)
		}
		return true
	})
	elephants.Store(8)

	// gtk_main(); — three virtual seconds.
	loop.Advance(3 * time.Second)

	if got := scope.Stats().Polls; got != 60 {
		t.Fatalf("polls = %d, want 60", got)
	}
	lo, hi, ok := sig.Trace().MinMax()
	if !ok || lo != 8 || hi != 16 {
		t.Fatalf("elephants trace range %v..%v, want 8..16", lo, hi)
	}
}

// TestFacadeEndToEnd drives every facade surface an application touches:
// parameters, aggregation, buffered push, recording, snapshot.
func TestFacadeEndToEnd(t *testing.T) {
	clock := NewVirtualClock(time.Unix(0, 0))
	loop := NewLoopGranularity(clock, 0)
	scope := New(loop, "e2e", 320, 120)

	var bw FloatVar
	if _, err := scope.AddSignal(Sig{Name: "float", Source: &bw}); err != nil {
		t.Fatal(err)
	}
	if _, err := scope.AddSignal(Sig{Name: "pkts", Agg: AggEvents}); err != nil {
		t.Fatal(err)
	}
	if _, err := scope.AddSignal(Sig{Name: "remote", Kind: KindBuffer}); err != nil {
		t.Fatal(err)
	}

	params := NewParams()
	var rate IntVar
	rate.Store(100)
	if err := params.Add(IntParam("rate", &rate, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := params.Set("rate", 250); err != nil {
		t.Fatal(err)
	}
	if rate.Load() != 250 {
		t.Fatal("param write-through failed")
	}

	var rec bytes.Buffer
	scope.SetRecorder(&rec)
	if err := scope.SetPollingMode(DefaultPeriod); err != nil {
		t.Fatal(err)
	}
	if err := scope.StartPolling(); err != nil {
		t.Fatal(err)
	}

	bw.Store(12.5)
	scope.Event("pkts", 1)
	scope.Event("pkts", 1)
	scope.Push(10*time.Millisecond, "remote", 77)
	loop.Advance(500 * time.Millisecond)

	if v := scope.Signal("float").Value(); v != 12.5 {
		t.Fatalf("float value = %v", v)
	}
	if v, ok := scope.Signal("remote").Trace().Last(); !ok || v != 77 {
		t.Fatalf("remote = %v ok=%v", v, ok)
	}
	// Events were counted in the first interval.
	if lo, hi, ok := scope.Signal("pkts").Trace().MinMax(); !ok || lo != 0 || hi != 2 {
		t.Fatalf("pkts range %v..%v", lo, hi)
	}

	scope.FlushRecorder() //nolint:errcheck
	tuples, err := tuple.NewReader(&rec, true).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) == 0 {
		t.Fatal("nothing recorded")
	}

	frame := scope.Snapshot()
	if frame.W != 320 || frame.H != 120 {
		t.Fatalf("snapshot %dx%d", frame.W, frame.H)
	}
}

// TestThreadSafetyViaInvoke verifies the §4.3 discipline: application
// goroutines mutate scope state through Loop.Invoke (the "global GTK
// lock") while Event/Push stay directly thread-safe.
func TestThreadSafetyViaInvoke(t *testing.T) {
	loop := NewLoop(nil) // real clock
	scope := New(loop, "mt", 160, 80)
	if _, err := scope.AddSignal(Sig{Name: "e", Agg: AggSum}); err != nil {
		t.Fatal(err)
	}
	if err := scope.SetPollingMode(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			scope.Event("e", 1) // thread-safe directly
		}
		loop.Invoke(func() {
			scope.SetZoom(2) // GUI-thread-only state via Invoke
		})
	}()

	loop.Invoke(func() {
		if err := scope.StartPolling(); err != nil {
			t.Error(err)
		}
	})
	quitTimer := time.AfterFunc(2*time.Second, loop.Quit)
	defer quitTimer.Stop()
	go func() {
		<-done
		time.Sleep(50 * time.Millisecond)
		loop.Quit()
	}()
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if scope.Zoom() != 2 {
		t.Fatal("Invoke mutation lost")
	}
	if lo, hi, ok := scope.Signal("e").Trace().MinMax(); ok && (lo < 0 || hi > 100) {
		t.Fatalf("aggregated range %v..%v", lo, hi)
	}
}

func TestConstantsReexported(t *testing.T) {
	if KindBuffer.String() != "BUFFER" {
		t.Fatal("kind constants not wired")
	}
	if AggRate.String() != "rate" {
		t.Fatal("agg constants not wired")
	}
	if DefaultPeriod != 50*time.Millisecond {
		t.Fatal("default period should match Figure 6")
	}
	if DefaultTickGranularity != 10*time.Millisecond {
		t.Fatal("tick granularity should match §4.5")
	}
	if FreqDomain.String() != "frequency" || TimeDomain.String() != "time" {
		t.Fatal("domain constants not wired")
	}
	if LinePoints.String() != "points" {
		t.Fatal("line constants not wired")
	}
	if ModeStopped.String() != "stopped" || ModePolling.String() != "polling" || ModePlayback.String() != "playback" {
		t.Fatal("mode constants not wired")
	}
}

func TestFuncWithArgsFacade(t *testing.T) {
	src := FuncWithArgs(func(a, b any) float64 { return float64(a.(int) * b.(int)) }, 6, 7)
	if v, ok := src.Sample(); !ok || v != 42 {
		t.Fatalf("sample = %v", v)
	}
}

func TestBoolParamFacade(t *testing.T) {
	params := NewParams()
	var b BoolVar
	var f FloatVar
	if err := params.Add(BoolParam("flag", &b)); err != nil {
		t.Fatal(err)
	}
	if err := params.Add(FloatParam("g", &f, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := params.Set("flag", 1); err != nil {
		t.Fatal(err)
	}
	if !b.Load() {
		t.Fatal("bool param")
	}
}

// TestSubscribeNetV2Facade drives the v2 query/control plane end to end
// through the public facade only: a filtered, backfilled subscription plus
// a remote parameter set, the shapes the README advertises.
func TestSubscribeNetV2Facade(t *testing.T) {
	loop := NewLoop(nil) // real clock
	srv := NewNetServer(loop)
	params := NewParams()
	var gain IntVar
	if err := params.Add(IntParam("gain", &gain, 0, 10)); err != nil {
		t.Fatal(err)
	}
	srv.SetParams(params)
	srv.SetSnapshotWindow(time.Hour)
	subAddr, err := srv.ListenSubscribers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		loop.Run() //nolint:errcheck
		close(done)
	}()
	defer func() {
		loop.Quit()
		<-done
	}()

	inject := func(ts Tuple) { loop.Invoke(func() { srv.Inject(ts) }) }
	for i := int64(1); i <= 5; i++ {
		inject(Tuple{Time: i * 1000, Value: float64(i), Name: "cpu.user"})
		inject(Tuple{Time: i * 1000, Value: float64(-i), Name: "mem"})
	}

	var mu sync.Mutex
	var got []Tuple
	frames := make(chan ControlFrame, 16)
	sub, err := SubscribeNet(loop, subAddr.String(), func(tu Tuple) {
		mu.Lock()
		got = append(got, tu)
		mu.Unlock()
	}, WithSignals("cpu.*"), WithSince(-3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	sub.OnControl(func(f ControlFrame) {
		select {
		case frames <- f:
		default:
		}
	})

	wait := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatal("timed out: " + what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Backfill: cpu.* tuples stamped in [2000, 5000] — three of them.
	wait(func() bool { return sub.Backfilled() >= 3 }, "backfill")
	inject(Tuple{Time: 6000, Value: 6, Name: "cpu.user"})
	inject(Tuple{Time: 6000, Value: -6, Name: "mem"})
	wait(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 4
	}, "live delta")
	mu.Lock()
	for _, tu := range got {
		if tu.Name != "cpu.user" {
			t.Fatalf("filter leaked %+v", tu)
		}
	}
	if got[0].Time != 2000 {
		t.Fatalf("backfill starts at %d, want 2000", got[0].Time)
	}
	mu.Unlock()

	// Remote parameter: set over the wire, clamped, observed in-process.
	if err := sub.Command("param set gain 99"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var f ControlFrame
		select {
		case f = <-frames:
		case <-time.After(50 * time.Millisecond):
		}
		if f.Verb == "param-ok" {
			if f.Arg(0) != "gain" || f.Arg(1) != "10" {
				t.Fatalf("param-ok = %+v", f)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no param-ok frame")
		}
	}
	if gain.Load() != 10 {
		t.Fatalf("gain = %d, want 10 (clamped)", gain.Load())
	}
	// Hub state is loop-owned; read the stats there.
	stats := make(chan FanoutStats, 1)
	loop.Invoke(func() { stats <- srv.FanoutStats() })
	if st := <-stats; st.Filtered == 0 {
		t.Fatal("fan-out stats show no filtering")
	}
}
