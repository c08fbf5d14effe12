// Command gscope-bench reproduces the paper's overhead experiment (§4.6,
// experiment TAB-A in DESIGN.md): a CPU load program spins in a tight loop
// and counts iterations; the ratio of the count with a polling scope
// running versus idle estimates the scope's CPU overhead. It prints the
// same rows the paper reports: overhead at 10 ms and 50 ms polling, and
// the marginal cost of each additional signal.
//
// Usage:
//
//	gscope-bench [-window 400ms] [-reps 5] [-signals 1,8,16,32]
//	gscope-bench -soak 30s [-soak-publishers 4] [-soak-subscribers 8] [-chaos] [-seed 1]
//
// Feed ingest and flight-recorder throughput are measured by the CI-gated
// Go benchmarks (BenchmarkFeedPushPerSample, BenchmarkFeedPushBatch,
// BenchmarkProbeRecord, BenchmarkRecordAppend, BenchmarkReplayDrain).
//
// The -soak mode is a correctness harness, not a benchmark: it runs the
// whole pipeline (publishers → relay tree → hub → subscribers, with the
// flight recorder attached) under continuous invariant checks and exits
// non-zero on any violation. See soak.go.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/glib"
	"repro/internal/loadgen"
)

// config is the parsed and validated command line.
type config struct {
	window  time.Duration
	reps    int
	signals []int

	soak            time.Duration
	soakPublishers  int
	soakSubscribers int
	chaos           bool
	seed            int64
}

// parseFlags validates the command line into a config, mirroring the
// gscoped flag discipline: structurally impossible requests are rejected
// here with an error rather than silently clamped at run time.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("gscope-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		window   = fs.Duration("window", 400*time.Millisecond, "measurement window per phase")
		reps     = fs.Int("reps", 5, "repetitions (median taken)")
		signals  = fs.String("signals", "1,8,16,32", "signal counts for the per-signal sweep")
		soak     = fs.Duration("soak", 0, "run the full-pipeline soak for this long (0 disables)")
		soakPubs = fs.Int("soak-publishers", 4, "publisher clients for -soak")
		soakSubs = fs.Int("soak-subscribers", 8, "subscriber clients for -soak")
		chaos    = fs.Bool("chaos", false, "degrade the publisher links during -soak (delay, kills, partitions)")
		seed     = fs.Int64("seed", 1, "randomness seed for -chaos")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		window: *window,
		reps:   *reps,

		soak:            *soak,
		soakPublishers:  *soakPubs,
		soakSubscribers: *soakSubs,
		chaos:           *chaos,
		seed:            *seed,
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.soak < 0 {
		return config{}, fmt.Errorf("-soak must be positive, got %s", cfg.soak)
	}
	if cfg.soak > 0 && cfg.soak < time.Second {
		return config{}, fmt.Errorf("-soak needs at least 1s to quiesce, got %s", cfg.soak)
	}
	if cfg.chaos && cfg.soak == 0 {
		return config{}, fmt.Errorf("-chaos requires -soak")
	}
	if cfg.soak > 0 && (cfg.soakPublishers < 1 || cfg.soakPublishers > 64) {
		return config{}, fmt.Errorf("-soak-publishers must be between 1 and 64, got %d", cfg.soakPublishers)
	}
	if cfg.soak > 0 && (cfg.soakSubscribers < 1 || cfg.soakSubscribers > 64) {
		return config{}, fmt.Errorf("-soak-subscribers must be between 1 and 64, got %d", cfg.soakSubscribers)
	}
	if cfg.window <= 0 {
		return config{}, fmt.Errorf("-window must be positive, got %s", cfg.window)
	}
	if cfg.reps < 1 {
		return config{}, fmt.Errorf("-reps must be at least 1, got %d", cfg.reps)
	}
	for _, tok := range strings.Split(*signals, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		n, err := strconv.Atoi(tok)
		if err != nil || n < 1 {
			return config{}, fmt.Errorf("bad -signals entry %q", tok)
		}
		cfg.signals = append(cfg.signals, n)
	}
	if len(cfg.signals) == 0 {
		return config{}, fmt.Errorf("-signals lists no signal counts")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "gscope-bench:", err)
		os.Exit(2)
	}
	if err := runBench(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gscope-bench:", err)
		os.Exit(1)
	}
}

// runBench dispatches the selected experiment.
func runBench(cfg config, out io.Writer) error {
	if cfg.soak > 0 {
		return runSoak(cfg, out)
	}
	runOverheadSweep(cfg, out)
	return nil
}

// runOverheadSweep is the default §4.6 CPU-overhead experiment.
func runOverheadSweep(cfg config, out io.Writer) {
	fmt.Fprintln(out, "gscope overhead experiment (§4.6 methodology)")
	fmt.Fprintf(out, "window=%s reps=%d\n\n", cfg.window, cfg.reps)

	fmt.Fprintln(out, "polling period sweep (8 integer signals):")
	fmt.Fprintln(out, "  period   overhead    paper")
	for _, row := range []struct {
		period time.Duration
		paper  string
	}{
		{10 * time.Millisecond, "< 2%"},
		{50 * time.Millisecond, "< 1%"},
	} {
		oh := measureOverhead(cfg.reps, cfg.window, row.period, 8)
		fmt.Fprintf(out, "  %-7s  %6.2f%%     %s\n", row.period, oh, row.paper)
	}

	fmt.Fprintln(out, "\nsignal count sweep (10 ms period):")
	fmt.Fprintln(out, "  signals  overhead   delta/signal (paper: 0.02-0.05%/signal)")
	var prev float64
	var prevN int
	for i, n := range cfg.signals {
		oh := measureOverhead(cfg.reps, cfg.window, 10*time.Millisecond, n)
		if i == 0 {
			fmt.Fprintf(out, "  %-7d  %6.2f%%\n", n, oh)
		} else {
			delta := (oh - prev) / float64(n-prevN)
			fmt.Fprintf(out, "  %-7d  %6.2f%%    %+.3f%%\n", n, oh, delta)
		}
		prev, prevN = oh, n
	}
}

// measureOverhead runs a real-clock scope polling n integer signals at the
// given period while the load program spins.
func measureOverhead(reps int, window, period time.Duration, n int) float64 {
	res := loadgen.MeasureRepeated(reps, window, startScope(period, n, &stopper), stopScope(&stopper))
	return res.OverheadPercent()
}

// stopper carries the teardown between the start and stop callbacks.
var stopper func()

func startScope(period time.Duration, n int, cleanup *func()) func() {
	return func() {
		loop := glib.NewLoop(glib.RealClock{}, glib.WithGranularity(period))
		scope := core.New(loop, "bench", 600, 200)
		vars := make([]core.IntVar, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("sig%d", i)
			if _, err := scope.AddSignal(core.Sig{Name: name, Source: &vars[i]}); err != nil {
				panic(err)
			}
		}
		if err := scope.SetPollingMode(period); err != nil {
			panic(err)
		}
		if err := scope.StartPolling(); err != nil {
			panic(err)
		}
		done := make(chan struct{})
		go func() {
			loop.Run() //nolint:errcheck
			close(done)
		}()
		*cleanup = func() {
			loop.Quit()
			<-done
		}
	}
}

func stopScope(cleanup *func()) func() {
	return func() {
		if *cleanup != nil {
			(*cleanup)()
			*cleanup = nil
		}
	}
}
