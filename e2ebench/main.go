// Command e2ebench is gscope's end-to-end pipeline benchmark. One process
// runs a seeded load generator publishing through gscope.Registry probes,
// a netscope hub, and stand-in viewers on the TCP, web and UDP lanes; it
// times each marker sample from its record call (or, in the open loop,
// its due time) to its decode at every viewer, checks every delivered
// tuple against the generator, and prints the metrics as one JSON line:
//
//	{"correct":true,"attempted":N,"failed":M,"metrics":{"name":{"value":V,"unit":U},...}}
//
// Run it from the repository root through e2ebench/run.sh, which builds it
// first:
//
//	bash e2ebench/run.sh --workload fanout-tcp --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a window that alternates untraced and traced
// slices, and writes hop tables and a span dump under
// .bench_build/e2ebench. README.md has
// the workloads, the metric definitions and the layer mapping.
//
// Exit codes: 0 measured; 1 an output was wrong (the result line says
// "correct": false); 2 the benchmark could not run; 3 the run was invalid
// (a guard condition failed) and is not reported.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{log: stderr, corrupt: -1, setups: 7}
	fs.StringVar(&o.workload, "workload", "", "workload: fanout-tcp, web-fanout or paced-mixed")
	fs.Uint64Var(&o.seed, "seed", 1, "generator seed; the same seed gives the same stream")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from alternating untraced and traced slices")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "e2ebench"), "directory for recordings, reports and trace dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || o.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: need --trace 0|1, --seconds > 0 and no arguments")
		return 2
	}
	o.trace = *trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 2
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
