package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/tuple"
)

// tiny is a run small enough for a smoke test.
func tiny(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 7, seconds: 0.6, trace: traced, setups: 1,
		out: t.TempDir(), log: io.Discard, corrupt: -1}
}

// benchSpec is the part of BENCHMARK.json the smoke tests check against.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode: BENCHMARK.json lists exactly the workloads and
// metrics, with units, that the benchmark reports.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		spec []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", c.what, len(c.spec), len(c.code))
		}
		for i, m := range c.spec {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], code %s [%s]", c.what, i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly, untraced
// and traced: every named metric is present with its unit, nothing fails,
// and the oracle passes.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, err := run(tiny(t, w.name, traced))
				if raceEnabled && w.open && errors.Is(err, errInvalid) {
					// The race detector slows the process past the open
					// loop's schedule; the run itself still went under it.
					t.Skip(err)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s = %v", d.name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced && res.Metrics["fail_ratio"].Value != 0 {
					t.Errorf("fail_ratio = %v", res.Metrics["fail_ratio"].Value)
				}
			})
		}
	}
}

// TestOracleCatchesCorruptedValue: one bit-flipped sample, on the TCP and
// on the recorded open-loop lanes, makes the run incorrect.
func TestOracleCatchesCorruptedValue(t *testing.T) {
	for _, w := range []string{"fanout-tcp", "paced-mixed"} {
		t.Run(w, func(t *testing.T) {
			o := tiny(t, w, false)
			o.corrupt = 5
			res, err := run(o)
			if raceEnabled && w == "paced-mixed" && errors.Is(err, errInvalid) {
				t.Skip(err) // as in TestEveryWorkloadReportsEveryMetric
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Fatal("a corrupted sample passed the oracle")
			}
		})
	}
}

// TestSameSeedSameStream: the generator is a pure function of its seed.
func TestSameSeedSameStream(t *testing.T) {
	for _, open := range []bool{false, true} {
		a, b := NewGen(7, 2, open).Checksum(50), NewGen(7, 2, open).Checksum(50)
		if a != b {
			t.Errorf("open=%v: seed 7 gave checksums %x and %x", open, a, b)
		}
		if c := NewGen(8, 2, open).Checksum(50); c == a {
			t.Errorf("open=%v: seeds 7 and 8 gave the same checksum %x", open, a)
		}
	}
}

// TestSSEParser: the parser recovers exactly what the gateway's encoder
// wrote, however the stream is split across reads, without allocating.
func TestSSEParser(t *testing.T) {
	g := NewGen(3, 1, false)
	names := map[string]int32{}
	var batch []tuple.Tuple
	var want []obs
	for s := 0; s < stride; s++ {
		names[g.Name(0, s)] = int32(s)
		for k := int64(0); k < 3; k++ {
			ms, v := g.Stamp(s == dataSigs, k), g.Value(0, s, k)
			batch = append(batch, tuple.Tuple{Time: ms, Value: v, Name: g.Name(0, s)})
			want = append(want, obs{sig: int32(s), ms: ms, val: v})
		}
	}
	stream := []byte("event: hello\ndata: {\"proto\":2}\n\nevent: control\ndata: {\"verb\":\"snapshot-end\",\"fields\":[]}\n\n")
	stream = append(stream, "event: batch\ndata: "...)
	stream = tuple.AppendJSONBatch(stream, batch)
	stream = append(stream, "\n\n"...)
	for cut := 0; cut <= len(stream); cut++ {
		p := &sseParser{names: names}
		got, err := p.feed(stream[:cut], nil)
		if err == nil {
			got, err = p.feed(stream[cut:], got)
		}
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !p.snapEnd || len(got) != len(want) {
			t.Fatalf("cut %d: snapshot-end %v, %d tuples, want %d", cut, p.snapEnd, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: tuple %d = %+v, want %+v", cut, i, got[i], want[i])
			}
		}
	}
	p := &sseParser{names: names}
	out := make([]obs, 0, len(want))
	if allocs := testing.AllocsPerRun(100, func() { out, _ = p.feed(stream, out[:0]) }); allocs != 0 {
		t.Errorf("parser allocates %v times per stream", allocs)
	}
}
