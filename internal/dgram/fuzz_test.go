package dgram

import (
	"math"
	"testing"
	"time"

	"repro/internal/fuzzgen"
	"repro/internal/tuple"
)

// bareReceiver builds a Receiver with no socket and no goroutines: just
// the ingest path, which is exactly what the fuzz targets attack. The
// expiry/NACK sweep never runs, so gaps stay open — harmless, the jitter
// buffer is bounded by MaxBuffered regardless.
func bareReceiver(release func([]tuple.Tuple), opt Options) *Receiver {
	return &Receiver{
		release: release,
		opt:     opt.withDefaults(),
		now:     time.Now,
		dec:     tuple.NewStreamDecoder(),
		sources: make(map[string]*source),
		done:    make(chan struct{}),
	}
}

// FuzzDgramDecode throws adversarial bytes at the whole receive path:
// header parse, chunk decode, jitter-buffer accounting. The invariants —
// no panic, no tuple fabricated from garbage without a decodable chunk
// behind it, malformed datagrams counted and never sticky — must hold
// for any byte string (WIRE.md §D4).
func FuzzDgramDecode(f *testing.F) {
	// Seeds: one valid datagram, truncations of it, flipped magic/version,
	// a NACK aimed at a receiver, and unstructured garbage.
	enc := tuple.NewDatagramEncoder()
	valid := appendHeader(nil, TypeData, 7, 1, 0)
	valid = enc.AppendDatagram(valid, []tuple.Tuple{
		{Time: 100, Value: 1.5, Name: "a"}, {Time: 110, Value: -2.5, Name: "b"},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:4])
	f.Add(append([]byte{}, 0xD6))
	f.Add([]byte{Magic, Version, TypeNack, 7, 1, 2, 0, 1})
	f.Add([]byte{Magic, 0x42, TypeData, 1, 1, 0})
	f.Add([]byte("total garbage, not a datagram at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var released int
		r := bareReceiver(func(b []tuple.Tuple) { released += len(b) }, Options{MaxNacks: -1})
		from := fakeAddr("fuzz")

		// The input as one datagram, then resliced as two, then the valid
		// prefix dance: every split must be independently survivable.
		r.ingest(data, from)
		if len(data) > 2 {
			r.ingest(data[:len(data)/2], from)
			r.ingest(data[len(data)/2:], from)
		}
		// A known-good datagram afterward must still decode: per-datagram
		// errors may never poison the shared decoder or the source table.
		before := released
		r.ingest(valid, from)
		st := r.Stats()
		if released == before && st.Late == 0 && st.Duplicates == 0 && st.StaleEpoch == 0 && st.Lost == 0 {
			// The valid datagram may legitimately land behind a fuzzed
			// datagram that claimed the same stream at a higher seq or
			// epoch (late/stale/duplicate/resync) — but if none of those
			// counters moved, it must have been released.
			if st.Released == 0 {
				t.Fatalf("valid datagram neither released nor accounted: %+v", st)
			}
		}
		if released < 0 || st.Malformed < 0 {
			t.Fatalf("counter underflow: released=%d stats=%+v", released, st)
		}
	})
}

// FuzzDgramDifferential is the lossy-lane counterpart of
// FuzzWireV3Differential: generate a tuple stream, packetize it into
// datagrams, then let the fuzzer drop, duplicate and reorder them. The
// released stream must be a subsequence of the original (datagram
// granularity): the UDP lane may lose tuples, it may never corrupt,
// reorder or duplicate them relative to what the TCP lane would deliver.
func FuzzDgramDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x13, 0x37})
	f.Add([]byte("drop the third datagram, deliver the rest backwards"))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzgen.New(data)
		ts := src.Tuples(256, false)

		// Packetize exactly as a Publisher would (bounded runs, one
		// self-contained chunk per datagram), sequence numbers 0..n.
		enc := tuple.NewDatagramEncoder()
		var dgrams [][]byte
		var chunks [][]tuple.Tuple
		for i := 0; i < len(ts); {
			n := 1 + src.Intn(32)
			if i+n > len(ts) {
				n = len(ts) - i
			}
			pkt := appendHeader(nil, TypeData, 1, 1, uint64(len(dgrams)))
			pkt = enc.AppendDatagram(pkt, ts[i:i+n])
			dgrams = append(dgrams, pkt)
			chunks = append(chunks, ts[i:i+n])
			i += n
		}

		// Fuzzer-chosen delivery schedule: each datagram dropped, sent
		// once, or sent twice, at a fuzzer-chosen position.
		type delivery struct{ idx, at int }
		var plan []delivery
		kept := make([]bool, len(dgrams))
		for i := range dgrams {
			switch src.Intn(4) {
			case 0: // dropped
			case 1: // duplicated
				kept[i] = true
				plan = append(plan, delivery{i, src.Intn(1 << 16)}, delivery{i, src.Intn(1 << 16)})
			default:
				kept[i] = true
				plan = append(plan, delivery{i, src.Intn(1 << 16)})
			}
		}
		// Stable insertion sort by position: deterministic, no stdlib
		// sort needed for these small plans.
		for i := 1; i < len(plan); i++ {
			for j := i; j > 0 && plan[j].at < plan[j-1].at; j-- {
				plan[j], plan[j-1] = plan[j-1], plan[j]
			}
		}

		var released []tuple.Tuple
		r := bareReceiver(func(b []tuple.Tuple) {
			released = append(released, b...)
		}, Options{MaxNacks: -1, MaxBuffered: 64})
		from := fakeAddr("pub")
		for _, d := range plan {
			r.ingest(dgrams[d.idx], from)
		}

		// Differential check: the released stream must be a prefix-free
		// subsequence of the original tuple stream — every released tuple
		// matches the next unconsumed original tuple (bit-exact values),
		// with skips allowed (lost/late datagrams), no reordering, no
		// duplication.
		pos := 0
		for ri, rt := range released {
			matched := false
			for pos < len(ts) {
				ot := ts[pos]
				pos++
				if rt.Time == ot.Time && rt.Name == ot.Name &&
					math.Float64bits(rt.Value) == math.Float64bits(ot.Value) {
					matched = true
					break
				}
			}
			if !matched {
				t.Fatalf("released tuple %d (%+v) is not a subsequence match of the original %d-tuple stream",
					ri, rt, len(ts))
			}
		}
	})
}
