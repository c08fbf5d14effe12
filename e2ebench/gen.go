package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	gscope "repro"
)

// Stream shape shared by the generator, the publishers and the oracle.
const (
	// dataSigs is the number of telemetry signals each publisher owns. The
	// first half are named ".lo.", the second ".hi.", so one glob
	// subscribes a viewer to half of them.
	dataSigs = 32
	// stride is the number of signals per publisher: the data signals,
	// then the marker.
	stride = dataSigs + 1
	// perRound is how many samples of every data signal one closed-loop
	// round carries.
	perRound = 16
)

// Gen is the seeded load generator, a component separate from the system
// under test. Every tuple a publisher records and every value the oracle
// expects is a pure function of (seed, publisher, signal, sample index),
// so the same seed always yields the same stream and the program sees
// nothing but generated tuples.
//
// Each publisher owns dataSigs telemetry signals and one marker signal,
// bench.mark.p<i>, whose values are its own sequence numbers. Markers
// carry the latency measurement and live only on their own signals; the
// telemetry signals carry counter ramps, sawtooth, steps and quantized
// noise, so wire compression and bytes per tuple stay representative.
//
// Timestamps are stream time, independent of run speed. In a closed loop,
// round r carries samples k = r*perRound … r*perRound+perRound-1 of every
// data signal, sample k stamped k ms, and then marker r stamped at the
// round's last millisecond. In an open loop, tick t carries sample t of
// every signal, the marker included, all stamped t ms.
type Gen struct {
	seed  uint64
	open  bool
	names [][]string // [publisher][signal]; index dataSigs is the marker
	shape [][dataSigs]shape
}

type shapeKind uint8

const (
	ramp shapeKind = iota
	saw
	step
	noise
)

// shape parameterizes one telemetry signal.
type shape struct {
	kind   shapeKind
	base   float64
	scale  float64
	period int64
}

// NewGen derives the signal set of pubs publishers from seed; open selects
// the open-loop stamp layout.
func NewGen(seed uint64, pubs int, open bool) *Gen {
	g := &Gen{seed: seed, open: open}
	for p := 0; p < pubs; p++ {
		names := make([]string, stride)
		var shapes [dataSigs]shape
		for s := range shapes {
			half := "lo"
			if s >= dataSigs/2 {
				half = "hi"
			}
			names[s] = fmt.Sprintf("bench.p%d.%s.s%02d", p, half, s)
			h := g.hash(p, s, -1)
			sh := shape{kind: shapeKind(s % 4)}
			switch sh.kind {
			case ramp: // a counter: integer base and increment
				sh.base = float64(h % 1000)
				sh.scale = float64(1 + (h>>10)%8)
			case saw: // a utilisation-like sawtooth with a fractional slope
				sh.base = float64(1 + h%100)
				sh.scale = float64(10 + (h>>10)%90)
				sh.period = int64(50 + (h>>20)%450)
			case step: // a level that holds, then jumps
				sh.period = int64(20 + (h>>20)%200)
			case noise: // a reading with two decimals of jitter
				sh.base = float64(100 + h%900)
			}
			shapes[s] = sh
		}
		names[dataSigs] = fmt.Sprintf("bench.mark.p%d", p)
		g.names = append(g.names, names)
		g.shape = append(g.shape, shapes)
	}
	return g
}

// Name returns signal s of publisher p (s == dataSigs is the marker).
func (g *Gen) Name(p, s int) string { return g.names[p][s] }

// Value returns sample k of signal s of publisher p. A marker's value is
// its sequence number. No value is negative zero or non-finite, so every
// wire encoding carries it bit-exactly.
func (g *Gen) Value(p, s int, k int64) float64 {
	if s == dataSigs {
		return float64(k)
	}
	sh := &g.shape[p][s]
	switch sh.kind {
	case ramp:
		return sh.base + sh.scale*float64(k)
	case saw:
		return sh.base + sh.scale*float64(k%sh.period)/float64(sh.period)
	case step:
		return float64(g.hash(p, s, k/sh.period) % 1000)
	default:
		return sh.base + float64(int64(g.hash(p, s, k)%2001)-1000)/100
	}
}

// Stamp returns the stream time in ms of sample k of a data signal, or of
// marker k.
func (g *Gen) Stamp(marker bool, k int64) int64 {
	if marker && !g.open {
		return k*perRound + perRound - 1
	}
	return k
}

// Index inverts Stamp: the sample index a delivered stamp belongs to, or
// false when the generator never stamps a sample of that kind so.
func (g *Gen) Index(marker bool, ms int64) (int64, bool) {
	switch {
	case ms < 0:
		return 0, false
	case marker && !g.open:
		if ms%perRound != perRound-1 {
			return 0, false
		}
		return ms / perRound, true
	default:
		return ms, true
	}
}

// UnitTuples is how many tuples one round (closed loop) or tick (open
// loop) of one publisher carries, its marker included.
func (g *Gen) UnitTuples() int64 {
	if g.open {
		return stride
	}
	return dataSigs*perRound + 1
}

// Samples returns how many samples of signal s the first units rounds or
// ticks carry.
func (g *Gen) Samples(s int, units int64) int64 {
	if g.open || s == dataSigs {
		return units
	}
	return units * perRound
}

// Round fills dst[s] with round r of data signal s of publisher p.
func (g *Gen) Round(p int, r int64, dst *[dataSigs][perRound]gscope.Sample) {
	for s := range dst {
		for j := range dst[s] {
			k := r*perRound + int64(j)
			dst[s][j] = gscope.Sample{At: time.Duration(k) * time.Millisecond, Value: g.Value(p, s, k)}
		}
	}
}

// Checksum hashes the first units rounds or ticks of every publisher's
// stream in recording order: names, stamps and value bits.
func (g *Gen) Checksum(units int64) uint64 {
	h := fnv.New64a()
	var b [16]byte
	put := func(name string, ms int64, v float64) {
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(b[:8], uint64(ms))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(v))
		h.Write(b[:])
	}
	var round [dataSigs][perRound]gscope.Sample
	for p := range g.names {
		for u := int64(0); u < units; u++ {
			if g.open {
				for s := 0; s < stride; s++ {
					put(g.names[p][s], u, g.Value(p, s, u))
				}
				continue
			}
			g.Round(p, u, &round)
			for s := range round {
				for _, smp := range round[s] {
					put(g.names[p][s], smp.At.Milliseconds(), smp.Value)
				}
			}
			put(g.names[p][dataSigs], g.Stamp(true, u), float64(u))
		}
	}
	return h.Sum64()
}

func (g *Gen) hash(p, s int, k int64) uint64 {
	return splitmix(g.seed ^ uint64(p+1)*0x9E3779B97F4A7C15 ^ uint64(s+1)*0xC2B2AE3D27D4EB4F ^ uint64(k)*0x165667B19E3779F9)
}

// splitmix is the SplitMix64 finalizer: cheap and well mixed.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}
