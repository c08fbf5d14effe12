package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
	"unsafe"
)

// The reference pipeline measures how fast this machine runs a pipeline
// right now. Cores shared with other tenants change speed by tens of
// percent within seconds (turbo frequency, a busy hyperthread sibling, slow
// cross-CPU wake-ups), and every timed metric of a saturated closed loop
// moves with them. The reference has the real pipeline's shape but shares
// no code with it: a writer goroutine formats float samples as text lines
// and writes them in frames over a loopback TCP connection, a reader
// parses them back and returns a credit per frame, and a window of
// refWindow frames closes the loop. Its frame rate therefore changes only
// with the machine, and the closed loops scale their timed metrics by it.

const (
	refLines  = 256 // samples per frame
	refWindow = 4   // frames in flight
	// refRun is how long one reference measurement runs.
	refRun = 150 * time.Millisecond
	// refNominal is the frame rate that counts as speed 1: roughly the
	// reference's rate on an idle 2-vCPU 2.1 GHz Xeon VM.
	refNominal = 25000.0
	// refTries bounds the measurements speed takes before it gives up on
	// one that no garbage collection overlaps.
	refTries = 4
)

// speed measures the machine: the reference's frame rate over refNominal.
// The process's heap belongs to the pipeline, so a garbage collection
// finishing during a measurement is the pipeline's work taking a P from
// the reference, not the machine slowing down; such a measurement is
// taken again. When every try overlaps one, the sample is dropped and the
// last clean speed stands in for it (the first measurement has none and
// keeps its own).
func (rp *refPipe) speed() (float64, error) {
	for try := 1; ; try++ {
		before := gcCycles(rp.gc)
		r, err := rp.run(refRun)
		if err != nil {
			return 0, err
		}
		if gcCycles(rp.gc) == before {
			rp.last = r / refNominal
			return rp.last, nil
		}
		rp.gcRetries++
		if try == refTries {
			rp.gcDropped++
			if rp.last == 0 {
				rp.last = r / refNominal
			}
			return rp.last, nil
		}
	}
}

func gcCycles(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

var errBadFrame = errors.New("reference pipeline: malformed frame")

// refPipe is the reference pipeline's connection, kept open across
// measurements.
type refPipe struct {
	w, r net.Conn
	rbuf []byte
	sink float64
	gc   []metrics.Sample // the runtime's completed GC cycles

	last                 float64 // the last speed no collection overlapped
	gcRetries, gcDropped int     // measurements retaken, samples dropped
}

func newRefPipe() (*refPipe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	w, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		ln.Close()
		if c := <-accepted; c != nil {
			c.Close()
		}
		return nil, err
	}
	r := <-accepted
	if r == nil {
		w.Close()
		return nil, errors.New("reference pipeline: accept failed")
	}
	return &refPipe{w: w, r: r, rbuf: make([]byte, 16<<10), gc: []metrics.Sample{{Name: rtGCCycles}}}, nil
}

func (rp *refPipe) close() {
	rp.w.Close()
	rp.r.Close()
}

// run pushes frames through the reference pipeline for d and returns
// frames per second.
func (rp *refPipe) run(d time.Duration) (float64, error) {
	credit := make(chan struct{}, refWindow) // one token per frame in flight
	for i := 0; i < refWindow; i++ {
		credit <- struct{}{}
	}
	stop := make(chan struct{})
	var (
		wg      sync.WaitGroup
		written int
		werr    error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 0, 16<<10)
		for k := 0; ; k++ {
			select {
			case <-credit:
			case <-stop:
				return
			}
			buf = append(buf[:0], 0, 0, 0, 0)
			for j := 0; j < refLines; j++ {
				buf = strconv.AppendInt(buf, int64(k*refLines+j), 10)
				buf = append(buf, ' ')
				buf = strconv.AppendFloat(buf, float64(j)*1.37+float64(k%97), 'g', -1, 64)
				buf = append(buf, '\n')
			}
			binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
			if _, werr = rp.w.Write(buf); werr != nil {
				return
			}
			written++
		}
	}()
	var err error
	frames, start := 0, now()
	for end := start + int64(d); err == nil && now() < end; frames++ {
		if err = rp.frame(); err == nil {
			credit <- struct{}{}
		}
	}
	elapsed := now() - start
	close(stop)
	wg.Wait()
	for read := frames; err == nil && read < written; read++ {
		err = rp.frame()
	}
	if err == nil {
		err = werr
	}
	if err != nil {
		return 0, fmt.Errorf("reference pipeline: %w", err)
	}
	return float64(frames) / (float64(elapsed) / 1e9), nil
}

// frame reads one frame and parses its lines.
func (rp *refPipe) frame() error {
	var hdr [4]byte
	if _, err := io.ReadFull(rp.r, hdr[:]); err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > len(rp.rbuf) {
		return errBadFrame
	}
	b := rp.rbuf[:n]
	if _, err := io.ReadFull(rp.r, b); err != nil {
		return err
	}
	for len(b) > 0 {
		sp, nl := bytes.IndexByte(b, ' '), bytes.IndexByte(b, '\n')
		if sp <= 0 || nl < sp+2 {
			return errBadFrame
		}
		k, ok := atoi(b[:sp])
		v, err := strconv.ParseFloat(unsafe.String(&b[sp+1], nl-sp-1), 64)
		if !ok || err != nil {
			return errBadFrame
		}
		rp.sink += v + float64(k)
		b = b[nl+1:]
	}
	return nil
}
