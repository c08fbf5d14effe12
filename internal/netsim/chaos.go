package netsim

// ChaosProxy is the package's real-time counterpart: where Sim replays
// network behavior in virtual time for the TCP/ECN experiments, the
// chaos proxy degrades *live* TCP connections — added delay and jitter,
// periodic connection kills, and temporary partitions — so soak and
// integration tests can drive the real publisher/hub stack through a
// misbehaving network. It is a test harness component, not a simulator:
// delay is applied per read chunk (serializing delivery), which bounds
// throughput but keeps the implementation free of reordering bugs of
// its own.

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// ChaosConfig configures a ChaosProxy. The zero value forwards
// transparently.
type ChaosConfig struct {
	// Delay is a base one-way delay added to every forwarded chunk, in
	// each direction.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter) per chunk.
	Jitter time.Duration
	// KillEvery closes every active connection pair at roughly this
	// interval (0 disables). Clients with reconnect logic ride through.
	KillEvery time.Duration
	// PartitionEvery starts a partition at roughly this interval
	// (0 disables): forwarding stalls in both directions, connections
	// stay up.
	PartitionEvery time.Duration
	// PartitionFor is how long each partition lasts (default 100ms).
	PartitionFor time.Duration
	// Seed fixes the jitter/interval randomness; 0 selects 1.
	Seed int64
}

// ChaosProxy forwards TCP connections to a target address through the
// configured degradations.
type ChaosProxy struct {
	cfg    ChaosConfig
	target string
	ln     net.Listener
	done   chan struct{}
	wg     sync.WaitGroup

	mu          sync.Mutex
	rng         *rand.Rand
	conns       map[net.Conn]struct{}
	partitioned bool
	closed      bool
	killed      int64
	partitions  int64
	forwarded   int64
}

// NewChaosProxy listens on a fresh loopback port and forwards every
// accepted connection to target through the configured chaos. Close
// releases the listener and every connection.
func NewChaosProxy(target string, cfg ChaosConfig) (*ChaosProxy, error) {
	if cfg.PartitionFor <= 0 {
		cfg.PartitionFor = 100 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &ChaosProxy{
		cfg:    cfg,
		target: target,
		ln:     ln,
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	if cfg.KillEvery > 0 {
		p.wg.Add(1)
		go p.killLoop()
	}
	if cfg.PartitionEvery > 0 {
		p.wg.Add(1)
		go p.partitionLoop()
	}
	return p, nil
}

// Addr returns the proxy's listen address, to be dialed in place of the
// target.
func (p *ChaosProxy) Addr() string { return p.ln.Addr().String() }

// Killed returns how many connection pairs the kill loop has severed.
func (p *ChaosProxy) Killed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killed
}

// Partitions returns how many partitions have been injected.
func (p *ChaosProxy) Partitions() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.partitions
}

// Forwarded returns the total bytes forwarded across both directions of
// every connection.
func (p *ChaosProxy) Forwarded() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.forwarded
}

// Close stops accepting, severs every connection, and waits for all
// proxy goroutines to exit.
func (p *ChaosProxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	err := p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *ChaosProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			up.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.conns[up] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(up, conn)
		go p.pipe(conn, up)
	}
}

// pipe forwards src→dst chunk by chunk through delay, jitter, and
// partitions, closing both ends when either side goes away so the peer's
// pipe unblocks too.
func (p *ChaosProxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	defer p.drop(dst, src)
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := p.chunkDelay(); d > 0 && !p.sleep(d) {
				return
			}
			if !p.waitUnpartitioned() {
				return
			}
			// Count before writing: the peer may read the bytes, and act
			// on them, before Write returns. Bytes a failed write did
			// not deliver are uncounted again.
			p.mu.Lock()
			p.forwarded += int64(n)
			p.mu.Unlock()
			if wn, werr := dst.Write(buf[:n]); werr != nil {
				p.mu.Lock()
				p.forwarded -= int64(n - wn)
				p.mu.Unlock()
				return
			}
		}
		if err != nil {
			return // EOF or reset either way: drop the pair
		}
	}
}

func (p *ChaosProxy) drop(a, b net.Conn) {
	a.Close()
	b.Close()
	p.mu.Lock()
	delete(p.conns, a)
	delete(p.conns, b)
	p.mu.Unlock()
}

func (p *ChaosProxy) chunkDelay() time.Duration {
	d := p.cfg.Delay
	if p.cfg.Jitter > 0 {
		p.mu.Lock()
		d += time.Duration(p.rng.Int63n(int64(p.cfg.Jitter)))
		p.mu.Unlock()
	}
	return d
}

// sleep waits d or until the proxy closes; false means closing.
func (p *ChaosProxy) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.done:
		return false
	}
}

// waitUnpartitioned blocks while a partition is in effect; false means
// the proxy is closing.
func (p *ChaosProxy) waitUnpartitioned() bool {
	for {
		p.mu.Lock()
		part := p.partitioned
		p.mu.Unlock()
		if !part {
			return true
		}
		if !p.sleep(time.Millisecond) {
			return false
		}
	}
}

// jittered returns base scaled by a random factor in [0.5, 1.5), so
// periodic chaos does not phase-lock with periodic traffic.
func (p *ChaosProxy) jittered(base time.Duration) time.Duration {
	p.mu.Lock()
	f := 0.5 + p.rng.Float64()
	p.mu.Unlock()
	return time.Duration(float64(base) * f)
}

func (p *ChaosProxy) killLoop() {
	defer p.wg.Done()
	for {
		if !p.sleep(p.jittered(p.cfg.KillEvery)) {
			return
		}
		p.mu.Lock()
		n := len(p.conns)
		for c := range p.conns {
			c.Close()
		}
		if n > 0 {
			p.killed += int64(n) / 2
		}
		p.mu.Unlock()
	}
}

func (p *ChaosProxy) partitionLoop() {
	defer p.wg.Done()
	for {
		if !p.sleep(p.jittered(p.cfg.PartitionEvery)) {
			return
		}
		p.mu.Lock()
		p.partitioned = true
		p.partitions++
		p.mu.Unlock()
		if !p.sleep(p.cfg.PartitionFor) {
			return
		}
		p.mu.Lock()
		p.partitioned = false
		p.mu.Unlock()
	}
}
