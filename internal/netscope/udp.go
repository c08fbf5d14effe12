package netscope

// The datagram publish lane: a netscope Client that ships its queue over
// internal/dgram instead of a TCP stream, and the Server listener that
// ingests datagram publishers next to the stream ones. The Client side
// keeps the exact send API and queue discipline (bounded, drop-oldest,
// never blocks the instrumented application); what changes is the
// failure mode — a lossy network shows up as counted gaps at the hub
// instead of head-of-line blocking at the publisher (docs/WIRE.md §D).

import (
	"fmt"
	"net"

	"repro/internal/dgram"
	"repro/internal/tuple"
)

// DialUDP returns a Client publishing to a server's datagram listener
// (Server.ListenPublishersUDP). The lane always uses the v3 binary
// chunks — each datagram is self-contained, so SetWireVersion does not
// apply — and it never reconnects because there is no connection: sends
// just keep flowing, and whatever the network eats the receiver accounts
// as loss, recovering what it can through NACKs.
func DialUDP(addr string) (*Client, error) {
	pub, err := dgram.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("netscope: %w", err)
	}
	c := &Client{
		addr: addr,
		udp:  pub,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.writer()
	return c, nil
}

// UDPStats returns the datagram publisher's counters; ok is false for
// stream clients.
func (c *Client) UDPStats() (st dgram.PublisherStats, ok bool) {
	if c.udp == nil {
		return dgram.PublisherStats{}, false
	}
	return c.udp.Stats(), true
}

// ListenPublishersUDP starts the datagram publisher listener: every
// in-order release from the reorder/jitter buffer is handed to the loop
// and injected exactly like a decoded TCP batch, so recorder, flight
// log, scopes and subscriber fan-out see one merged stream. Loss,
// reorder and recovery counters surface in FanoutStats and per source
// via UDPSourceStats.
func (s *Server) ListenPublishersUDP(addr string) (net.Addr, error) {
	if s.udpRecv != nil {
		return nil, fmt.Errorf("netscope: datagram listener already active")
	}
	rcv, err := dgram.Listen(addr, func(batch []tuple.Tuple) {
		// The release callback runs on the receiver's goroutine with its
		// lock held; it must not block. Copy the reused slice and hop to
		// the loop goroutine, which owns all ingest state.
		cp := append([]tuple.Tuple(nil), batch...)
		s.loop.Invoke(func() { s.InjectBatch(cp) })
	}, dgram.Options{})
	if err != nil {
		return nil, err
	}
	s.udpRecv = rcv
	return rcv.Addr(), nil
}

// UDPSourceStats snapshots the per-publisher transport counters of the
// datagram listener (nil without one).
func (s *Server) UDPSourceStats() []dgram.SourceStats {
	if s.udpRecv == nil {
		return nil
	}
	return s.udpRecv.SourceStats()
}

// AppendUDPStats renders the datagram transport counters into dst
// without allocating — the -ansi status line repaints it every second.
// With no datagram listener dst is returned unchanged.
func (s *Server) AppendUDPStats(dst []byte) []byte {
	if s.udpRecv == nil {
		return dst
	}
	return s.udpRecv.AppendStats(dst)
}
