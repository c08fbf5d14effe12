package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// The web lanes' stand-in viewers: an SSE reader on GET /v1/stream and a
// WebSocket reader on GET /v1/ws?format=binary.

// openSSE subscribes v to the gateway's SSE stream, unfiltered.
func (s *system) openSSE(v *viewer) error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.webAddr+"/v1/stream", nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		cancel()
		return fmt.Errorf("GET /v1/stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("GET /v1/stream: %s", resp.Status)
	}
	v.close = func() {
		cancel()
		<-v.done
		resp.Body.Close()
	}
	go v.readSSE(resp.Body)
	return nil
}

func (v *viewer) readSSE(body io.Reader) {
	defer close(v.done)
	p := &sseParser{names: v.s.names}
	buf := make([]byte, 64<<10)
	for {
		n, err := body.Read(buf)
		if n > 0 {
			tRead := now()
			v.bytes.Add(int64(n))
			var perr error
			v.obs, perr = p.feed(buf[:n], v.obs[:0])
			tDec := now()
			v.decodeNS.Add(tDec - tRead)
			v.decoded.Add(int64(len(v.obs)))
			if p.snapEnd {
				v.markReady()
			}
			if perr != nil {
				v.s.vd.corruptf("%s: %v", v.spec.name, perr)
				return
			}
			v.check(v.obs, tRead, tDec)
		}
		if err != nil {
			return
		}
	}
}

// sseEvent is the kind of the SSE event whose data lines are arriving.
type sseEvent uint8

const (
	evOther sseEvent = iota
	evBatch
	evControl
	evError
)

var (
	ssePrefixEvent = []byte("event: ")
	ssePrefixData  = []byte("data: ")
	sseSnapshotEnd = []byte(`"verb":"snapshot-end"`)
)

// sseParser is the benchmark's allocation-free parser for the gateway's
// SSE stream (docs/HTTP.md): "batch" events' [[timeMS,value,"name"],...]
// payloads become obs, "control" events are scanned for the end of the
// snapshot, an "error" event fails the stream, and everything else is
// skipped. Lines may straddle reads.
type sseParser struct {
	names   map[string]int32
	carry   []byte
	event   sseEvent
	snapEnd bool
}

// feed parses one read, appending decoded tuples to out.
func (p *sseParser) feed(chunk []byte, out []obs) ([]obs, error) {
	for len(chunk) > 0 {
		i := bytes.IndexByte(chunk, '\n')
		if i < 0 {
			p.carry = append(p.carry, chunk...)
			break
		}
		line := chunk[:i]
		chunk = chunk[i+1:]
		if len(p.carry) > 0 {
			p.carry = append(p.carry, line...)
			line = p.carry
		}
		var err error
		out, err = p.line(line, out)
		p.carry = p.carry[:0]
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (p *sseParser) line(line []byte, out []obs) ([]obs, error) {
	switch {
	case len(line) == 0:
		p.event = evOther
	case bytes.HasPrefix(line, ssePrefixEvent):
		switch string(line[len(ssePrefixEvent):]) {
		case "batch":
			p.event = evBatch
		case "control":
			p.event = evControl
		case "error":
			p.event = evError
		default:
			p.event = evOther
		}
	case bytes.HasPrefix(line, ssePrefixData):
		data := line[len(ssePrefixData):]
		switch p.event {
		case evBatch:
			return p.batch(data, out)
		case evControl:
			if bytes.Contains(data, sseSnapshotEnd) {
				p.snapEnd = true
			}
		case evError:
			return out, fmt.Errorf("gateway error event %s", data)
		}
	}
	return out, nil
}

var errBadBatch = errors.New("malformed batch event")

// batch parses one batch payload exactly as tuple.AppendJSONBatch writes
// it: integer stamps, shortest-round-trip numbers, escape-free names.
func (p *sseParser) batch(b []byte, out []obs) ([]obs, error) {
	if len(b) < 2 || b[0] != '[' {
		return out, errBadBatch
	}
	if b[1] == ']' {
		return out, nil
	}
	i := 1
	for {
		if i >= len(b) || b[i] != '[' {
			return out, errBadBatch
		}
		i++
		j := i
		for j < len(b) && b[j] != ',' {
			j++
		}
		ms, ok := atoi(b[i:j])
		if !ok || j >= len(b) {
			return out, errBadBatch
		}
		i = j + 1
		for j = i; j < len(b) && b[j] != ','; j++ {
		}
		if j == i || j >= len(b) {
			return out, errBadBatch
		}
		val, err := strconv.ParseFloat(unsafe.String(&b[i], j-i), 64)
		if err != nil {
			return out, errBadBatch
		}
		i = j + 1
		if i >= len(b) || b[i] != '"' {
			return out, errBadBatch
		}
		i++
		for j = i; j < len(b) && b[j] != '"' && b[j] != '\\'; j++ {
		}
		if j+1 >= len(b) || b[j] != '"' || b[j+1] != ']' {
			return out, errBadBatch
		}
		sig, known := p.names[string(b[i:j])]
		if !known {
			sig = -1
		}
		out = append(out, obs{sig: sig, ms: ms, val: val})
		i = j + 2
		if i >= len(b) {
			return out, errBadBatch
		}
		if b[i] == ']' {
			return out, nil
		}
		if b[i] != ',' {
			return out, errBadBatch
		}
		i++
	}
}

// atoi parses a decimal integer without allocating.
func atoi(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// openWS subscribes v to the gateway's WebSocket lane in binary format: a
// minimal RFC 6455 client that reads unmasked server frames and feeds the
// binary messages, the hub's v3 byte stream verbatim, to a StreamDecoder.
func (s *system) openWS(v *viewer) error {
	conn, err := net.DialTimeout("tcp", s.webAddr, 5*time.Second)
	if err != nil {
		return err
	}
	key := base64.StdEncoding.EncodeToString([]byte("e2ebench-ws-key!"))
	if _, err := fmt.Fprintf(conn, "GET /v1/ws?format=binary HTTP/1.1\r\nHost: %s\r\n"+
		"Upgrade: websocket\r\nConnection: Upgrade\r\n"+
		"Sec-WebSocket-Key: %s\r\nSec-WebSocket-Version: 13\r\n\r\n", s.webAddr, key); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	status, err := br.ReadString('\n')
	if err != nil || !strings.Contains(status, " 101 ") {
		conn.Close()
		return fmt.Errorf("GET /v1/ws: handshake status %q: %v", strings.TrimSpace(status), err)
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			conn.Close()
			return fmt.Errorf("GET /v1/ws: handshake headers: %w", err)
		}
		if strings.TrimRight(line, "\r\n") == "" {
			break
		}
	}
	v.close = func() {
		conn.Close()
		<-v.done
	}
	go v.readWS(br)
	return nil
}

// maxWSFrame bounds one server frame; the gateway's binary messages are at
// most one hub read (32 KiB) plus framing.
const maxWSFrame = 16 << 20

func (v *viewer) readWS(br *bufio.Reader) {
	defer close(v.done)
	d := newStreamDecoder(v)
	var hdr [8]byte
	payload := make([]byte, 0, 64<<10)
	for {
		if _, err := io.ReadFull(br, hdr[:2]); err != nil {
			return
		}
		op, masked, n, head := hdr[0]&0x0F, hdr[1]&0x80 != 0, int(hdr[1]&0x7F), 2
		switch n {
		case 126:
			if _, err := io.ReadFull(br, hdr[:2]); err != nil {
				return
			}
			n, head = int(binary.BigEndian.Uint16(hdr[:2])), 4
		case 127:
			if _, err := io.ReadFull(br, hdr[:8]); err != nil {
				return
			}
			n, head = int(min(binary.BigEndian.Uint64(hdr[:8]), maxWSFrame+1)), 10
		}
		if masked || n > maxWSFrame {
			v.s.vd.corruptf("%s: bad server frame (masked=%v, %d bytes)", v.spec.name, masked, n)
			return
		}
		if cap(payload) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		tRead := now()
		v.bytes.Add(int64(head + n))
		switch op {
		case 0x0, 0x2: // continuation, binary: the hub's byte stream
			if !d.feed(payload, tRead) {
				return
			}
		case 0x8: // close
			return
		}
	}
}
