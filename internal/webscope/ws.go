package webscope

import (
	"bufio"
	"crypto/sha1"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"repro/internal/netscope"
)

// A hand-rolled RFC 6455 server: handshake, frame codec, masking,
// ping/pong and close codes — stdlib only, like everything else in the
// repo. Only the server side exists (browsers bring the client); only
// the pieces the gateway needs are implemented, but the frame decoder is
// strict about the pieces it does implement: reserved bits, unmasked
// client frames, oversized or fragmented control frames and overlong
// length encodings are protocol errors, and declared payload lengths are
// checked against the cap before any allocation so an adversarial header
// cannot balloon memory (FuzzWSFrameDecode holds that line).

// wsGUID is the key-digest suffix fixed by RFC 6455 §1.3.
const wsGUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

// WebSocket opcodes (RFC 6455 §5.2).
const (
	opContinuation = 0x0
	opText         = 0x1
	opBinary       = 0x2
	opClose        = 0x8
	opPing         = 0x9
	opPong         = 0xA
)

// Close codes (RFC 6455 §7.4.1).
const (
	closeNormal        = 1000
	closeGoingAway     = 1001
	closeProtocolError = 1002
	closeTooBig        = 1009
)

const (
	// maxWSControlPayload is the RFC's control-frame payload cap.
	maxWSControlPayload = 125
	// maxWSMessage bounds an assembled inbound message (the gateway's
	// client→server traffic is command lines; 64 KiB is generous).
	maxWSMessage = 64 << 10
)

var (
	errWSProtocol = errors.New("webscope: websocket protocol error")
	errWSTooBig   = errors.New("webscope: websocket message exceeds limit")
)

// wsAccept validates an upgrade request and hijacks the connection,
// completing the RFC 6455 handshake. On success the 101 response is
// already written and flushed; the caller owns conn.
func wsAccept(w http.ResponseWriter, r *http.Request) (net.Conn, *bufio.Reader, error) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "websocket handshake requires GET")
		return nil, nil, errWSProtocol
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") ||
		!headerHasToken(r.Header, "Upgrade", "websocket") {
		httpError(w, http.StatusBadRequest, "not a websocket upgrade request")
		return nil, nil, errWSProtocol
	}
	if v := r.Header.Get("Sec-WebSocket-Version"); v != "13" {
		w.Header().Set("Sec-WebSocket-Version", "13")
		httpError(w, http.StatusUpgradeRequired, "unsupported websocket version")
		return nil, nil, errWSProtocol
	}
	key := r.Header.Get("Sec-WebSocket-Key")
	if key == "" {
		httpError(w, http.StatusBadRequest, "missing Sec-WebSocket-Key")
		return nil, nil, errWSProtocol
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		httpError(w, http.StatusInternalServerError, "connection cannot be hijacked")
		return nil, nil, errWSProtocol
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		return nil, nil, err
	}
	resp := "HTTP/1.1 101 Switching Protocols\r\n" +
		"Upgrade: websocket\r\n" +
		"Connection: Upgrade\r\n" +
		"Sec-WebSocket-Accept: " + wsAcceptKey(key) + "\r\n\r\n"
	if _, err := brw.WriteString(resp); err != nil {
		conn.Close()
		return nil, nil, err
	}
	if err := brw.Flush(); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, brw.Reader, nil
}

// wsAcceptKey derives the Sec-WebSocket-Accept value (RFC 6455 §4.2.2).
func wsAcceptKey(key string) string {
	h := sha1.Sum([]byte(key + wsGUID))
	return base64.StdEncoding.EncodeToString(h[:])
}

// headerHasToken reports whether any comma-separated token of the header
// equals token (ASCII case-insensitive) — "Connection: keep-alive,
// Upgrade" must match "upgrade".
func headerHasToken(h http.Header, name, token string) bool {
	for _, v := range h.Values(name) {
		for _, part := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(part), token) {
				return true
			}
		}
	}
	return false
}

// wsFrame is one decoded frame.
type wsFrame struct {
	fin     bool
	opcode  byte
	payload []byte
}

// readWSFrame decodes one client frame. requireMask enforces the RFC's
// client-to-server masking rule (the fuzz target exercises both modes).
// The declared payload length is validated against maxPayload before any
// buffer is sized, so a hostile 2^63 length costs nothing.
func readWSFrame(br *bufio.Reader, maxPayload int64, requireMask bool) (wsFrame, error) {
	var f wsFrame
	b0, err := br.ReadByte()
	if err != nil {
		return f, err
	}
	b1, err := br.ReadByte()
	if err != nil {
		return f, eofIsUnexpected(err)
	}
	f.fin = b0&0x80 != 0
	f.opcode = b0 & 0x0F
	if b0&0x70 != 0 {
		return f, fmt.Errorf("%w: reserved bits set", errWSProtocol)
	}
	switch f.opcode {
	case opContinuation, opText, opBinary, opClose, opPing, opPong:
	default:
		return f, fmt.Errorf("%w: unknown opcode %#x", errWSProtocol, f.opcode)
	}
	masked := b1&0x80 != 0
	if requireMask && !masked {
		return f, fmt.Errorf("%w: unmasked client frame", errWSProtocol)
	}
	length := int64(b1 & 0x7F)
	switch length {
	case 126:
		var ext [2]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return f, eofIsUnexpected(err)
		}
		length = int64(binary.BigEndian.Uint16(ext[:]))
	case 127:
		var ext [8]byte
		if _, err := io.ReadFull(br, ext[:]); err != nil {
			return f, eofIsUnexpected(err)
		}
		u := binary.BigEndian.Uint64(ext[:])
		if u > 1<<62 {
			return f, fmt.Errorf("%w: 64-bit length with high bit set", errWSProtocol)
		}
		length = int64(u)
	}
	if f.opcode >= opClose {
		if !f.fin {
			return f, fmt.Errorf("%w: fragmented control frame", errWSProtocol)
		}
		if length > maxWSControlPayload {
			return f, fmt.Errorf("%w: control frame payload %d > 125", errWSProtocol, length)
		}
	}
	if length > maxPayload {
		return f, errWSTooBig
	}
	var mask [4]byte
	if masked {
		if _, err := io.ReadFull(br, mask[:]); err != nil {
			return f, eofIsUnexpected(err)
		}
	}
	f.payload = make([]byte, length)
	if _, err := io.ReadFull(br, f.payload); err != nil {
		return f, eofIsUnexpected(err)
	}
	if masked {
		maskBytes(f.payload, mask)
	}
	return f, nil
}

// maskBytes applies the RFC 6455 §5.3 masking transform in place (its
// own inverse).
func maskBytes(p []byte, mask [4]byte) {
	for i := range p {
		p[i] ^= mask[i&3]
	}
}

// readWSMessage assembles the next data message, dispatching interleaved
// control frames to ctrl (payload valid only during the call). It
// returns the data opcode (opText or opBinary) and the assembled
// payload. A ctrl error, a protocol violation, a message past
// maxWSMessage, or an I/O error ends the message (and the connection).
func readWSMessage(br *bufio.Reader, requireMask bool, ctrl func(op byte, payload []byte) error) (byte, []byte, error) {
	var (
		op      byte
		data    []byte
		started bool
	)
	for {
		f, err := readWSFrame(br, maxWSMessage, requireMask)
		if err != nil {
			return 0, nil, err
		}
		switch f.opcode {
		case opClose, opPing, opPong:
			if err := ctrl(f.opcode, f.payload); err != nil {
				return 0, nil, err
			}
			continue
		case opText, opBinary:
			if started {
				return 0, nil, fmt.Errorf("%w: data frame inside fragmented message", errWSProtocol)
			}
			op, data, started = f.opcode, f.payload, true
		case opContinuation:
			if !started {
				return 0, nil, fmt.Errorf("%w: continuation without a message", errWSProtocol)
			}
			if int64(len(data))+int64(len(f.payload)) > maxWSMessage {
				return 0, nil, errWSTooBig
			}
			data = append(data, f.payload...)
		}
		if f.fin {
			return op, data, nil
		}
	}
}

// eofIsUnexpected upgrades io.EOF mid-frame to ErrUnexpectedEOF so a
// truncated frame is distinguishable from a clean close between frames.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// appendWSHeader appends a server-to-client frame header (fin, unmasked)
// for a payload of n bytes. The hub frames stream chunks with the same
// encoder.
//
//gscope:hotpath
func appendWSHeader(dst []byte, op byte, n int) []byte {
	return netscope.AppendWSHeader(dst, op, n)
}

// appendWSFrame appends a complete server frame: header plus payload.
//
//gscope:hotpath
func appendWSFrame(dst []byte, op byte, payload []byte) []byte {
	dst = appendWSHeader(dst, op, len(payload))
	return append(dst, payload...)
}

// appendWSClose appends a close frame carrying code and an optional
// short reason.
func appendWSClose(dst []byte, code int, reason string) []byte {
	if len(reason) > maxWSControlPayload-2 {
		reason = reason[:maxWSControlPayload-2]
	}
	dst = appendWSHeader(dst, opClose, 2+len(reason))
	dst = append(dst, byte(code>>8), byte(code))
	return append(dst, reason...)
}
