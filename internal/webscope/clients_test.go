package webscope

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestStreamGoroutinesPerClient counts what one live stream client costs
// the process in goroutines, net/http's own included, on each lane. The
// clients are raw sockets that never read, so every goroutine counted is
// the server's.
func TestStreamGoroutinesPerClient(t *testing.T) {
	const clients = 4
	const budget = 3 // per client
	r := newRig(t, Options{}, nil)
	for _, lane := range []struct{ name, request string }{
		{"sse", "GET /v1/stream HTTP/1.1\r\nHost: test\r\n\r\n"},
		{"ws", "GET /v1/ws HTTP/1.1\r\nHost: test\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n" +
			"Sec-WebSocket-Key: AAAAAAAAAAAAAAAAAAAAAA==\r\nSec-WebSocket-Version: 13\r\n\r\n"},
	} {
		base := runtime.NumGoroutine()
		conns := make([]net.Conn, clients)
		for i := range conns {
			c, err := net.Dial("tcp", r.host)
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = c
			if _, err := c.Write([]byte(lane.request)); err != nil {
				t.Fatal(err)
			}
		}
		testutil.WaitUntil(t, lane.name+" clients to go live", 10*time.Second, func() bool {
			return r.srv.Web().Clients() == clients
		})
		// Let transient goroutines (connection setup, loop hand-offs)
		// finish; a lane over budget stays over it.
		testutil.Poll(2*time.Second, func() bool {
			return runtime.NumGoroutine()-base <= budget*clients
		})
		per := float64(runtime.NumGoroutine()-base) / clients
		t.Logf("%s: %.2f goroutines per live client", lane.name, per)
		if per > budget {
			t.Errorf("%s: %.2f goroutines per live client, want at most %d", lane.name, per, budget)
		}
		for _, c := range conns {
			c.Close()
		}
		testutil.WaitUntil(t, lane.name+" clients to release", 10*time.Second, func() bool {
			return r.srv.Web().Clients() == 0
		})
	}
}
