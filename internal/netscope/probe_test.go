package netscope

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/glib"
	"repro/internal/tuple"
)

func TestClientProbeEndToEnd(t *testing.T) {
	loop, _, srv, addr := rig(t)

	var got []tuple.Tuple
	srv.OnTuple = func(tu tuple.Tuple) { got = append(got, tu) }

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Probe("cwnd")
	if err != nil {
		t.Fatal(err)
	}
	if p2, err := c.Probe("cwnd"); err != nil || p2 != p {
		t.Fatalf("Probe not idempotent: %v %v", p2, err)
	}
	if _, err := c.Probe("bad\nname"); err == nil {
		t.Fatal("invalid probe name accepted")
	}

	if err := p.Send(10*time.Millisecond, 1); err != nil {
		t.Fatal(err)
	}
	samples := []tuple.Sample{
		{At: 20 * time.Millisecond, Value: 2},
		{At: 30 * time.Millisecond, Value: 3},
	}
	if err := p.SendBatch(samples); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	pump(t, loop, func() bool {
		_, _, received, _ := srv.Stats()
		return received >= 3
	})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("observed %d tuples: %+v", len(got), got)
	}
	want := []tuple.Tuple{
		{Time: 10, Value: 1, Name: "cwnd"},
		{Time: 20, Value: 2, Name: "cwnd"},
		{Time: 30, Value: 3, Name: "cwnd"},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// strData returns the data pointer of a string, to observe interning.
func strData(s string) uintptr {
	return uintptr(unsafe.Pointer(unsafe.StringData(s)))
}

func TestServerCanonicalizesNames(t *testing.T) {
	vc := glib.NewVirtualClock(time.Unix(0, 0))
	loop := glib.NewLoop(vc, glib.WithGranularity(0))
	srv := NewServer(loop)
	defer srv.Close()

	var names []string
	srv.OnTuple = func(tu tuple.Tuple) { names = append(names, tu.Name) }

	// Two batches whose equal names arrive on distinct backing arrays —
	// the shape line parsing produces.
	mk := func() []tuple.Tuple {
		return []tuple.Tuple{
			{Time: 1, Value: 1, Name: string([]byte("cwnd"))},
			{Time: 2, Value: 2, Name: string([]byte("cwnd"))},
			{Time: 3, Value: 3, Name: string([]byte("cps"))},
		}
	}
	srv.InjectBatch(mk())
	srv.InjectBatch(mk())
	if len(names) != 6 {
		t.Fatalf("observed %d tuples", len(names))
	}
	// All "cwnd" instances must share one backing array after interning.
	base := strData(names[0])
	for i, n := range names {
		if n == "cwnd" && strData(n) != base {
			t.Fatalf("tuple %d name not interned", i)
		}
	}
	if names[2] != "cps" || strData(names[2]) != strData(names[5]) {
		t.Fatal("second signal not interned")
	}
}

func TestServerInternCapStillDelivers(t *testing.T) {
	vc := glib.NewVirtualClock(time.Unix(0, 0))
	loop := glib.NewLoop(vc, glib.WithGranularity(0))
	srv := NewServer(loop)
	defer srv.Close()
	count := 0
	srv.OnTuple = func(tu tuple.Tuple) { count++ }
	const maxInternedNames = 4096 // tuple.Interner.CanonicalizeNames's cap
	batch := make([]tuple.Tuple, 0, maxInternedNames+10)
	for i := 0; i < maxInternedNames+10; i++ {
		batch = append(batch, tuple.Tuple{Time: int64(i), Value: 1, Name: "sig" + string(rune('a'+i%26)) + itoa(i)})
	}
	srv.InjectBatch(batch)
	if count != maxInternedNames+10 {
		t.Fatalf("delivered %d of %d tuples past the intern cap", count, maxInternedNames+10)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// The reusable writer buffers must not corrupt data across rounds or
// during drop-oldest trimming.
func TestClientQueueReuseIntegrity(t *testing.T) {
	loop, _, srv, addr := rig(t)
	var got []tuple.Tuple
	srv.OnTuple = func(tu tuple.Tuple) { got = append(got, tu) }

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 50
	const per = 128
	samples := make([]tuple.Sample, per)
	for r := 0; r < rounds; r++ {
		for j := range samples {
			samples[j] = tuple.Sample{At: time.Duration(r*per+j) * time.Millisecond, Value: float64(r*per + j)}
		}
		if err := c.SendProbeBatch(p, samples); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil { // force many writer rounds
			t.Fatal(err)
		}
	}
	pump(t, loop, func() bool {
		_, _, received, _ := srv.Stats()
		return received >= rounds*per
	})
	if len(got) != rounds*per {
		t.Fatalf("observed %d", len(got))
	}
	for i, tu := range got {
		if tu.Time != int64(i) || tu.Value != float64(i) {
			t.Fatalf("tuple %d corrupted: %+v", i, tu)
		}
	}
}

func TestClientTrimInPlace(t *testing.T) {
	c := DialReconnect("127.0.0.1:1") // never connects
	defer c.Close()
	c.SetQueueLimit(10)
	p, err := c.Probe("s")
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]tuple.Sample, 25)
	for i := range samples {
		samples[i] = tuple.Sample{At: time.Duration(i) * time.Millisecond, Value: float64(i)}
	}
	if err := c.SendProbeBatch(p, samples); err != nil {
		t.Fatal(err)
	}
	if c.Dropped() != 15 {
		t.Fatalf("Dropped = %d, want 15", c.Dropped())
	}
	c.mu.Lock()
	queue := c.q.Take(nil)
	c.mu.Unlock()
	if len(queue) != 10 {
		t.Fatalf("queue len %d", len(queue))
	}
	// Drop-oldest: the newest 10 survive, in order.
	for i, tu := range queue {
		if tu.Value != float64(15+i) {
			t.Fatalf("queue[%d] = %+v", i, tu)
		}
	}
}
