package netscope

import (
	"bytes"
	"testing"

	"repro/internal/tuple"
)

// wsFrameSizes straddle the WebSocket header's 7-, 16- and 64-bit length
// forms.
var wsFrameSizes = []int{0, 1, 125, 126, 0xFFFF, 0x10000, 70000}

func TestSealFramesWSBinary(t *testing.T) {
	for _, enc := range []Encoding{EncodeText, EncodeV3, EncodeWSV3} {
		for _, n := range wsFrameSizes {
			payload := bytes.Repeat([]byte{0xA5}, n)
			want := payload
			if enc == EncodeWSV3 && n > 0 {
				want = append(AppendWSHeader(nil, wsBinary, n), payload...)
			}
			if got := enc.seal(payload); !bytes.Equal(got, want) {
				t.Errorf("encoding %d, %d-byte payload: seal gives %d bytes, want %d", enc, n, len(got), len(want))
			}
			if got := enc.sealInPlace(append(make([]byte, wsHeaderRoom), payload...)); !bytes.Equal(got, want) {
				t.Errorf("encoding %d, %d-byte payload: sealInPlace gives %d bytes, want %d", enc, n, len(got), len(want))
			}
		}
	}
}

func TestBatchEventExactlySized(t *testing.T) {
	var h hubState
	ts := []tuple.Tuple{{Time: 1700000000123, Value: 0.25, Name: "cpu"}, {Time: 1700000000124, Value: -3, Name: "net.rx"}}
	for _, enc := range []Encoding{EncodeSSE, EncodeWSJSON} {
		got := h.batchEvent(enc, ts)
		if want := h.appendBatchEvent(nil, enc, ts); !bytes.Equal(got, want) {
			t.Errorf("encoding %d: batchEvent %q, appendBatchEvent %q", enc, got, want)
		}
		if cap(got) != len(got) {
			t.Errorf("encoding %d: chunk of %d bytes has capacity %d", enc, len(got), cap(got))
		}
		for _, n := range wsFrameSizes {
			if got, want := eventLen(enc, "batch", n), len(AppendEvent(nil, enc, "batch", bytes.Repeat([]byte{'1'}, n))); got != want {
				t.Errorf("encoding %d, %d-byte data: eventLen %d, framed %d", enc, n, got, want)
			}
		}
	}
}
