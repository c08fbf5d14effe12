package tuple

import (
	"fmt"
	"io"
)

// StreamReader decodes tuples one at a time from a mixed text/binary
// stream (WIRE.md) on an io.Reader — the pull counterpart of
// StreamDecoder, used by Reader and by the flight recorder to scan and
// replay segments regardless of which encoding they were recorded in.
// Comment lines are skipped. The first data error is sticky: a bad text
// line surfaces wrapped in ErrBadLine, malformed binary framing in
// ErrBadFrame, and every subsequent Read repeats it — for an append-only
// file either one means the readable prefix has ended (a torn tail). An
// unterminated trailing text line is still decoded; a torn trailing frame
// is not. Names come from the decoder's name table, so a caller may keep
// the tuples it reads.
type StreamReader struct {
	r    io.Reader
	dec  StreamDecoder
	buf  []byte
	out  []Tuple
	pos  int
	pend error
	done bool
}

// NewStreamReader returns a reader decoding tuples from r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: r, buf: make([]byte, 64*1024)}
}

// Read returns the next tuple, io.EOF at a clean end of stream, or the
// sticky first error.
func (s *StreamReader) Read() (Tuple, error) {
	for {
		if s.pos < len(s.out) {
			t := s.out[s.pos]
			s.pos++
			return t, nil
		}
		if s.pend != nil {
			return Tuple{}, s.pend
		}
		if s.done {
			return Tuple{}, io.EOF
		}
		s.out = s.out[:0]
		s.pos = 0
		n, err := s.r.Read(s.buf)
		if ferr := s.dec.Feed(s.buf[:n], s.onLine, s.onBatch); ferr != nil && s.pend == nil {
			s.pend = ferr
		}
		if err != nil {
			s.done = true
			if err == io.EOF {
				if s.pend == nil {
					s.dec.Tail(s.onLine, s.onBatch)
				}
			} else if s.pend == nil {
				s.pend = err
			}
		}
	}
}

// onLine sees the lines that are not tuples: comments, skipped, and bad
// lines, which end the stream.
func (s *StreamReader) onLine(ln string) {
	if s.pend != nil || IsComment(ln) {
		return
	}
	_, err := Parse(ln) // cold: recover the reason the decoder passed it on
	s.pend = fmt.Errorf("line %d: %w: %w", s.dec.lines, ErrBadLine, err)
}

func (s *StreamReader) onBatch(ts []Tuple) {
	if s.pend != nil {
		return
	}
	s.out = append(s.out, ts...)
}
