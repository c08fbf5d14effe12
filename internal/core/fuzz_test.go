package core

// Structured fuzzing over the ingest side: generated tuple batches (with
// skewed per-signal clocks) pushed through the sharded Feed in arbitrary
// splits with drains interleaved, and the tiered TimedHistory queried at
// hostile since/cols combinations. The invariants are the ones the
// display and backfill layers lean on: drains are time-ordered and never
// exceed the watermark, nothing accepted is ever lost, and a backfill
// view is bounded and time-ordered whatever the query.

import (
	"testing"
	"time"

	"repro/internal/fuzzgen"
)

// drainAll is a watermark safely past every generated timestamp
// (fuzzgen bounds tuple times at 2^40 ms).
const drainAll = time.Duration(1<<42) * time.Millisecond

// FuzzFeedBatchDrain: random batch splits + interleaved drains through
// Feed.PushBatch/Take. Every drained batch is time-sorted and at or
// under its watermark, and the total drained equals the total accepted.
func FuzzFeedBatchDrain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("split me into batches"))
	f.Add([]byte{0xff, 0x00, 0x13, 0x37, 0xff, 0xff, 0x42, 0x42, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzgen.New(data)
		ts := src.Tuples(512, false)
		feed := NewFeed()
		var accepted, drained int64
		var lastWatermark time.Duration

		drainUpTo := func(upTo time.Duration) {
			if upTo < lastWatermark {
				upTo = lastWatermark
			}
			lastWatermark = upTo
			out := feed.Take(upTo)
			drained += int64(len(out))
			for i, tu := range out {
				if tu.Timestamp() > upTo {
					t.Fatalf("drained tuple %+v past watermark %s", tu, upTo)
				}
				if i > 0 && tu.Time < out[i-1].Time {
					t.Fatalf("drain not time-sorted: %d after %d", tu.Time, out[i-1].Time)
				}
			}
		}

		for i := 0; i < len(ts); {
			n := 1 + src.Intn(64)
			if i+n > len(ts) {
				n = len(ts) - i
			}
			accepted += int64(feed.PushBatch(ts[i : i+n]))
			i += n
			if src.Intn(4) == 0 {
				drainUpTo(time.Duration(src.Int63n(1<<41)) * time.Millisecond)
			}
		}
		// A final full drain must account for every accepted tuple: the
		// feed may drop late arrivals (excluded from accepted) but never
		// lose what it accepted.
		drainUpTo(drainAll)
		if drained != accepted {
			t.Fatalf("conservation violated: accepted %d, drained %d", accepted, drained)
		}
		if rest := feed.Take(drainAll); len(rest) != 0 {
			t.Fatalf("feed not empty after full drain: %d left", len(rest))
		}
	})
}

// FuzzTimedHistoryView: arbitrary push sequences and hostile queries
// (since far outside the retained window, cols up to 2^30) against the
// backfill store. Views are bounded by cols, time-ordered, and never
// stamped past the newest sample; allocation is bounded by retention
// regardless of the requested cols.
func FuzzTimedHistoryView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("push some samples then query"))
	f.Add([]byte{1, 0, 255, 17, 4, 4, 4, 4, 4, 4, 4, 4, 99, 99})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := fuzzgen.New(data)
		th := NewTimedHistory(1 + src.Intn(2048))
		n := src.Intn(600)
		clock := src.Int63n(1 << 40)
		for i := 0; i < n; i++ {
			if src.Intn(8) == 0 {
				clock -= src.Int63n(10000) // skewed publisher clock
			} else {
				clock += src.Int63n(200)
			}
			th.Push(clock, src.Float())
		}
		newest, seen := th.Newest()
		if seen != (n > 0) {
			t.Fatalf("Newest seen=%v after %d pushes", seen, n)
		}

		colChoices := []int{0, 1, 3, 17, 512, 1 << 30}
		for q := 0; q < 4; q++ {
			since := src.Int63n(1<<41) - (1 << 40)
			cols := colChoices[src.Intn(len(colChoices))]
			view := th.ViewSince(since, cols)
			if cols <= 0 && view != nil {
				t.Fatalf("cols=%d returned %d buckets", cols, len(view))
			}
			if len(view) > cols {
				t.Fatalf("view has %d buckets for cols=%d", len(view), cols)
			}
			for i, b := range view {
				if i > 0 && b.Time < view[i-1].Time {
					t.Fatalf("view not time-ordered: %d after %d", b.Time, view[i-1].Time)
				}
				if b.Time > newest {
					t.Fatalf("bucket stamped %d past newest %d", b.Time, newest)
				}
				if b.Count > 0 && b.Min > b.Max {
					t.Fatalf("bucket envelope inverted: min %v > max %v", b.Min, b.Max)
				}
			}
		}
	})
}
