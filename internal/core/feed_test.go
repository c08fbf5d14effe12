package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestFeedPushTake(t *testing.T) {
	f := NewFeed()
	f.Push(ms(10), "a", 1)
	f.Push(ms(30), "b", 2)
	f.Push(ms(20), "a", 3)
	got := f.Take(ms(25))
	if len(got) != 2 {
		t.Fatalf("Take returned %d tuples", len(got))
	}
	// Timestamp order regardless of arrival order.
	if got[0].Time != 10 || got[1].Time != 20 {
		t.Fatalf("Take order: %+v", got)
	}
	if f.Pending() != 1 {
		t.Fatalf("Pending = %d", f.Pending())
	}
}

func TestFeedDropsLate(t *testing.T) {
	f := NewFeed()
	f.Take(ms(100))
	if f.Push(ms(100), "a", 1) {
		t.Fatal("sample at the high-water mark should be dropped")
	}
	if f.Push(ms(50), "a", 1) {
		t.Fatal("older sample should be dropped")
	}
	if !f.Push(ms(101), "a", 1) {
		t.Fatal("newer sample should be accepted")
	}
	pushed, dropped := f.Stats()
	if pushed != 3 || dropped != 2 {
		t.Fatalf("stats = %d/%d", pushed, dropped)
	}
}

func TestFeedNoDropBeforeFirstTake(t *testing.T) {
	// Until the scope displays anything, even time-zero samples are
	// accepted.
	f := NewFeed()
	if !f.Push(0, "a", 1) {
		t.Fatal("pre-display sample dropped")
	}
}

func TestFeedReset(t *testing.T) {
	f := NewFeed()
	f.Push(ms(10), "a", 1)
	f.Take(ms(50))
	f.Reset()
	if !f.Push(ms(10), "a", 1) {
		t.Fatal("Reset should clear the high-water mark")
	}
	if f.Pending() != 1 {
		t.Fatal("Reset should clear pending")
	}
}

func TestFeedTakeEmptyWindow(t *testing.T) {
	f := NewFeed()
	f.Push(ms(100), "a", 1)
	if got := f.Take(ms(50)); got != nil {
		t.Fatalf("early Take returned %v", got)
	}
	if f.Pending() != 1 {
		t.Fatal("early Take consumed a pending sample")
	}
}

// Property: every accepted sample is returned by exactly one Take, in
// timestamp order, and never after its window has passed.
func TestFeedExactlyOnceDelivery(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func() bool {
		feed := NewFeed()
		accepted := 0
		delivered := 0
		cursor := 0
		for round := 0; round < 20; round++ {
			// Push a burst with random timestamps around the cursor.
			for i := 0; i < r.Intn(5); i++ {
				at := cursor + r.Intn(60) - 20
				if at < 0 {
					at = 0
				}
				if feed.Push(ms(at), "x", float64(at)) {
					accepted++
				}
			}
			cursor += 10 + r.Intn(20)
			batch := feed.Take(ms(cursor))
			last := int64(-1)
			for _, tu := range batch {
				if tu.Time < last {
					return false // out of order
				}
				if tu.Time > int64(cursor) {
					return false // delivered beyond the window
				}
				last = tu.Time
				delivered++
			}
		}
		// Drain the rest.
		delivered += len(feed.Take(ms(1 << 20)))
		return delivered == accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFeedPushBatch(t *testing.T) {
	f := NewFeed()
	n := f.PushBatch([]tuple.Tuple{
		{Time: 10, Value: 1, Name: "a"},
		{Time: 30, Value: 2, Name: "b"},
		{Time: 20, Value: 3, Name: "c"},
	})
	if n != 3 {
		t.Fatalf("PushBatch accepted %d", n)
	}
	got := f.Take(ms(25))
	if len(got) != 2 || got[0].Time != 10 || got[1].Time != 20 {
		t.Fatalf("Take = %+v", got)
	}
	if f.Pending() != 1 {
		t.Fatalf("Pending = %d", f.Pending())
	}
}

func TestFeedPushBatchDropsLate(t *testing.T) {
	f := NewFeed()
	f.Take(ms(100))
	n := f.PushBatch([]tuple.Tuple{
		{Time: 50, Name: "a"},  // late
		{Time: 100, Name: "b"}, // at the mark: late
		{Time: 150, Name: "c"},
		{Time: 101, Name: "d"},
	})
	if n != 2 {
		t.Fatalf("PushBatch accepted %d of 2 on-time tuples", n)
	}
	pushed, dropped := f.Stats()
	if pushed != 4 || dropped != 2 {
		t.Fatalf("stats = %d/%d", pushed, dropped)
	}
	got := f.Take(ms(1 << 20))
	if len(got) != 2 || got[0].Time != 101 || got[1].Time != 150 {
		t.Fatalf("Take = %+v", got)
	}
}

func TestFeedPushBatchEmpty(t *testing.T) {
	f := NewFeed()
	if n := f.PushBatch(nil); n != 0 {
		t.Fatalf("PushBatch(nil) = %d", n)
	}
}

// Concurrent PushBatch from N goroutines, each owning one signal, must
// preserve per-signal push order: the tuples of any one signal come out of
// Take in exactly the order that signal pushed them.
func TestFeedConcurrentPushBatchOrdering(t *testing.T) {
	const (
		publishers = 8
		batches    = 50
		batchLen   = 32
	)
	f := NewFeed()
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("sig%d", g)
			seq := int64(0)
			for b := 0; b < batches; b++ {
				batch := make([]tuple.Tuple, batchLen)
				for i := range batch {
					// Same timestamp for runs of tuples so ordering
					// depends on arrival order, not on the sort key.
					batch[i] = tuple.Tuple{Time: seq / 4, Value: float64(seq), Name: name}
					seq++
				}
				f.PushBatch(batch)
			}
		}()
	}
	wg.Wait()
	got := f.Take(ms(1 << 30))
	if len(got) != publishers*batches*batchLen {
		t.Fatalf("delivered %d of %d", len(got), publishers*batches*batchLen)
	}
	next := make(map[string]float64, publishers)
	for _, tu := range got {
		if tu.Value != next[tu.Name] {
			t.Fatalf("%s out of order: got seq %v, want %v", tu.Name, tu.Value, next[tu.Name])
		}
		next[tu.Name]++
	}
}

// Interleaving per-sample Push and PushBatch for the same signal preserves
// order too (the wrappers share the shard path).
func TestFeedMixedPushOrdering(t *testing.T) {
	f := NewFeed()
	seq := int64(0)
	for b := 0; b < 20; b++ {
		if b%2 == 0 {
			batch := make([]tuple.Tuple, 8)
			for i := range batch {
				batch[i] = tuple.Tuple{Time: 1, Value: float64(seq), Name: "x"}
				seq++
			}
			f.PushBatch(batch)
		} else {
			for i := 0; i < 8; i++ {
				f.Push(ms(1), "x", float64(seq))
				seq++
			}
		}
	}
	got := f.Take(ms(1 << 20))
	for i, tu := range got {
		if tu.Value != float64(i) {
			t.Fatalf("slot %d holds seq %v", i, tu.Value)
		}
	}
}

func TestFeedConcurrentPush(t *testing.T) {
	f := NewFeed()
	done := make(chan int, 4)
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			n := 0
			for i := 0; i < 1000; i++ {
				if f.Push(ms(g*1000+i), "x", 1) {
					n++
				}
			}
			done <- n
		}()
	}
	total := 0
	for i := 0; i < 4; i++ {
		total += <-done
	}
	got := len(f.Take(ms(1 << 20)))
	if got != total {
		t.Fatalf("delivered %d of %d accepted", got, total)
	}
}

// TestFeedPushSubMillisecondNotLate is the regression test for the
// timestamp-precision late-drop bug: Push used to truncate the sample time
// to milliseconds before the late check, so a sample at 1.7ms compared as
// 1ms against a 1.5ms displayed watermark and was wrongly dropped. The
// check must run at the caller's full precision.
func TestFeedPushSubMillisecondNotLate(t *testing.T) {
	f := NewFeed()
	f.Take(1500 * time.Microsecond) // displayed watermark at 1.5ms
	if !f.Push(1700*time.Microsecond, "a", 1) {
		t.Fatal("1.7ms sample dropped against a 1.5ms watermark")
	}
	// Samples at or before the watermark are still late.
	if f.Push(1500*time.Microsecond, "a", 2) {
		t.Fatal("sample at the watermark should be dropped")
	}
	if f.Push(1400*time.Microsecond, "a", 3) {
		t.Fatal("older sample should be dropped")
	}
	pushed, dropped := f.Stats()
	if pushed != 3 || dropped != 2 {
		t.Fatalf("stats = %d/%d", pushed, dropped)
	}
	// The survivor is stored at wire (ms) granularity and drains with the
	// next window.
	got := f.Take(2 * time.Millisecond)
	if len(got) != 1 || got[0].Time != 1 || got[0].Value != 1 {
		t.Fatalf("Take = %+v", got)
	}
}
