package glib

import (
	"slices"
	"testing"
)

// refQueue is the naive reference DropQueue is checked against: a plain
// slice of items with protection flags, evicting by deletion.
type refQueue struct {
	items   []int
	prot    []bool
	limit   int
	dropped int64
}

// evict deletes the oldest unprotected item, reporting false when every
// item is protected.
func (r *refQueue) evict() (int, bool) {
	for i, p := range r.prot {
		if !p {
			v := r.items[i]
			r.items = slices.Delete(r.items, i, i+1)
			r.prot = slices.Delete(r.prot, i, i+1)
			r.dropped++
			return v, true
		}
	}
	return 0, false
}

func (r *refQueue) push(v int, protect bool) (int, bool) {
	dropped, ok := 0, false
	if r.limit > 0 && len(r.items) >= r.limit {
		if dropped, ok = r.evict(); !ok {
			r.dropped++
			return v, true
		}
	}
	r.items = append(r.items, v)
	r.prot = append(r.prot, protect)
	return dropped, ok
}

// trim evicts until the queue is within its bound or all protected.
func (r *refQueue) trim() {
	for r.limit > 0 && len(r.items) > r.limit {
		if _, ok := r.evict(); !ok {
			return
		}
	}
}

// extend appends vs as one batch: older items make room first, then the
// batch's own oldest items go.
func (r *refQueue) extend(vs []int) {
	for _, v := range vs {
		r.items = append(r.items, v)
		r.prot = append(r.prot, false)
	}
	for r.limit > 0 && len(r.items) > r.limit {
		// Evict among the old items first; the batch's oldest go last.
		old := len(r.items) - len(vs)
		i := slices.Index(r.prot[:old], false)
		if i < 0 {
			if len(vs) == 0 {
				return
			}
			i, vs = old, vs[1:]
		}
		r.items = slices.Delete(r.items, i, i+1)
		r.prot = slices.Delete(r.prot, i, i+1)
		r.dropped++
	}
}

func (r *refQueue) requeue(vs []int) {
	r.items = append(slices.Clone(vs), r.items...)
	r.prot = append(make([]bool, len(vs)), r.prot...)
	r.trim()
}

func (r *refQueue) take() []int {
	out := r.items
	r.items, r.prot = nil, nil
	return out
}

// FuzzDropQueue drives DropQueue and the reference model with the same
// operation stream and demands identical contents, drops and lengths
// after every step. Taken batches are handed back as spares and requeued
// the way the netscope client does, and each must stay intact until then.
func FuzzDropQueue(f *testing.F) {
	// data[0] sets the limit (data[0]%6 - 1); then (op, arg) byte pairs.
	f.Add([]byte{3, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0})             // drop-oldest behind a protected head
	f.Add([]byte{4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 0})       // protected item in the middle
	f.Add([]byte{2, 0, 1, 0, 1, 0, 1, 0, 0, 2, 0})             // all protected: incoming dropped
	f.Add([]byte{3, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 3, 0, 2, 0}) // requeue past the bound
	f.Add([]byte{3, 0, 0, 1, 7, 2, 0})                         // extend beyond the limit
	f.Add([]byte{0, 1, 5, 2, 0, 1, 5, 2, 0, 1, 3, 2, 0, 0, 0}) // take reuse, unbounded
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0, 4, 2, 0, 0, 2, 0}) // shrink the bound
	f.Add([]byte{5, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 1, 7, 2, 0}) // slide the evicted prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		limit := int(data[0]%6) - 1
		q := NewDropQueue[int](limit)
		ref := &refQueue{limit: limit}
		next, peak := 0, 0
		var batch, batchCopy []int
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%5, int(data[i+1])
			switch op {
			case 0:
				next++
				d, ok := q.Push(next, arg&1 == 1)
				rd, rok := ref.push(next, arg&1 == 1)
				if d != rd || ok != rok {
					t.Fatalf("step %d: Push(%d) dropped (%d, %v), want (%d, %v)", i, next, d, ok, rd, rok)
				}
			case 1:
				vs := make([]int, arg%8)
				for j := range vs {
					next++
					vs[j] = next
				}
				slots := q.Extend(len(vs))
				copy(slots, vs[len(vs)-len(slots):])
				ref.extend(vs)
			case 2:
				if !slices.Equal(batch, batchCopy) {
					t.Fatalf("step %d: taken batch changed to %v, was %v", i, batch, batchCopy)
				}
				batch = q.Take(batch)
				batchCopy = slices.Clone(batch)
				if want := ref.take(); !slices.Equal(batch, want) {
					t.Fatalf("step %d: Take = %v, want %v", i, batch, want)
				}
			case 3:
				q.Requeue(batch)
				ref.requeue(batchCopy)
			case 4:
				q.SetLimit(arg%6 - 1)
				ref.limit = arg%6 - 1
				ref.trim()
			}
			if q.Len() != len(ref.items) || q.Dropped() != ref.dropped {
				t.Fatalf("step %d (op %d): len %d dropped %d, want %d and %d",
					i, op, q.Len(), q.Dropped(), len(ref.items), ref.dropped)
			}
			// Storage stays proportional to the longest queue seen (plus a
			// batch of up to 7), however the arrays are recycled.
			peak = max(peak, q.Len())
			if bound := 4*(peak+8) + 64; cap(q.buf) > bound || cap(q.prot) > bound {
				t.Fatalf("step %d: capacity %d/%d for a peak length of %d", i, cap(q.buf), cap(q.prot), peak)
			}
		}
		if got, want := q.Take(nil), ref.take(); !slices.Equal(got, want) {
			t.Fatalf("final Take = %v, want %v", got, want)
		}
	})
}
