package glib

// DropQueue is a FIFO bounded with a drop-oldest policy, for producers that
// must never block. It is unsynchronized: the owner's lock or goroutine
// guards it. The zero value is empty and unbounded. Once its arrays reach
// their working size, a steady stream allocates nothing, dropping or not.
type DropQueue[T any] struct {
	buf     []T    // buf[head:] is the queue, oldest first
	prot    []bool // parallel to buf: exempt from eviction
	head    int
	nprot   int
	limit   int
	dropped int64
}

// NewDropQueue returns an empty queue of at most limit items (if positive).
func NewDropQueue[T any](limit int) DropQueue[T] { return DropQueue[T]{limit: limit} }

// SetLimit changes the bound and applies it to what is queued.
func (q *DropQueue[T]) SetLimit(n int) {
	q.limit = n
	q.Extend(0)
}

// Len returns the number of queued items.
//
//gscope:hotpath
func (q *DropQueue[T]) Len() int { return len(q.buf) - q.head }

// Dropped returns the number of items the bound has discarded.
func (q *DropQueue[T]) Dropped() int64 { return q.dropped }

// Push appends v; a protected item counts toward the bound but is never
// evicted. At the bound the oldest unprotected item is evicted and returned
// with ok set, or v itself when every queued item is protected.
//
//gscope:hotpath
func (q *DropQueue[T]) Push(v T, protect bool) (dropped T, ok bool) {
	if q.limit > 0 && q.Len() >= q.limit {
		if q.Len() == q.nprot {
			q.dropped++
			return v, true
		}
		dropped, ok = q.evict(), true
	}
	q.slots(1)[0] = v
	if protect {
		q.prot[len(q.prot)-1] = true
		q.nprot++
	}
	return dropped, ok
}

// Extend appends slots for n items, for the caller to fill, with one bound
// check for the batch. When n does not fit even after evicting, the batch's
// oldest items are the ones dropped: fewer slots come back, for the newest.
//
//gscope:hotpath
func (q *DropQueue[T]) Extend(n int) []T {
	fit := n
	if q.limit > 0 {
		for q.Len()+n > q.limit && q.Len() > q.nprot {
			q.evict()
		}
		fit = max(0, min(n, q.limit-q.Len()))
	}
	q.dropped += int64(n - fit)
	return q.slots(fit)
}

// Requeue puts a drainer's failed batch back at the front and applies the
// bound, which evicts those items first.
func (q *DropQueue[T]) Requeue(vs []T) {
	n, live := len(vs), q.Len()
	q.slots(n)
	copy(q.buf[q.head+n:], q.buf[q.head:q.head+live])
	copy(q.prot[q.head+n:], q.prot[q.head:q.head+live])
	copy(q.buf[q.head:], vs)
	clear(q.prot[q.head : q.head+n])
	q.Extend(0)
}

// Take returns everything queued and restarts the queue in spare: the
// drainer's previous batch, cleared here, so two arrays alternate.
func (q *DropQueue[T]) Take(spare []T) []T {
	batch := q.buf[q.head:]
	clear(spare)
	q.buf, q.prot, q.head, q.nprot = spare[:0], q.prot[:0], 0, 0
	return batch
}

// evict removes and returns the oldest unprotected item, which must exist;
// the protected run ahead of it slides up into its slot.
//
//gscope:hotpath
func (q *DropQueue[T]) evict() T {
	i := q.head
	for q.nprot > 0 && q.prot[i] {
		i++
	}
	v := q.buf[i]
	copy(q.buf[q.head+1:i+1], q.buf[q.head:i])
	q.prot[i] = q.prot[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	q.dropped++
	return v
}

// slots appends n zero slots and returns them. Eviction only advances head:
// a full array at least half evicted slides its live items down first, a
// copy the evictions that made the prefix pay for.
//
//gscope:hotpath
func (q *DropQueue[T]) slots(n int) []T {
	l := len(q.buf)
	if l+n > cap(q.buf) && q.head > 0 && 2*q.head >= l {
		l = copy(q.buf, q.buf[q.head:])
		copy(q.prot, q.prot[q.head:])
		clear(q.buf[l:])
		q.buf, q.prot, q.head = q.buf[:l], q.prot[:l], 0
	}
	var zero T
	for cap(q.buf) < l+n {
		q.buf = append(q.buf[:cap(q.buf)], zero)
	}
	for cap(q.prot) < l+n {
		q.prot = append(q.prot[:cap(q.prot)], false)
	}
	// Slots past len are always zero in buf, but may be stale in prot.
	q.buf, q.prot = q.buf[:l+n], q.prot[:l+n]
	clear(q.prot[l:])
	return q.buf[l:]
}
