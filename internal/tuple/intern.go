package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// SignalID is a dense handle for an interned signal name: the first name
// interned gets 0, the next 1, and so on, so an Interner's consumers can
// index plain slices by ID instead of hashing strings. IDs are local to one
// Interner and never cross the wire: the text format stays self-describing,
// and the v3 binary framing carries its own stream-local dictionary IDs,
// re-declared per stream (docs/WIRE.md §B3), never an Interner's.
type SignalID int32

// NoSignal is the invalid SignalID.
const NoSignal SignalID = -1

// Interner assigns dense SignalIDs to signal names, keeps one canonical
// string per name, and prebuilds the wire bytes a batch encoder needs, so
// the per-sample publish paths never hash, validate, or copy a name again:
//
//   - Intern validates once (ValidateName) and is idempotent — the probe
//     registration step.
//   - Canonical maps any equal string to the interned instance, letting a
//     parser drop per-line backing arrays instead of pinning them in
//     long-lived queues and histories.
//   - NameBytes returns the prevalidated " name" suffix AppendWireID
//     memcpys after the timestamp and value.
//
// An Interner is safe for concurrent use. Interned names are never
// released; callers managing unbounded name spaces should cap growth via
// Len.
type Interner struct {
	mu sync.RWMutex
	//gscope:guardedby mu
	ids map[string]SignalID
	//gscope:guardedby mu
	names []string
	// wire holds " " + name per ID, empty for the unnamed signal.
	//gscope:guardedby mu
	wire [][]byte
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]SignalID)}
}

// Intern returns the dense ID for name, assigning the next free one on
// first sight. Names the wire format cannot carry are rejected (see
// ValidateName). The empty name is internable: it identifies the two-field
// tuple form's single unnamed signal.
func (in *Interner) Intern(name string) (SignalID, error) {
	in.mu.RLock()
	id, ok := in.ids[name]
	in.mu.RUnlock()
	if ok {
		return id, nil
	}
	if err := ValidateName(name); err != nil {
		return NoSignal, err
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[name]; ok {
		return id, nil
	}
	if len(in.names) >= math.MaxInt32 {
		return NoSignal, fmt.Errorf("tuple: interner full")
	}
	name = strings.Clone(name) // detach from the caller's backing array
	id = SignalID(len(in.names))
	in.names = append(in.names, name)
	var sfx []byte
	if name != "" {
		sfx = append(append(make([]byte, 0, len(name)+1), ' '), name...)
	}
	in.wire = append(in.wire, sfx)
	in.ids[name] = id
	return id, nil
}

// Lookup returns the ID of an already-interned name.
//
//gscope:hotpath
func (in *Interner) Lookup(name string) (SignalID, bool) {
	in.mu.RLock()
	id, ok := in.ids[name]
	in.mu.RUnlock()
	return id, ok
}

// Canonical returns the interned instance of name, interning it first if
// needed, so equal names share one backing array. A name that cannot be
// interned (invalid, or the interner is full) comes back unchanged — the
// caller keeps working, just without the sharing.
func (in *Interner) Canonical(name string) string {
	in.mu.RLock()
	id, ok := in.ids[name]
	in.mu.RUnlock()
	if ok {
		return in.Name(id)
	}
	id, err := in.Intern(name)
	if err != nil {
		return name
	}
	return in.Name(id)
}

// Name returns the canonical name for id, or "" for an unknown ID.
//
//gscope:hotpath
func (in *Interner) Name(id SignalID) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if id < 0 || int(id) >= len(in.names) {
		return ""
	}
	return in.names[id]
}

// NameBytes returns the prebuilt " name" wire suffix for id (empty for the
// unnamed signal or an unknown ID). The slice is shared and must not be
// modified.
//
//gscope:hotpath
func (in *Interner) NameBytes(id SignalID) []byte {
	in.mu.RLock()
	defer in.mu.RUnlock()
	if id < 0 || int(id) >= len(in.wire) {
		return nil
	}
	return in.wire[id]
}

// Len returns the number of interned names.
//
//gscope:hotpath
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.names)
}

// AppendWireID appends the newline-terminated wire form of one sample of
// the interned signal id. The name was validated at Intern time, so the
// encoder is a straight byte append — the zero-allocation batch path
// behind ClientProbe and the hub's interned broadcast.
//
//gscope:hotpath
func (in *Interner) AppendWireID(dst []byte, id SignalID, s Sample) []byte {
	return AppendWireName(dst, in.NameBytes(id), s)
}

// AppendWireName appends one sample line using a prebuilt " name" suffix
// (as returned by Interner.NameBytes; empty encodes the two-field form).
// Callers that hold a suffix encode a whole same-signal run without
// re-validating or re-copying the name per tuple.
//
//gscope:hotpath
func AppendWireName(dst []byte, nameSfx []byte, s Sample) []byte {
	dst = strconv.AppendInt(dst, s.At.Milliseconds(), 10)
	dst = append(dst, ' ')
	dst = AppendValue(dst, s.Value)
	dst = append(dst, nameSfx...)
	return append(dst, '\n')
}
