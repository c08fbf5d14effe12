package tuple

import (
	"fmt"
	"math"
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

// Interner assigns dense SignalIDs to signal names and keeps one canonical
// string per name, so the per-sample paths never hash, validate, or copy a
// name again:
//
//   - Intern validates once (ValidateName) and is idempotent — the probe
//     registration step.
//   - Canonical maps any equal string to the interned instance, and
//     CanonicalizeNames does so for a batch, so tuples of one signal
//     from many sources (a hub's publisher connections, its injectors)
//     share one name in long-lived queues and histories.
//
// An Interner is safe for concurrent use. Interned names are never
// released; Canonical stops interning at 4096 names, and callers of
// Intern managing unbounded name spaces should cap growth via Len.
type Interner struct {
	mu sync.RWMutex
	//gscope:guardedby mu
	ids map[string]SignalID
	//gscope:guardedby mu
	names []string
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

// maxCanonicalNames bounds how many names Canonical interns, so a peer
// inventing names cannot grow an interner without limit.
const maxCanonicalNames = 4096

// Canonical returns the interned instance of name, interning it first
// while the interner holds fewer than maxCanonicalNames names, so equal
// names share one backing array. Past the cap, or for a name that cannot
// be interned, it returns a copy: either way the result never shares the
// caller's backing array.
//
//gscope:hotpath
func (in *Interner) Canonical(name string) string {
	in.mu.RLock()
	id, ok := in.ids[name]
	full := len(in.names) >= maxCanonicalNames
	if ok {
		name = in.names[id]
	}
	in.mu.RUnlock()
	if ok {
		return name
	}
	if !full {
		if id, err := in.Intern(name); err == nil { //gscope:allow hotpath interning allocates once per new signal name, not per tuple
			return in.Name(id)
		}
	}
	return strings.Clone(name) //gscope:allow hotpath past the name cap the name is copied so it pins no caller's buffer
}

// CanonicalizeNames rewrites each tuple's name to its Canonical instance,
// so every tuple of one signal shares a single string whichever
// connection or caller it came from (each StreamDecoder keeps its own
// name table, so names from different streams are equal, not shared).
// Batches are overwhelmingly runs of one signal, so after the first tuple
// of a run the rewrite is a string compare; past the cap each run gets
// its own copy.
//
//gscope:hotpath
func (in *Interner) CanonicalizeNames(batch []Tuple) {
	var prev, prevC string
	for i := range batch {
		if name := batch[i].Name; name != prev {
			prev, prevC = name, in.Canonical(name)
		}
		batch[i].Name = prevC
	}
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

// Len returns the number of interned names.
//
//gscope:hotpath
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.names)
}
