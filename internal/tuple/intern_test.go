package tuple

import (
	"strings"
	"sync"
	"testing"
)

func TestInternerAssignsDenseIDs(t *testing.T) {
	in := NewInterner()
	names := []string{"cwnd", "cps", "errps"}
	for i, name := range names {
		id, err := in.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		if id != SignalID(i) {
			t.Fatalf("Intern(%q) = %d, want %d", name, id, i)
		}
	}
	// Idempotent: re-interning returns the same ID.
	id, err := in.Intern("cps")
	if err != nil || id != 1 {
		t.Fatalf("re-Intern(cps) = %d, %v", id, err)
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d", in.Len())
	}
	if got := in.Name(2); got != "errps" {
		t.Fatalf("Name(2) = %q", got)
	}
	if got := in.Name(99); got != "" {
		t.Fatalf("Name(99) = %q", got)
	}
	if id, ok := in.Lookup("cwnd"); !ok || id != 0 {
		t.Fatalf("Lookup(cwnd) = %d, %v", id, ok)
	}
	if _, ok := in.Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name succeeded")
	}
}

func TestInternerRejectsInvalidNames(t *testing.T) {
	in := NewInterner()
	for _, bad := range []string{"a\nb", "a\rb", " padded", "padded ", "\ttab"} {
		if _, err := in.Intern(bad); err == nil {
			t.Errorf("Intern(%q) accepted an invalid name", bad)
		}
	}
	// The empty name is the two-field form's unnamed signal.
	id, err := in.Intern("")
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Name(id); got != "" {
		t.Fatalf("Name(unnamed) = %q", got)
	}
}

func TestInternerCanonicalShares(t *testing.T) {
	in := NewInterner()
	a := in.Canonical("cwnd")
	b := in.Canonical(strings.Clone("cwnd")) // distinct backing array
	if a != b {
		t.Fatalf("canonical mismatch: %q vs %q", a, b)
	}
	// Same backing array: comparing the string data pointers via the
	// cheapest observable proxy — canonical of canonical is identity.
	if c := in.Canonical(a); c != a {
		t.Fatal("canonical not idempotent")
	}
	// Invalid names pass through unchanged instead of erroring.
	if got := in.Canonical("a\nb"); got != "a\nb" {
		t.Fatalf("Canonical(invalid) = %q", got)
	}
}

func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	var wg sync.WaitGroup
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				name := names[i%len(names)]
				id, err := in.Intern(name)
				if err != nil {
					t.Error(err)
					return
				}
				if got := in.Name(id); got != name {
					t.Errorf("Name(Intern(%q)) = %q", name, got)
					return
				}
				if got := in.Canonical(name); got != name {
					t.Errorf("Canonical(%q) = %q", name, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if in.Len() != len(names) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(names))
	}
}
