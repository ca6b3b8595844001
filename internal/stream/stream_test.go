package stream

import (
	"testing"
)

func TestEdgeKeyConsistent(t *testing.T) {
	e := Edge{Src: 10, Dst: 20}
	if e.Key() != EdgeKey(10, 20) {
		t.Error("Edge.Key disagrees with EdgeKey")
	}
	if EdgeKey(10, 20) == EdgeKey(20, 10) {
		t.Error("directed edge keys must differ")
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern("alice")
	b := in.Intern("bob")
	if a == b {
		t.Error("distinct labels share an id")
	}
	if got := in.Intern("alice"); got != a {
		t.Errorf("re-intern = %d, want %d", got, a)
	}
	if in.Len() != 2 {
		t.Errorf("len = %d, want 2", in.Len())
	}
	if in.Label(a) != "alice" || in.Label(b) != "bob" {
		t.Error("label lookup failed")
	}
	if in.Label(99) != "" {
		t.Error("unknown id should yield empty label")
	}
	if id, ok := in.Lookup("bob"); !ok || id != b {
		t.Error("lookup failed")
	}
	if _, ok := in.Lookup("carol"); ok {
		t.Error("lookup of unknown label succeeded")
	}
	// Dense ids in first-seen order.
	if a != 0 || b != 1 {
		t.Errorf("ids not dense: a=%d b=%d", a, b)
	}
}
