//go:build go1.24

package dataset

import (
	"runtime"
	"testing"
	"weak"

	"standout/internal/bitvec"
)

// TestOlderGenerationCollected: generations share their store without
// linking to each other, so while the newest generation stays live, an
// older one is collected once nothing else holds it.
func TestOlderGenerationCollected(t *testing.T) {
	root := NewQueryLog(GenericSchema(4))
	for i := 0; i < 16; i++ {
		if err := root.AppendWeighted(bitvec.FromIndices(4, i%4), 1+i%3); err != nil {
			t.Fatal(err)
		}
	}
	old := root.Extend()
	if err := old.Append(bitvec.FromIndices(4, 0, 1)); err != nil {
		t.Fatal(err)
	}
	oldVersion, oldSize := old.Version(), old.Size()
	next := old.Extend()
	if err := next.Append(bitvec.FromIndices(4, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if !next.ExtendsFrom(old, oldVersion, oldSize) {
		t.Fatal("the newest generation does not prove it extends the older one")
	}
	gone := weak.Make(old)
	old = nil
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("the newest generation keeps an older one reachable")
	}
	if !next.ExtendsFrom(root, root.Version(), root.Size()) || next.Size() != oldSize+1 {
		t.Fatal("the newest generation lost its entries or its lineage")
	}
}
