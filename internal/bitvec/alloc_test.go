package bitvec

import "testing"

// TestVectorCompressedOpsNoAlloc pins that the in-place and counting Vector
// operations on a *Compressed operand — the index's dense working set peeled
// or ANDed with a compressed column — never allocate.
func TestVectorCompressedOpsNoAlloc(t *testing.T) {
	const width = 5000
	col := NewCompressed(width)
	for i := 0; i < width; i += 37 {
		col.Set(i)
	}
	v := New(width)
	fill := func() {
		for i := range v.words {
			v.words[i] = ^uint64(0)
		}
		v.words[len(v.words)-1] &= 1<<(width%wordBits) - 1
	}
	for name, op := range map[string]func(){
		"AndWith":    func() { fill(); v.AndWith(col) },
		"AndNotWith": func() { fill(); v.AndNotWith(col) },
		"AndCount":   func() { v.AndCount(col) },
	} {
		if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
			t.Errorf("Vector.%s(*Compressed) allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
