package bitvec

// Bits is the representation-polymorphic bit-set interface shared by the
// dense Vector and the Roaring-style Compressed type. It covers exactly the
// operations the solver stack needs from a set of bit indices — cardinality,
// point access, containment, intersection/difference algebra (including the
// in-place forms the index's peel/SatisfiedDropping hot loop runs on),
// ordered iteration, fingerprinting, and cloning — so the inverted index can
// choose a representation per column without the solvers noticing.
//
// Aliasing and mutation contract (mirroring Vector's): implementations may
// share storage with the value they were derived from — Vector views over
// index-owned words and Column handles are read-only unless documented
// otherwise. The in-place operations (Set, AndWith, AndNotWith) mutate the
// receiver and must only be used on sets the caller owns (a CloneBits result,
// a scratch set); binary operands are never mutated. The pure operations
// (AndBits, AndNotBits) allocate a fresh set and never alias either operand.
//
// Two Bits of any representation are interchangeable when they hold the same
// width and members: Key returns the same canonical encoding and Hash64 the
// same value for equal sets regardless of representation, so representation
// never leaks into memo keys or fingerprints.
//
// All binary operations panic when the operand widths differ, like Vector's
// concrete algebra.
type Bits interface {
	// Width returns the number of addressable bits.
	Width() int
	// Count returns the number of set bits.
	Count() int
	// Get reports whether bit i is set. Panics if i is out of range.
	Get(i int) bool
	// Set sets bit i in place. Panics if i is out of range.
	Set(i int)
	// Ones returns the indices of all set bits in increasing order.
	Ones() []int
	// Range calls yield on each set bit in increasing order until yield
	// returns false. It never allocates.
	Range(yield func(i int) bool)
	// SubsetOfBits reports whether every set bit of the receiver is set in u.
	SubsetOfBits(u Bits) bool
	// AndBits returns the intersection as a fresh set of the receiver's
	// representation.
	AndBits(u Bits) Bits
	// AndNotBits returns the difference (receiver minus u) as a fresh set of
	// the receiver's representation.
	AndNotBits(u Bits) Bits
	// AndWith intersects in place and returns the resulting Count.
	AndWith(u Bits) int
	// AndNotWith removes u's bits in place and returns how many bits were
	// cleared — the form the index's peel loop uses to maintain a running
	// live count without rescanning the working set.
	AndNotWith(u Bits) int
	// AndCount returns the size of the intersection without allocating.
	AndCount(u Bits) int
	// Hash64 returns the same fingerprint Vector.Hash64 returns for the
	// equivalent dense vector.
	Hash64(seed uint64) uint64
	// Key returns the same canonical map key Vector.Key returns for the
	// equivalent dense vector.
	Key() string
	// CloneBits returns an independent, mutable copy.
	CloneBits() Bits
}

// Compile-time interface checks for both representations.
var (
	_ Bits = Vector{}
	_ Bits = (*Compressed)(nil)
)

// bitsWidthCheck panics when two operand widths differ, matching the
// concrete Vector algebra's behavior. It compares ints, not Bits: boxing a
// Vector receiver into the interface would allocate on every call.
func bitsWidthCheck(a, b int) {
	if a != b {
		panic(widthMismatch(a, b))
	}
}

// Vector's Bits implementation. Width, Count, Get, Set, Ones, Hash64 and Key
// are the concrete methods in bitvec.go; the methods below add the
// cross-representation algebra. Each type-switches on the operand so the
// dense×dense case stays the plain word loop and the dense×compressed case
// touches only the compressed operand's members.

// Range implements Bits.
func (v Vector) Range(yield func(i int) bool) {
	for wi, w := range v.words {
		for w != 0 {
			b := wi*wordBits + trailingZeros(w)
			if !yield(b) {
				return
			}
			w &= w - 1
		}
	}
}

// SubsetOfBits implements Bits.
func (v Vector) SubsetOfBits(u Bits) bool {
	switch u := u.(type) {
	case Vector:
		return v.SubsetOf(u)
	case *Compressed:
		bitsWidthCheck(v.width, u.Width())
		ok := true
		wi := 0
		u.denseWords(func(w uint64) bool {
			if v.words[wi]&^w != 0 {
				ok = false
				return false
			}
			wi++
			return true
		})
		return ok
	default:
		bitsWidthCheck(v.width, u.Width())
		ok := true
		v.Range(func(i int) bool {
			ok = u.Get(i)
			return ok
		})
		return ok
	}
}

// AndBits implements Bits.
func (v Vector) AndBits(u Bits) Bits {
	out := v.Clone()
	out.AndWith(u)
	return out
}

// AndNotBits implements Bits.
func (v Vector) AndNotBits(u Bits) Bits {
	out := v.Clone()
	out.AndNotWith(u)
	return out
}

// AndWith implements Bits: v ∩= u, returning the resulting Count.
func (v Vector) AndWith(u Bits) int {
	bitsWidthCheck(v.width, u.Width())
	n := 0
	switch u := u.(type) {
	case Vector:
		for i := range v.words {
			v.words[i] &= u.words[i]
			n += onesCount(v.words[i])
		}
	case *Compressed:
		wi := 0
		u.denseWords(func(w uint64) bool {
			v.words[wi] &= w
			n += onesCount(v.words[wi])
			wi++
			return true
		})
	default:
		for wi, w := range v.words {
			for m := w; m != 0; m &= m - 1 {
				i := wi*wordBits + trailingZeros(m)
				if !u.Get(i) {
					v.words[wi] &^= 1 << (uint(i) % wordBits)
				}
			}
			n += onesCount(v.words[wi])
		}
	}
	return n
}

// AndNotWith implements Bits: v \= u, returning the number of bits cleared.
// The dense×compressed case touches only u's members — O(|u|) instead of
// O(width/64) — which is what makes peeling a sparse column cheap.
func (v Vector) AndNotWith(u Bits) int {
	bitsWidthCheck(v.width, u.Width())
	switch u := u.(type) {
	case Vector:
		removed := 0
		for i := range v.words {
			old := v.words[i]
			v.words[i] = old &^ u.words[i]
			removed += onesCount(old &^ v.words[i])
		}
		return removed
	case *Compressed:
		return u.clearDense(v.words)
	default:
		removed := 0
		u.Range(func(i int) bool {
			w, bit := i/wordBits, uint64(1)<<(uint(i)%wordBits)
			if v.words[w]&bit != 0 {
				v.words[w] &^= bit
				removed++
			}
			return true
		})
		return removed
	}
}

// AndCount implements Bits.
func (v Vector) AndCount(u Bits) int {
	bitsWidthCheck(v.width, u.Width())
	switch u := u.(type) {
	case Vector:
		return v.CountAnd(u)
	case *Compressed:
		return u.andCountDense(v.words)
	default:
		n := 0
		u.Range(func(i int) bool {
			if v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0 {
				n++
			}
			return true
		})
		return n
	}
}

// CloneBits implements Bits.
func (v Vector) CloneBits() Bits { return v.Clone() }
