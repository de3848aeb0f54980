// Package bitvec implements fixed-width packed bit vectors used throughout the
// library to represent Boolean tuples and conjunctive queries.
//
// A tuple over an attribute set {a_0 .. a_{M-1}} is a Vector of width M where
// bit i set means attribute a_i is present. A conjunctive Boolean query is the
// same representation: the query {a_1, a_3} is a Vector with bits 1 and 3 set,
// and a tuple t satisfies the query q exactly when q.SubsetOf(t) — equivalently
// when t dominates q in the paper's terminology.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width bit vector. The zero value is an empty vector of
// width 0; use New or FromIndices to construct vectors of a given width.
// Vectors of different widths are never equal and must not be combined with
// the binary operations.
//
// Vector is a value type with reference semantics for its bits: copying a
// Vector (assignment, passing by value, storing in a slice) shares the
// underlying word storage, so an in-place mutation (Set, Clear) through
// either copy is visible through both. Use Clone before mutating when the
// original must stay intact. The pure operations (And, Or, AndNot, Not)
// allocate a fresh vector and never alias their operands.
type Vector struct {
	width int
	words []uint64
}

// New returns an all-zero vector of the given width (number of bits).
// It panics if width is negative.
func New(width int) Vector {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return Vector{width: width, words: make([]uint64, wordsFor(width))}
}

// FromIndices returns a vector of the given width with exactly the bits at the
// given indices set. It panics if any index is out of [0, width).
func FromIndices(width int, indices ...int) Vector {
	v := New(width)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// FromBools returns a vector whose width is len(b) with bit i set iff b[i].
func FromBools(b []bool) Vector {
	v := New(len(b))
	for i, set := range b {
		if set {
			v.Set(i)
		}
	}
	return v
}

// FromString parses a vector from a string of '0' and '1' runes in index
// order: s[i] is bit i (attribute a_i), exactly the layout String produces,
// so FromString(v.String()) round-trips. Whitespace is ignored. It returns
// an error on any other rune.
func FromString(s string) (Vector, error) {
	width := 0
	for _, r := range s {
		switch r {
		case '0', '1':
			width++
		case ' ', '\t', '\n', '\r':
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid rune %q in %q", r, s)
		}
	}
	v := New(width)
	i := 0
	for _, r := range s {
		switch r {
		case '1':
			v.Set(i)
			fallthrough
		case '0':
			i++
		}
	}
	return v, nil
}

func wordsFor(width int) int { return (width + wordBits - 1) / wordBits }

// Width returns the number of bits in the vector.
func (v Vector) Width() int { return v.width }

// Words returns the vector's backing storage, least-significant word first;
// bits past Width in the final word are always zero. The slice aliases the
// vector: writes through it mutate the vector (and any copies sharing its
// storage). It exists so adjacent packages can run word-parallel loops over
// vectors they own without a copy; treat it as read-only otherwise.
func (v Vector) Words() []uint64 { return v.words }

// FromWords wraps words as a Vector of the given width without copying: the
// returned vector aliases the slice, so mutations flow both ways. It panics
// unless len(words) is exactly the storage size for width and all bits past
// width in the final word are zero — the invariant every Vector maintains.
func FromWords(width int, words []uint64) Vector {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	if len(words) != wordsFor(width) {
		panic(fmt.Sprintf("bitvec: %d words for width %d (want %d)",
			len(words), width, wordsFor(width)))
	}
	if width%wordBits != 0 && len(words) > 0 &&
		words[len(words)-1]&^((1<<(uint(width)%wordBits))-1) != 0 {
		panic(fmt.Sprintf("bitvec: stray bits beyond width %d in final word", width))
	}
	return Vector{width: width, words: words}
}

// Set sets bit i. It panics if i is out of range.
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.width))
	}
}

// Count returns the number of set bits (the cardinality of the attribute set).
func (v Vector) Count() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Ones returns the indices of all set bits in increasing order.
func (v Vector) Ones() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Zeros returns the indices of all clear bits in increasing order.
func (v Vector) Zeros() []int {
	out := make([]int, 0, v.width-v.Count())
	for i := 0; i < v.width; i++ {
		if !v.Get(i) {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{width: v.width, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and u have the same width and the same bits.
func (v Vector) Equal(u Vector) bool {
	if v.width != u.width {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every bit set in v is also set in u.
// In the paper's terms: if v is a query and u a tuple, u retrieves v;
// if both are tuples, u dominates v. Panics if widths differ.
func (v Vector) SubsetOf(u Vector) bool {
	v.sameWidth(u)
	for i := range v.words {
		if v.words[i]&^u.words[i] != 0 {
			return false
		}
	}
	return true
}

// SupersetOf reports whether every bit set in u is also set in v.
func (v Vector) SupersetOf(u Vector) bool { return u.SubsetOf(v) }

// Dominates is the paper's tuple-domination relation: v dominates u when for
// every attribute set in u, v is also set. It is an alias for SupersetOf.
func (v Vector) Dominates(u Vector) bool { return u.SubsetOf(v) }

// Intersects reports whether v and u share at least one set bit.
func (v Vector) Intersects(u Vector) bool {
	v.sameWidth(u)
	for i := range v.words {
		if v.words[i]&u.words[i] != 0 {
			return true
		}
	}
	return false
}

func (v Vector) sameWidth(u Vector) {
	if v.width != u.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.width, u.width))
	}
}

// And returns the bitwise intersection of v and u as a new vector.
func (v Vector) And(u Vector) Vector {
	v.sameWidth(u)
	out := New(v.width)
	for i := range v.words {
		out.words[i] = v.words[i] & u.words[i]
	}
	return out
}

// Or returns the bitwise union of v and u as a new vector.
func (v Vector) Or(u Vector) Vector {
	v.sameWidth(u)
	out := New(v.width)
	for i := range v.words {
		out.words[i] = v.words[i] | u.words[i]
	}
	return out
}

// AndNot returns the set difference v \ u as a new vector.
func (v Vector) AndNot(u Vector) Vector {
	v.sameWidth(u)
	out := New(v.width)
	for i := range v.words {
		out.words[i] = v.words[i] &^ u.words[i]
	}
	return out
}

// Not returns the complement of v within its width: bits set in v become
// clear and vice versa. This is the paper's ~t / ~q operation used by the
// maximal-frequent-itemset reduction.
func (v Vector) Not() Vector {
	out := New(v.width)
	for i := range v.words {
		out.words[i] = ^v.words[i]
	}
	out.trim()
	return out
}

// trim clears any bits beyond width in the final word.
func (v *Vector) trim() {
	if v.width%wordBits != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << (uint(v.width) % wordBits)) - 1
	}
}

// CountAnd returns v.And(u).Count() without allocating.
func (v Vector) CountAnd(u Vector) int {
	v.sameWidth(u)
	n := 0
	for i := range v.words {
		n += bits.OnesCount64(v.words[i] & u.words[i])
	}
	return n
}

// Hash64 returns a 64-bit FNV-1a-style hash of the vector's width and bits,
// folded with seed. Two Equal vectors always hash identically under the same
// seed; the value is an in-process fingerprint only and is not stable across
// library versions.
func (v Vector) Hash64(seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := seed ^ offset
	h = (h ^ uint64(v.width)) * prime
	for _, w := range v.words {
		h = (h ^ w) * prime
	}
	return h
}

// String renders the vector as a string of '0'/'1' runes in index order,
// matching the tabular presentation in the paper (e.g. "110100").
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.width)
	for i := 0; i < v.width; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Key returns a compact string usable as a map key. Two vectors have the
// same key iff they are Equal.
//
// The encoding is the width as an explicit 32-bit little-endian prefix
// (widths above 2³²−1 are unsupported and would collide; nothing in this
// library approaches that), followed by each storage word least-significant
// byte first. Because the width is encoded up front — not inferable from the
// payload length — vectors of different widths that share trailing words
// (e.g. widths 63, 64 and 65 with identical low bits) always get distinct
// keys, and Compressed.Key reproduces the identical encoding so keys are
// representation-independent.
func (v Vector) Key() string {
	return string(v.AppendKey(make([]byte, 0, 8*len(v.words)+4)))
}

// AppendKey appends v's Key encoding to dst and returns the extended
// buffer, so a caller can build keys in one reused buffer and look them up
// with m[string(buf)], which does not allocate.
func (v Vector) AppendKey(dst []byte) []byte {
	dst = append(dst,
		byte(v.width), byte(v.width>>8), byte(v.width>>16), byte(v.width>>24))
	for _, w := range v.words {
		for s := 0; s < 64; s += 8 {
			dst = append(dst, byte(w>>uint(s)))
		}
	}
	return dst
}
