package bitvec

import (
	"fmt"
	"math/bits"
	"sort"
)

// Compressed is a Roaring-style compressed bit set (Chambi, Lemire et al.;
// see also Kaser & Lemire, "Compressed bitmap indexes: beyond unions and
// intersections"): the index space is partitioned into 2¹⁶-bit chunks and
// each non-empty chunk is stored in whichever of three container formats is
// smallest —
//
//   - array:  the sorted uint16 low bits of the members (≤ arrayMaxCard of
//     them, 2 bytes each) — the sparse workhorse;
//   - bitmap: a plain 1024-word dense bitmap (8 KiB) for busy chunks;
//   - run:    sorted (start, last) interval pairs for chunks whose members
//     cluster into few runs (e.g. an almost-full chunk).
//
// A Compressed of width M with n members costs O(n) memory instead of the
// dense Vector's O(M/64) words, and its set algebra visits only the stored
// members, which is what lets the inverted index scale to schemas with tens
// of thousands of attributes (DESIGN.md §12).
//
// Compressed is a pointer type: all methods are on *Compressed, the zero
// value of which is not usable — construct with NewCompressed,
// CompressedFrom, or CompressedFromIndices. Unlike Vector, copying the
// struct value is not supported; pass the pointer. Mutating methods (Set,
// Clear, AndWith, AndNotWith, CopyFrom, Optimize) keep containers in array
// or bitmap form — run containers are produced only by Optimize and are
// transparently expanded the moment a mutation needs them, so read-optimized
// index columns stay compact while scratch sets stay cheap to update.
//
// Compressed implements Bits; Key and Hash64 return exactly what the
// equivalent dense Vector returns, so equal sets are interchangeable across
// representations.
type Compressed struct {
	width int
	keys  []int       // sorted chunk numbers (bit index >> 16), one per container
	cs    []container // cs[i] holds the members of chunk keys[i]; never empty
}

const (
	chunkBits    = 1 << 16        // bit indices per chunk
	chunkWords   = chunkBits / 64 // dense words per full chunk (1024)
	arrayMaxCard = chunkBits / 16 // array containers hold at most 4096 members
	bitmapBytes  = chunkWords * 8 // container cost of a bitmap chunk
	containerFix = 48             // approximate per-container struct overhead
)

type ctype uint8

const (
	carray ctype = iota
	cbitmap
	cruns
)

// container holds one chunk's members. card is maintained by every
// operation; arr carries array elements or run pairs depending on typ.
type container struct {
	typ  ctype
	card int
	arr  []uint16 // carray: sorted members; cruns: (start, last) inclusive pairs
	bmp  []uint64 // cbitmap: chunkWords words
}

func onesCount(w uint64) int     { return bits.OnesCount64(w) }
func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }

func widthMismatch(a, b int) string {
	return fmt.Sprintf("bitvec: width mismatch %d vs %d", a, b)
}

// NewCompressed returns an empty compressed set of the given width.
// It panics if width is negative.
func NewCompressed(width int) *Compressed {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return &Compressed{width: width}
}

// CompressedFrom converts a dense vector, choosing the smallest container
// format per chunk (Optimize is applied). Each container is sized from its
// chunk's popcount, so the conversion allocates per chunk, not per member.
func CompressedFrom(v Vector) *Compressed {
	c := NewCompressed(v.width)
	for lo := 0; lo < len(v.words); lo += chunkWords {
		chunk := v.words[lo:min(lo+chunkWords, len(v.words))]
		n := 0
		for _, w := range chunk {
			n += onesCount(w)
		}
		if n == 0 {
			continue
		}
		ct := container{typ: carray, card: n}
		if n > arrayMaxCard {
			ct.typ, ct.bmp = cbitmap, make([]uint64, chunkWords)
			copy(ct.bmp, chunk)
		} else {
			ct.arr = make([]uint16, 0, n)
			for wi, w := range chunk {
				for ; w != 0; w &= w - 1 {
					ct.arr = append(ct.arr, uint16(wi*wordBits+trailingZeros(w)))
				}
			}
		}
		c.keys = append(c.keys, lo/chunkWords)
		c.cs = append(c.cs, ct)
	}
	c.Optimize()
	return c
}

// CompressedFromIndices returns a compressed set of the given width with
// exactly the bits at the given indices set. It panics if any index is out
// of [0, width).
func CompressedFromIndices(width int, indices ...int) *Compressed {
	c := NewCompressed(width)
	for _, i := range indices {
		c.Set(i)
	}
	return c
}

// Width implements Bits.
func (c *Compressed) Width() int { return c.width }

// Count implements Bits.
func (c *Compressed) Count() int {
	n := 0
	for i := range c.cs {
		n += c.cs[i].card
	}
	return n
}

func (c *Compressed) check(i int) {
	if i < 0 || i >= c.width {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, c.width))
	}
}

// chunkOf returns the position of chunk key in c.keys and whether it exists.
func (c *Compressed) chunkOf(key int) (int, bool) {
	i := sort.SearchInts(c.keys, key)
	return i, i < len(c.keys) && c.keys[i] == key
}

// Get implements Bits.
func (c *Compressed) Get(i int) bool {
	c.check(i)
	ci, ok := c.chunkOf(i >> 16)
	return ok && c.cs[ci].has(uint16(i&0xffff))
}

// Set implements Bits.
func (c *Compressed) Set(i int) {
	c.check(i)
	key := i >> 16
	ci, ok := c.chunkOf(key)
	if !ok {
		c.keys = append(c.keys, 0)
		copy(c.keys[ci+1:], c.keys[ci:])
		c.keys[ci] = key
		c.cs = append(c.cs, container{})
		copy(c.cs[ci+1:], c.cs[ci:])
		c.cs[ci] = container{typ: carray}
	}
	c.cs[ci].set(uint16(i & 0xffff))
}

// Clear clears bit i in place. It panics if i is out of range.
func (c *Compressed) Clear(i int) {
	c.check(i)
	ci, ok := c.chunkOf(i >> 16)
	if !ok {
		return
	}
	c.cs[ci].clear(uint16(i & 0xffff))
	if c.cs[ci].card == 0 {
		c.removeChunk(ci)
	}
}

func (c *Compressed) removeChunk(ci int) {
	c.keys = append(c.keys[:ci], c.keys[ci+1:]...)
	c.cs = append(c.cs[:ci], c.cs[ci+1:]...)
}

// compact drops containers emptied by an in-place operation, swapping rather
// than overwriting so retired containers keep their buffers for reuse.
func (c *Compressed) compact() {
	j := 0
	for i := range c.cs {
		if c.cs[i].card > 0 {
			if i != j {
				c.keys[j] = c.keys[i]
				c.cs[j], c.cs[i] = c.cs[i], c.cs[j]
			}
			j++
		}
	}
	c.keys = c.keys[:j]
	c.cs = c.cs[:j]
}

// Ones implements Bits.
func (c *Compressed) Ones() []int {
	out := make([]int, 0, c.Count())
	c.Range(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Range implements Bits.
func (c *Compressed) Range(yield func(i int) bool) {
	for ci := range c.cs {
		if !c.cs[ci].iterate(c.keys[ci]<<16, yield) {
			return
		}
	}
}

// Clone returns an independent copy of c, preserving container formats.
func (c *Compressed) Clone() *Compressed {
	out := &Compressed{
		width: c.width,
		keys:  append([]int(nil), c.keys...),
		cs:    make([]container, len(c.cs)),
	}
	for i := range c.cs {
		src := &c.cs[i]
		dst := &out.cs[i]
		dst.typ, dst.card = src.typ, src.card
		dst.arr = append([]uint16(nil), src.arr...)
		if src.bmp != nil {
			dst.bmp = append([]uint64(nil), src.bmp...)
		}
	}
	return out
}

// CloneBits implements Bits.
func (c *Compressed) CloneBits() Bits { return c.Clone() }

// CopyFrom makes c an exact copy of u's member set, reusing c's existing
// container storage where capacity allows — after a warm-up copy the
// operation is allocation-free, which is what keeps the index's compressed
// scoring scratch out of the allocator. Run containers of u are expanded to
// array or bitmap form so the copy is cheap to mutate. Panics if widths
// differ.
func (c *Compressed) CopyFrom(u *Compressed) {
	if c.width != u.width {
		panic(widthMismatch(c.width, u.width))
	}
	n := len(u.cs)
	if cap(c.keys) < n {
		c.keys = append(c.keys[:cap(c.keys)], make([]int, n-cap(c.keys))...)
	}
	c.keys = c.keys[:n]
	if cap(c.cs) < n {
		grown := make([]container, n)
		copy(grown, c.cs[:cap(c.cs)])
		c.cs = grown
	}
	c.cs = c.cs[:n]
	copy(c.keys, u.keys)
	for i := range u.cs {
		c.cs[i].copyFrom(&u.cs[i])
	}
}

// Dense materializes the equivalent dense Vector.
func (c *Compressed) Dense() Vector {
	out := New(c.width)
	wi := 0
	c.denseWords(func(w uint64) bool {
		out.words[wi] = w
		wi++
		return true
	})
	return out
}

// denseWords yields every 64-bit word of the equivalent dense vector in
// order (exactly wordsFor(width) of them, zeros included) until yield
// returns false. The scratch chunk buffer lives on the stack.
func (c *Compressed) denseWords(yield func(w uint64) bool) {
	total := wordsFor(c.width)
	var buf [chunkWords]uint64
	wi := 0
	for ci := range c.cs {
		base := c.keys[ci] * chunkWords
		for ; wi < base; wi++ {
			if wi >= total || !yield(0) {
				return
			}
		}
		n := chunkWords
		if total-wi < n {
			n = total - wi
		}
		c.cs[ci].words(buf[:])
		for j := 0; j < n; j++ {
			if !yield(buf[j]) {
				return
			}
		}
		wi += n
	}
	for ; wi < total; wi++ {
		if !yield(0) {
			return
		}
	}
}

// SubsetOfBits implements Bits.
func (c *Compressed) SubsetOfBits(u Bits) bool {
	bitsWidthCheck(c.width, u.Width())
	switch u := u.(type) {
	case Vector:
		for ci := range c.cs {
			if !c.cs[ci].subsetOfWords(chunkSlice(u.words, c.keys[ci])) {
				return false
			}
		}
		return true
	case *Compressed:
		for ci := range c.cs {
			uj, ok := u.chunkOf(c.keys[ci])
			if !ok || !c.cs[ci].subsetOfContainer(&u.cs[uj]) {
				return false
			}
		}
		return true
	default:
		ok := true
		c.Range(func(i int) bool {
			ok = u.Get(i)
			return ok
		})
		return ok
	}
}

// AndBits implements Bits.
func (c *Compressed) AndBits(u Bits) Bits {
	out := c.Clone()
	out.AndWith(u)
	return out
}

// AndNotBits implements Bits.
func (c *Compressed) AndNotBits(u Bits) Bits {
	out := c.Clone()
	out.AndNotWith(u)
	return out
}

// AndWith implements Bits: c ∩= u, returning the resulting Count. Only c's
// own containers are visited.
func (c *Compressed) AndWith(u Bits) int {
	bitsWidthCheck(c.width, u.Width())
	switch u := u.(type) {
	case Vector:
		for ci := range c.cs {
			c.cs[ci].andWords(chunkSlice(u.words, c.keys[ci]))
		}
	case *Compressed:
		for ci := range c.cs {
			if uj, ok := u.chunkOf(c.keys[ci]); ok {
				c.cs[ci].andContainer(&u.cs[uj])
			} else {
				c.cs[ci].card = 0
			}
		}
	default:
		for ci := range c.cs {
			base := c.keys[ci] << 16
			c.cs[ci].filter(func(lo uint16) bool { return u.Get(base | int(lo)) })
		}
	}
	c.compact()
	return c.Count()
}

// AndNotWith implements Bits: c \= u, returning the number of bits cleared.
// Only c's own containers are visited, so peeling a scratch set that has
// already shrunk to a few members costs a few membership tests no matter how
// big the operand column is.
func (c *Compressed) AndNotWith(u Bits) int {
	bitsWidthCheck(c.width, u.Width())
	before := c.Count()
	switch u := u.(type) {
	case Vector:
		for ci := range c.cs {
			c.cs[ci].andNotWords(chunkSlice(u.words, c.keys[ci]))
		}
	case *Compressed:
		for ci := range c.cs {
			if uj, ok := u.chunkOf(c.keys[ci]); ok {
				c.cs[ci].andNotContainer(&u.cs[uj])
			}
		}
	default:
		for ci := range c.cs {
			base := c.keys[ci] << 16
			c.cs[ci].filter(func(lo uint16) bool { return !u.Get(base | int(lo)) })
		}
	}
	c.compact()
	return before - c.Count()
}

// AndCount implements Bits.
func (c *Compressed) AndCount(u Bits) int {
	bitsWidthCheck(c.width, u.Width())
	n := 0
	switch u := u.(type) {
	case Vector:
		for ci := range c.cs {
			n += c.cs[ci].andCountWords(chunkSlice(u.words, c.keys[ci]))
		}
	case *Compressed:
		for ci := range c.cs {
			if uj, ok := u.chunkOf(c.keys[ci]); ok {
				n += c.cs[ci].andCountContainer(&u.cs[uj])
			}
		}
	default:
		c.Range(func(i int) bool {
			if u.Get(i) {
				n++
			}
			return true
		})
	}
	return n
}

// clearDense removes c's members from the dense word slice (the receiver
// side of Vector.AndNotWith against a compressed operand), returning how
// many bits were actually cleared. O(|c|), not O(len(words)).
func (c *Compressed) clearDense(words []uint64) int {
	removed := 0
	for ci := range c.cs {
		ws := chunkSlice(words, c.keys[ci])
		removed += c.cs[ci].clearFromWords(ws)
	}
	return removed
}

// andCountDense counts c's members present in the dense word slice.
func (c *Compressed) andCountDense(words []uint64) int {
	n := 0
	for ci := range c.cs {
		n += c.cs[ci].andCountWords(chunkSlice(words, c.keys[ci]))
	}
	return n
}

// Hash64 implements Bits; the result equals Vector.Hash64 on the equivalent
// dense vector.
func (c *Compressed) Hash64(seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := seed ^ offset
	h = (h ^ uint64(c.width)) * prime
	c.denseWords(func(w uint64) bool {
		h = (h ^ w) * prime
		return true
	})
	return h
}

// Key implements Bits; the result equals Vector.Key on the equivalent dense
// vector (see Vector.Key for the encoding), so memo keys never depend on
// representation. Note the key is dense-sized — O(width/8) bytes — and meant
// for the narrow tuples the solution memo stores, not for fingerprinting
// wide scratch sets (use Hash64 there).
func (c *Compressed) Key() string {
	buf := make([]byte, 0, 8*wordsFor(c.width)+4)
	buf = append(buf,
		byte(c.width), byte(c.width>>8), byte(c.width>>16), byte(c.width>>24))
	c.denseWords(func(w uint64) bool {
		for s := 0; s < 64; s += 8 {
			buf = append(buf, byte(w>>uint(s)))
		}
		return true
	})
	return string(buf)
}

// SizeBytes estimates the heap footprint of the set: container payloads plus
// a fixed per-container overhead for the header and chunk key. It is the
// quantity the density heuristic in package index minimizes.
func (c *Compressed) SizeBytes() int {
	n := 0
	for i := range c.cs {
		switch c.cs[i].typ {
		case cbitmap:
			n += bitmapBytes
		default:
			n += 2 * len(c.cs[i].arr)
		}
		n += containerFix
	}
	return n
}

// Optimize converts every container to its smallest format: array versus
// bitmap by cardinality, and run encoding when the members cluster into few
// enough intervals that (start, last) pairs beat both. Mutating operations
// undo run encoding on demand, so Optimize is typically called once after a
// set reaches its final read-mostly state (index Build does).
func (c *Compressed) Optimize() {
	for i := range c.cs {
		c.cs[i].optimize()
	}
}

// chunkSlice returns the dense words of chunk key within words — possibly
// short (the final chunk of a width that is not a multiple of 2¹⁶) or empty.
func chunkSlice(words []uint64, key int) []uint64 {
	lo := key * chunkWords
	if lo >= len(words) {
		return nil
	}
	hi := lo + chunkWords
	if hi > len(words) {
		hi = len(words)
	}
	return words[lo:hi]
}

// wordBit tests bit lo of a chunk-local dense word slice; bits beyond the
// slice are absent.
func wordBit(words []uint64, lo uint16) bool {
	wi := int(lo) >> 6
	return wi < len(words) && words[wi]&(1<<(lo&63)) != 0
}

// Container operations. Mutating receivers are always array or bitmap
// (makeMutable expands runs first); operands may be any of the three.

// has reports membership of the chunk-local value lo.
func (ct *container) has(lo uint16) bool {
	switch ct.typ {
	case carray:
		i := sort.Search(len(ct.arr), func(i int) bool { return ct.arr[i] >= lo })
		return i < len(ct.arr) && ct.arr[i] == lo
	case cbitmap:
		return ct.bmp[lo>>6]&(1<<(lo&63)) != 0
	default: // cruns
		n := len(ct.arr) / 2
		i := sort.Search(n, func(i int) bool { return ct.arr[2*i] > lo })
		return i > 0 && lo <= ct.arr[2*(i-1)+1]
	}
}

// set inserts lo, converting array→bitmap past arrayMaxCard.
func (ct *container) set(lo uint16) {
	ct.makeMutable()
	switch ct.typ {
	case carray:
		i := sort.Search(len(ct.arr), func(i int) bool { return ct.arr[i] >= lo })
		if i < len(ct.arr) && ct.arr[i] == lo {
			return
		}
		if len(ct.arr) >= arrayMaxCard {
			ct.toBitmap()
			ct.set(lo)
			return
		}
		ct.arr = append(ct.arr, 0)
		copy(ct.arr[i+1:], ct.arr[i:])
		ct.arr[i] = lo
		ct.card++
	case cbitmap:
		if ct.bmp[lo>>6]&(1<<(lo&63)) == 0 {
			ct.bmp[lo>>6] |= 1 << (lo & 63)
			ct.card++
		}
	}
}

// clear removes lo. Bitmap containers are not shrunk back to arrays
// automatically; Optimize does that.
func (ct *container) clear(lo uint16) {
	ct.makeMutable()
	switch ct.typ {
	case carray:
		i := sort.Search(len(ct.arr), func(i int) bool { return ct.arr[i] >= lo })
		if i < len(ct.arr) && ct.arr[i] == lo {
			ct.arr = append(ct.arr[:i], ct.arr[i+1:]...)
			ct.card--
		}
	case cbitmap:
		if ct.bmp[lo>>6]&(1<<(lo&63)) != 0 {
			ct.bmp[lo>>6] &^= 1 << (lo & 63)
			ct.card--
		}
	}
}

// makeMutable expands a run container into array or bitmap form so in-place
// mutation stays simple; array and bitmap receivers are untouched.
func (ct *container) makeMutable() {
	if ct.typ != cruns {
		return
	}
	runs := ct.arr
	if ct.card <= arrayMaxCard {
		arr := make([]uint16, 0, ct.card)
		for i := 0; i+1 < len(runs); i += 2 {
			for v := int(runs[i]); v <= int(runs[i+1]); v++ {
				arr = append(arr, uint16(v))
			}
		}
		ct.typ, ct.arr = carray, arr
		return
	}
	bmp := make([]uint64, chunkWords)
	setWordRanges(bmp, runs)
	ct.typ, ct.arr, ct.bmp = cbitmap, nil, bmp
}

// toBitmap converts an array container to bitmap form.
func (ct *container) toBitmap() {
	bmp := ct.bmp
	if len(bmp) != chunkWords {
		bmp = make([]uint64, chunkWords)
	} else {
		for i := range bmp {
			bmp[i] = 0
		}
	}
	for _, lo := range ct.arr {
		bmp[lo>>6] |= 1 << (lo & 63)
	}
	ct.typ, ct.bmp, ct.arr = cbitmap, bmp, ct.arr[:0]
}

// copyFrom overwrites ct with src's members, reusing buffers; run sources
// are expanded to a mutable form.
func (ct *container) copyFrom(src *container) {
	switch src.typ {
	case carray:
		ct.typ, ct.card = carray, src.card
		ct.arr = append(ct.arr[:0], src.arr...)
	case cbitmap:
		if len(ct.bmp) != chunkWords {
			ct.bmp = make([]uint64, chunkWords)
		}
		copy(ct.bmp, src.bmp)
		ct.typ, ct.card = cbitmap, src.card
		ct.arr = ct.arr[:0]
	case cruns:
		if src.card <= arrayMaxCard {
			ct.typ, ct.card = carray, src.card
			ct.arr = ct.arr[:0]
			runs := src.arr
			for i := 0; i+1 < len(runs); i += 2 {
				for v := int(runs[i]); v <= int(runs[i+1]); v++ {
					ct.arr = append(ct.arr, uint16(v))
				}
			}
		} else {
			if len(ct.bmp) != chunkWords {
				ct.bmp = make([]uint64, chunkWords)
			} else {
				for i := range ct.bmp {
					ct.bmp[i] = 0
				}
			}
			setWordRanges(ct.bmp, src.arr)
			ct.typ, ct.card = cbitmap, src.card
			ct.arr = ct.arr[:0]
		}
	}
}

// iterate yields base+member for each member in increasing order.
func (ct *container) iterate(base int, yield func(i int) bool) bool {
	switch ct.typ {
	case carray:
		for _, lo := range ct.arr {
			if !yield(base | int(lo)) {
				return false
			}
		}
	case cbitmap:
		for wi, w := range ct.bmp {
			for w != 0 {
				if !yield(base | wi<<6 | trailingZeros(w)) {
					return false
				}
				w &= w - 1
			}
		}
	default: // cruns
		for i := 0; i+1 < len(ct.arr); i += 2 {
			for v := int(ct.arr[i]); v <= int(ct.arr[i+1]); v++ {
				if !yield(base | v) {
					return false
				}
			}
		}
	}
	return true
}

// words writes the container's dense chunk image into buf (chunkWords long).
func (ct *container) words(buf []uint64) {
	for i := range buf {
		buf[i] = 0
	}
	switch ct.typ {
	case carray:
		for _, lo := range ct.arr {
			buf[lo>>6] |= 1 << (lo & 63)
		}
	case cbitmap:
		copy(buf, ct.bmp)
	default:
		setWordRanges(buf, ct.arr)
	}
}

// setWordRanges sets the inclusive (start, last) run pairs into dense words.
func setWordRanges(words []uint64, runs []uint16) {
	for i := 0; i+1 < len(runs); i += 2 {
		s, e := int(runs[i]), int(runs[i+1])
		for w := s >> 6; w <= e>>6; w++ {
			mask := ^uint64(0)
			if w == s>>6 {
				mask &= ^uint64(0) << (s & 63)
			}
			if w == e>>6 {
				mask &= ^uint64(0) >> (63 - e&63)
			}
			words[w] |= mask
		}
	}
}

// filter keeps only the members for which keep returns true; any receiver
// format is handled (runs via makeMutable).
func (ct *container) filter(keep func(lo uint16) bool) {
	ct.makeMutable()
	switch ct.typ {
	case carray:
		out := ct.arr[:0]
		for _, lo := range ct.arr {
			if keep(lo) {
				out = append(out, lo)
			}
		}
		ct.arr = out
		ct.card = len(out)
	case cbitmap:
		for wi, w := range ct.bmp {
			for m := w; m != 0; m &= m - 1 {
				lo := uint16(wi<<6 | trailingZeros(m))
				if !keep(lo) {
					ct.bmp[wi] &^= 1 << (lo & 63)
					ct.card--
				}
			}
		}
	}
}

// andWords intersects in place with a chunk-local dense word slice.
func (ct *container) andWords(words []uint64) {
	ct.makeMutable()
	switch ct.typ {
	case carray:
		out := ct.arr[:0]
		for _, lo := range ct.arr {
			if wordBit(words, lo) {
				out = append(out, lo)
			}
		}
		ct.arr = out
		ct.card = len(out)
	case cbitmap:
		card := 0
		for wi := range ct.bmp {
			if wi < len(words) {
				ct.bmp[wi] &= words[wi]
			} else {
				ct.bmp[wi] = 0
			}
			card += onesCount(ct.bmp[wi])
		}
		ct.card = card
	}
}

// andNotWords subtracts a chunk-local dense word slice in place.
func (ct *container) andNotWords(words []uint64) {
	ct.makeMutable()
	switch ct.typ {
	case carray:
		out := ct.arr[:0]
		for _, lo := range ct.arr {
			if !wordBit(words, lo) {
				out = append(out, lo)
			}
		}
		ct.arr = out
		ct.card = len(out)
	case cbitmap:
		card := 0
		n := len(words)
		if n > len(ct.bmp) {
			n = len(ct.bmp)
		}
		for wi := 0; wi < n; wi++ {
			ct.bmp[wi] &^= words[wi]
			card += onesCount(ct.bmp[wi])
		}
		for wi := n; wi < len(ct.bmp); wi++ {
			card += onesCount(ct.bmp[wi])
		}
		ct.card = card
	}
}

// andContainer intersects in place with another container.
func (ct *container) andContainer(o *container) {
	if o.typ == cbitmap {
		ct.andWords(o.bmp)
		return
	}
	ct.filter(o.has)
}

// andNotContainer subtracts another container in place.
func (ct *container) andNotContainer(o *container) {
	switch {
	case o.typ == cbitmap:
		ct.andNotWords(o.bmp)
	case ct.typ == cbitmap && o.typ == carray:
		// Clear o's few members directly instead of walking ct's bits.
		for _, lo := range o.arr {
			if ct.bmp[lo>>6]&(1<<(lo&63)) != 0 {
				ct.bmp[lo>>6] &^= 1 << (lo & 63)
				ct.card--
			}
		}
	default:
		ct.filter(func(lo uint16) bool { return !o.has(lo) })
	}
}

// clearFromWords clears ct's members out of a chunk-local dense word slice,
// returning how many bits were actually cleared. ct is read-only here.
func (ct *container) clearFromWords(words []uint64) int {
	removed := 0
	switch ct.typ {
	case carray:
		for _, lo := range ct.arr {
			wi := int(lo) >> 6
			if wi < len(words) && words[wi]&(1<<(lo&63)) != 0 {
				words[wi] &^= 1 << (lo & 63)
				removed++
			}
		}
	case cbitmap:
		n := len(words)
		if n > chunkWords {
			n = chunkWords
		}
		for wi := 0; wi < n; wi++ {
			old := words[wi]
			words[wi] = old &^ ct.bmp[wi]
			removed += onesCount(old &^ words[wi])
		}
	default: // cruns
		for i := 0; i+1 < len(ct.arr); i += 2 {
			s, e := int(ct.arr[i]), int(ct.arr[i+1])
			for w := s >> 6; w <= e>>6 && w < len(words); w++ {
				mask := ^uint64(0)
				if w == s>>6 {
					mask &= ^uint64(0) << (s & 63)
				}
				if w == e>>6 {
					mask &= ^uint64(0) >> (63 - e&63)
				}
				removed += onesCount(words[w] & mask)
				words[w] &^= mask
			}
		}
	}
	return removed
}

// andCountWords counts ct's members present in a chunk-local dense slice.
func (ct *container) andCountWords(words []uint64) int {
	n := 0
	switch ct.typ {
	case carray:
		for _, lo := range ct.arr {
			if wordBit(words, lo) {
				n++
			}
		}
	case cbitmap:
		m := len(words)
		if m > chunkWords {
			m = chunkWords
		}
		for wi := 0; wi < m; wi++ {
			n += onesCount(ct.bmp[wi] & words[wi])
		}
	default: // cruns
		for i := 0; i+1 < len(ct.arr); i += 2 {
			s, e := int(ct.arr[i]), int(ct.arr[i+1])
			for w := s >> 6; w <= e>>6 && w < len(words); w++ {
				mask := ^uint64(0)
				if w == s>>6 {
					mask &= ^uint64(0) << (s & 63)
				}
				if w == e>>6 {
					mask &= ^uint64(0) >> (63 - e&63)
				}
				n += onesCount(words[w] & mask)
			}
		}
	}
	return n
}

// andCountContainer counts the intersection of two containers.
func (ct *container) andCountContainer(o *container) int {
	if ct.typ == cbitmap && o.typ != cbitmap {
		return o.andCountContainer(ct) // walk the smaller side
	}
	if o.typ == cbitmap {
		return ct.andCountWords(o.bmp)
	}
	n := 0
	ct.iterate(0, func(i int) bool {
		if o.has(uint16(i)) {
			n++
		}
		return true
	})
	return n
}

// subsetOfWords reports whether every member is set in the chunk-local
// dense word slice.
func (ct *container) subsetOfWords(words []uint64) bool {
	if ct.typ == cbitmap {
		for wi, w := range ct.bmp {
			uw := uint64(0)
			if wi < len(words) {
				uw = words[wi]
			}
			if w&^uw != 0 {
				return false
			}
		}
		return true
	}
	ok := true
	ct.iterate(0, func(i int) bool {
		ok = wordBit(words, uint16(i))
		return ok
	})
	return ok
}

// subsetOfContainer reports whether every member of ct is in o.
func (ct *container) subsetOfContainer(o *container) bool {
	if ct.card > o.card {
		return false
	}
	if o.typ == cbitmap {
		return ct.subsetOfWords(o.bmp)
	}
	ok := true
	ct.iterate(0, func(i int) bool {
		ok = o.has(uint16(i))
		return ok
	})
	return ok
}

// numRuns counts the maximal runs of consecutive members.
func (ct *container) numRuns() int {
	switch ct.typ {
	case carray:
		r, prev := 0, -2
		for _, lo := range ct.arr {
			if int(lo) != prev+1 {
				r++
			}
			prev = int(lo)
		}
		return r
	case cbitmap:
		r := 0
		carry := uint64(0)
		for _, w := range ct.bmp {
			r += onesCount(w &^ (w<<1 | carry))
			carry = w >> 63
		}
		return r
	default:
		return len(ct.arr) / 2
	}
}

// optimize rewrites the container in its smallest format.
func (ct *container) optimize() {
	if ct.card == 0 {
		return
	}
	runBytes := 4 * ct.numRuns()
	arrBytes := 2 * ct.card
	best := bitmapBytes
	if ct.card <= arrayMaxCard && arrBytes < best {
		best = arrBytes
	}
	if runBytes < best {
		ct.toRuns()
		return
	}
	switch {
	case ct.card <= arrayMaxCard && ct.typ != carray:
		ct.toArray()
	case ct.card > arrayMaxCard && ct.typ != cbitmap:
		ct.makeMutable() // runs with high cardinality and many runs → bitmap
		if ct.typ == carray {
			ct.toBitmap()
		}
	}
}

// toArray rewrites any container as a sorted element array.
func (ct *container) toArray() {
	if ct.typ == carray {
		return
	}
	arr := make([]uint16, 0, ct.card)
	ct.iterate(0, func(i int) bool {
		arr = append(arr, uint16(i))
		return true
	})
	ct.typ, ct.arr, ct.bmp = carray, arr, nil
}

// toRuns rewrites any container as inclusive (start, last) run pairs.
func (ct *container) toRuns() {
	if ct.typ == cruns {
		return
	}
	runs := make([]uint16, 0, 2*ct.numRuns())
	start, prev := -2, -2
	ct.iterate(0, func(i int) bool {
		if i != prev+1 {
			if start >= 0 {
				runs = append(runs, uint16(start), uint16(prev))
			}
			start = i
		}
		prev = i
		return true
	})
	if start >= 0 {
		runs = append(runs, uint16(start), uint16(prev))
	}
	ct.typ, ct.arr, ct.bmp = cruns, runs, nil
}
