// Package index builds an inverted attribute→query bitmap index over a
// query log, the shared read-only substrate of the batch solve path.
//
// The key observation is containment by complement: a conjunctive query q
// retrieves a (compressed) tuple v exactly when q ⊆ v, i.e. when q contains
// no attribute outside v. With one bitmap per attribute marking the queries
// that contain it, the set of queries satisfied by v is the whole log minus
// the union of the bitmaps of the attributes v lacks:
//
//	satisfied(v) = Q \ ⋃_{a ∉ v} with[a]
//
// For the solvers' hot path — scoring a candidate compression v ⊆ t against
// the queries already known to fit inside the tuple t — the union runs over
// only the |t|−|v| dropped attributes, turning a scan of every query into a
// handful of word-parallel AND-NOT passes with early exit. Query-size
// buckets (sizeLE) prune the starting set further: a query demanding more
// than |t| attributes can never fit inside t.
//
// Each attribute column and each size bucket independently picks its
// representation at Build time by measured density: busy columns stay
// uncompressed word-aligned bitmaps (at moderate scale the dense layout is
// both smaller and faster — Kaser & Lemire), while sparse columns switch to
// Roaring-style compressed sets (bitvec.Compressed) whose peel cost is
// O(members) instead of O(queries/64). That is what lets one index span
// schemas with tens of thousands of attributes, where almost every column is
// nearly empty and a dense column per attribute would cost O(M·S/64) words.
// The Options mode can force either representation everywhere; results are
// bit-identical in all modes, only memory and speed differ (DESIGN.md §12).
//
// An Index is immutable after Build and safe for unbounded concurrent use;
// Fingerprint ties it to the exact log contents it was built from.
package index

import (
	"fmt"
	"math/bits"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// Bitmap is a packed set of query indices: bit i set means query i of the
// indexed log is a member. Bitmaps returned by Index methods that share
// internal storage are documented as read-only.
type Bitmap []uint64

// Count returns the number of queries in the set.
func (b Bitmap) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of b.
func (b Bitmap) Clone() Bitmap {
	out := make(Bitmap, len(b))
	copy(out, b)
	return out
}

// Get reports whether query i is in the set. It panics with a descriptive
// message if i is outside the bitmap's capacity [0, 64·len(b)) — note the
// capacity is the indexed log size rounded up to a word, so ids in the
// final word's padding read as false rather than panicking; Index methods
// never hand out ids in that range.
func (b Bitmap) Get(i int) bool {
	if i < 0 || i >= len(b)*64 {
		panic(fmt.Sprintf("index: query id %d out of range [0,%d)", i, len(b)*64))
	}
	return b[i/64]&(1<<(i%64)) != 0
}

// Ones returns the member query indices in increasing order.
func (b Bitmap) Ones() []int {
	out := make([]int, 0, b.Count())
	for wi, w := range b {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			out = append(out, wi*64+t)
			w &= w - 1
		}
	}
	return out
}

// Mode selects how Build picks each column's and bucket's representation.
type Mode uint8

const (
	// Auto measures density per column/bucket: sets with fewer than one
	// member per dense word (and logs big enough for it to matter) are
	// stored compressed, everything else dense. The zero value.
	Auto Mode = iota
	// ForceDense stores every column and bucket as a dense bitmap — the
	// pre-compression layout, kept reachable for A/B measurement.
	ForceDense
	// ForceCompressed stores every column and bucket compressed, regardless
	// of density — exercised by the differential tests so tiny instances
	// still cover the compressed paths.
	ForceCompressed
)

// Options configures Build.
type Options struct {
	// Mode picks the representation policy; the zero value is Auto.
	Mode Mode
}

// Auto-mode thresholds: a set is compressed when its members number at most
// nq/autoDensityDiv — fewer members than the dense bitmap has words, so the
// compressed peel (O(members)) beats the dense word loop (O(nq/64)) and an
// array container (2 bytes/member) costs at most a quarter of the dense
// words. Logs under autoMinQueries are never compressed: their dense bitmaps
// are a handful of words and per-container overhead would dominate.
const (
	autoMinQueries = 1024
	autoDensityDiv = 64
)

// col is one stored query set — an attribute column or a size bucket — in
// exactly one of the two representations. set is the polymorphic read-only
// view of the same storage, boxed once at Build: converting a dense bitmap
// to bitvec.Bits on every use would allocate in the scoring loops.
type col struct {
	dense Bitmap             // nil iff compressed
	comp  *bitvec.Compressed // nil iff dense
	set   bitvec.Bits
}

func denseCol(nq int, b Bitmap) col { return col{dense: b, set: bitvec.FromWords(nq, b)} }

func compCol(c *bitvec.Compressed) col { return col{comp: c, set: c} }

// Index is an immutable inverted index over one query log.
type Index struct {
	log     *dataset.QueryLog
	fp      uint64
	version uint64
	nq      int
	width   int
	words   int
	mode    Mode

	// cols[a] holds the queries containing attribute a; empty attributes
	// share one zero set. allDense short-circuits scoring onto the plain
	// word loops when no column chose compression.
	cols     []col
	allDense bool
	// freq[a] = |cols[a]|, the per-attribute member counts driving
	// representation choices and early exits.
	freq []int
	// weights mirrors the log's per-query multiplicities (shared storage,
	// nil for an unweighted log). When non-nil the Satisfied* family returns
	// weighted totals: the peel loops still track member counts for their
	// early exits, and the surviving set's weights are summed at the end.
	weights []int
	// wfreq[a] is the weighted attribute frequency (== freq when weights is
	// nil) — what the weighted greedy heuristics need.
	wfreq       []int
	totalWeight int
	// buckets[k] holds the queries with at most k attributes, k ∈ [0,
	// maxSize]. buckets[maxSize] is the full log.
	buckets []col
	maxSize int
}

// Build indexes the log with Auto representation selection. Cost is one pass
// over the log's set bits; the resulting index is safe for concurrent use
// and must be discarded when the log is mutated (see Stale).
func Build(log *dataset.QueryLog) (*Index, error) { return BuildWith(log, Options{}) }

// BuildWith is Build under explicit Options. Scoring results are identical
// in every mode; only the memory/speed trade changes.
func BuildWith(log *dataset.QueryLog, opts Options) (*Index, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	nq, width := log.Size(), log.Width()
	words := (nq + 63) / 64
	ix := &Index{
		log:     log,
		fp:      log.Fingerprint(),
		version: log.Version(),
		nq:      nq,
		width:   width,
		words:   words,
		mode:    opts.Mode,
		cols:    make([]col, width),
		freq:    make([]int, width),
	}

	ix.weights = log.Weights
	ix.maxSize = 0
	sizes := make([]int, nq)
	for qi, q := range log.Queries {
		sizes[qi] = q.Count()
		if sizes[qi] > ix.maxSize {
			ix.maxSize = sizes[qi]
		}
		for _, a := range q.Ones() {
			ix.freq[a]++
		}
	}
	if ix.weights == nil {
		ix.wfreq = ix.freq
		ix.totalWeight = nq
	} else {
		ix.wfreq = make([]int, width)
		for qi, q := range log.Queries {
			w := ix.weights[qi]
			ix.totalWeight += w
			for _, a := range q.Ones() {
				ix.wfreq[a] += w
			}
		}
	}

	// Pick each column's representation up front, then lay out one slab for
	// the dense columns; empty attributes all share a single zero set so
	// callers never nil-check.
	compress := func(members int) bool {
		switch opts.Mode {
		case ForceDense:
			return false
		case ForceCompressed:
			return true
		default:
			return nq >= autoMinQueries && members*autoDensityDiv <= nq
		}
	}
	nDense := 0
	for a := 0; a < width; a++ {
		if ix.freq[a] > 0 && !compress(ix.freq[a]) {
			nDense++
		}
	}
	slabCols, next := nDense, 0
	var zero col
	if opts.Mode == ForceCompressed {
		zero = compCol(bitvec.NewCompressed(nq))
	} else {
		slabCols++
		next = words
	}
	slab := make([]uint64, slabCols*words)
	if zero.comp == nil {
		zero = denseCol(nq, Bitmap(slab[:words]))
	}
	ix.allDense = true
	for a := 0; a < width; a++ {
		switch {
		case ix.freq[a] == 0:
			ix.cols[a] = zero
			if zero.comp != nil {
				ix.allDense = false
			}
		case compress(ix.freq[a]):
			ix.cols[a] = compCol(bitvec.NewCompressed(nq))
			ix.allDense = false
		default:
			ix.cols[a] = denseCol(nq, Bitmap(slab[next:next+words]))
			next += words
		}
	}
	for qi, q := range log.Queries {
		w, bit := qi/64, uint64(1)<<(qi%64)
		for _, a := range q.Ones() {
			if c := ix.cols[a]; c.comp != nil {
				c.comp.Set(qi)
			} else {
				c.dense[w] |= bit
			}
		}
	}
	for a := 0; a < width; a++ {
		if c := ix.cols[a]; c.comp != nil && c.comp != zero.comp {
			c.comp.Optimize()
		}
	}

	// Cumulative size buckets: buckets[k] = queries with ≤ k attributes,
	// snapshotted per k from one running dense accumulator into whichever
	// representation the bucket's own density earns.
	ix.buckets = make([]col, ix.maxSize+1)
	cum := make([]uint64, words)
	count := 0
	for k := 0; k <= ix.maxSize; k++ {
		for qi, sz := range sizes {
			if sz == k {
				cum[qi/64] |= 1 << (qi % 64)
				count++
			}
		}
		if compress(count) {
			ix.buckets[k] = compCol(bitvec.CompressedFrom(bitvec.FromWords(nq, cum)))
			ix.allDense = false
		} else {
			b := make(Bitmap, words)
			copy(b, cum)
			ix.buckets[k] = denseCol(nq, b)
		}
	}
	return ix, nil
}

// Log returns the indexed query log.
func (ix *Index) Log() *dataset.QueryLog { return ix.log }

// Fingerprint returns the content hash of the log at build time.
func (ix *Index) Fingerprint() uint64 { return ix.fp }

// Stale reports whether the log has visibly changed since Build: its
// version counter moved or its length differs. In-place bit flips that
// bypass QueryLog.Touch are not detectable.
func (ix *Index) Stale() bool {
	return ix.log.Version() != ix.version || ix.log.Size() != ix.nq
}

// NumQueries returns the indexed log size S.
func (ix *Index) NumQueries() int { return ix.nq }

// Width returns the attribute count M.
func (ix *Index) Width() int { return ix.width }

// Words returns the bitmap length in 64-bit words, for sizing scratch space.
func (ix *Index) Words() int { return ix.words }

// Mode returns the representation policy the index was built with.
func (ix *Index) Mode() Mode { return ix.mode }

// AttrFrequencies returns per-attribute query weight totals — plain counts
// for an unweighted log, always equal to the log's own AttrFrequencies.
// Read-only: the slice is the index's own storage.
func (ix *Index) AttrFrequencies() []int { return ix.wfreq }

// TotalWeight returns the indexed log's total query weight (== NumQueries
// for an unweighted log) — the upper bound of Satisfied.
func (ix *Index) TotalWeight() int { return ix.totalWeight }

// Weighted reports whether the indexed log carries non-nil weights.
func (ix *Index) Weighted() bool { return ix.weights != nil }

// weightDense sums the weights of the members of a dense working set,
// short-circuiting to the member count for unweighted logs. members < 0
// means the count is unknown and must be recomputed.
func (ix *Index) weightDense(set Bitmap, members int) int {
	if ix.weights == nil {
		if members >= 0 {
			return members
		}
		return set.Count()
	}
	t := 0
	for wi, w := range set {
		for w != 0 {
			t += ix.weights[wi*64+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return t
}

// weightComp is weightDense for a compressed working set.
func (ix *Index) weightComp(set *bitvec.Compressed, members int) int {
	if ix.weights == nil {
		return members
	}
	t := 0
	set.Range(func(i int) bool {
		t += ix.weights[i]
		return true
	})
	return t
}

func (ix *Index) checkAttr(a int) {
	if a < 0 || a >= ix.width {
		panic(fmt.Sprintf("index: attribute %d out of range [0,%d)", a, ix.width))
	}
}

// QueriesWith returns the dense bitmap of queries containing attribute a.
// For a dense column the bitmap is the index's own storage (read-only); a
// compressed column is materialized into a fresh bitmap on every call —
// prefer Column in code that can work through the Bits interface.
func (ix *Index) QueriesWith(a int) Bitmap {
	ix.checkAttr(a)
	c := ix.cols[a]
	if c.comp != nil {
		return Bitmap(c.comp.Dense().Words())
	}
	return c.dense
}

// Column returns the queries containing attribute a as a representation-
// polymorphic set. Read-only: the value shares the index's storage.
func (ix *Index) Column(a int) bitvec.Bits {
	ix.checkAttr(a)
	return ix.cols[a].set
}

// ColumnCompressed reports whether attribute a's column is stored in the
// compressed representation.
func (ix *Index) ColumnCompressed(a int) bool {
	ix.checkAttr(a)
	return ix.cols[a].comp != nil
}

// MaxQuerySize returns the largest number of attributes any query demands.
func (ix *Index) MaxQuerySize() int { return ix.maxSize }

// bucket returns the size-≤-k bucket, clamping k; ok is false on an empty
// log (no buckets exist).
func (ix *Index) bucket(k int) (col, bool) {
	if len(ix.buckets) == 0 {
		return col{}, false
	}
	if k < 0 {
		k = 0
	}
	if k > ix.maxSize {
		k = ix.maxSize
	}
	return ix.buckets[k], true
}

// SizeAtMost returns the dense bitmap of queries demanding at most k
// attributes (k clamped to [0, MaxQuerySize]). For a dense bucket the bitmap
// is shared read-only storage; a compressed bucket is materialized fresh.
func (ix *Index) SizeAtMost(k int) Bitmap {
	b, ok := ix.bucket(k)
	if !ok {
		return Bitmap{}
	}
	if b.comp != nil {
		return Bitmap(b.comp.Dense().Words())
	}
	return b.dense
}

// Scratch is the reusable working set of the scoring methods: a dense word
// buffer and a compressed set, so whichever representation a candidate set
// arrives in can be copied and peeled without touching the allocator, plus
// the attribute list Containing collects. One Scratch serves one goroutine;
// create per-worker copies for parallel scoring (core's normalized.shard
// does).
type Scratch struct {
	words Bitmap
	comp  *bitvec.Compressed
	attrs []int
}

// NewScratch returns a Scratch sized for this index.
func (ix *Index) NewScratch() *Scratch {
	return &Scratch{
		words: make(Bitmap, ix.words),
		comp:  bitvec.NewCompressed(ix.nq),
	}
}

// Candidates returns a fresh dense bitmap of the queries contained in t —
// exactly the queries any compression of t could satisfy. It starts from
// the size bucket ≤ popcount(t) and peels off the column of every attribute
// t lacks, stopping early once the set is empty. CandidateSet is the
// representation-preserving form.
func (ix *Index) Candidates(t bitvec.Vector) Bitmap {
	switch s := ix.CandidateSet(t).(type) {
	case *bitvec.Compressed:
		return Bitmap(s.Dense().Words())
	case bitvec.Vector:
		return Bitmap(s.Words())
	default:
		panic("index: unreachable candidate representation")
	}
}

// CandidateSet is Candidates without forcing a representation: the result is
// a fresh mutable set in the same representation as the size bucket it was
// peeled from (a bitvec.Vector view over a fresh dense bitmap, or a
// *bitvec.Compressed), so wide sparse schemas keep their candidates
// compressed end to end.
func (ix *Index) CandidateSet(t bitvec.Vector) bitvec.Bits {
	if t.Width() != ix.width {
		panic(fmt.Sprintf("index: tuple width %d, index width %d", t.Width(), ix.width))
	}
	b, ok := ix.bucket(t.Count())
	if !ok || (b.comp == nil && b.dense == nil) {
		return bitvec.New(ix.nq)
	}
	if b.comp != nil {
		out := bitvec.NewCompressed(ix.nq)
		out.CopyFrom(b.comp)
		rem := out.Count()
		for a := 0; a < ix.width && rem > 0; a++ {
			if ix.freq[a] == 0 || t.Get(a) {
				continue
			}
			rem -= out.AndNotWith(ix.cols[a].set)
		}
		return out
	}
	out := b.dense.Clone()
	if ix.allDense {
		ix.peel(out, t)
	} else {
		view := bitvec.FromWords(ix.nq, out)
		rem := out.Count()
		for a := 0; a < ix.width && rem > 0; a++ {
			if ix.freq[a] == 0 || t.Get(a) {
				continue
			}
			rem -= ix.dropOne(view, a)
		}
	}
	return bitvec.FromWords(ix.nq, out)
}

// Satisfied counts the queries retrieving v: |{q : q ⊆ v}|. Equivalent to
// log.Satisfied(v) but word-parallel.
func (ix *Index) Satisfied(v bitvec.Vector) int {
	if v.Width() != ix.width {
		panic(fmt.Sprintf("index: vector width %d, index width %d", v.Width(), ix.width))
	}
	b, ok := ix.bucket(v.Count())
	if !ok {
		return 0
	}
	return ix.SatisfiedWithinBits(b.set, v, nil)
}

// SatisfiedWithin counts the queries of cand that are contained in v,
// assuming every query of cand already satisfies q ⊆ t for some tuple t ⊇ v
// — then only the attributes of t\v need peeling, but peeling every a ∉ v is
// always correct and SatisfiedWithin does exactly that, skipping attributes
// that appear in no candidate query for free via the early exit.
//
// scratch, when non-nil, must have length Words() and is used as the working
// set to avoid allocation in solver hot loops; cand itself is never written.
func (ix *Index) SatisfiedWithin(cand Bitmap, v bitvec.Vector, scratch Bitmap) int {
	if scratch == nil {
		scratch = make(Bitmap, ix.words)
	}
	copy(scratch, cand)
	if ix.allDense {
		if !ix.peel(scratch, v) {
			return 0
		}
		return ix.weightDense(scratch, -1)
	}
	view := bitvec.FromWords(ix.nq, scratch)
	rem := scratch.Count()
	for a := 0; a < ix.width && rem > 0; a++ {
		if ix.freq[a] == 0 || v.Get(a) {
			continue
		}
		rem -= ix.dropOne(view, a)
	}
	return ix.weightDense(scratch, rem)
}

// SatisfiedWithinBits is SatisfiedWithin over any candidate representation,
// peeling in the representation cand arrived in. sc may be nil (a fresh
// scratch is allocated); cand is never written.
func (ix *Index) SatisfiedWithinBits(cand bitvec.Bits, v bitvec.Vector, sc *Scratch) int {
	if sc == nil {
		sc = ix.NewScratch()
	}
	c, ok := cand.(*bitvec.Compressed)
	if !ok {
		return ix.SatisfiedWithin(ix.denseOf(cand, sc), v, sc.words)
	}
	sc.comp.CopyFrom(c)
	rem := sc.comp.Count()
	for a := 0; a < ix.width && rem > 0; a++ {
		if ix.freq[a] == 0 || v.Get(a) {
			continue
		}
		rem -= sc.comp.AndNotWith(ix.cols[a].set)
	}
	return ix.weightComp(sc.comp, rem)
}

// SatisfiedDropping counts the queries of cand containing none of the
// attributes in drop — the fastest scoring form when the caller already
// knows the dropped attribute set (t \ v). scratch as in SatisfiedWithin.
func (ix *Index) SatisfiedDropping(cand Bitmap, drop []int, scratch Bitmap) int {
	if scratch == nil {
		scratch = make(Bitmap, ix.words)
	}
	copy(scratch, cand)
	if ix.allDense {
		for _, a := range drop {
			if ix.freq[a] == 0 {
				continue
			}
			col := ix.cols[a].dense
			live := false
			for w := range scratch {
				scratch[w] &^= col[w]
				live = live || scratch[w] != 0
			}
			if !live {
				return 0
			}
		}
		return ix.weightDense(scratch, -1)
	}
	view := bitvec.FromWords(ix.nq, scratch)
	rem := scratch.Count()
	for _, a := range drop {
		if rem == 0 {
			return 0
		}
		if ix.freq[a] == 0 {
			continue
		}
		rem -= ix.dropOne(view, a)
	}
	return ix.weightDense(scratch, rem)
}

// SatisfiedDroppingBits is SatisfiedDropping over any candidate
// representation — the solvers' hot loop. A compressed candidate set is
// copied into the compressed scratch (allocation-free once warm) and peeled
// member-wise: each drop costs O(|working set|) membership tests against
// the column, independent of the log size. sc may be nil; cand is never
// written.
func (ix *Index) SatisfiedDroppingBits(cand bitvec.Bits, drop []int, sc *Scratch) int {
	if sc == nil {
		sc = ix.NewScratch()
	}
	c, ok := cand.(*bitvec.Compressed)
	if !ok {
		return ix.SatisfiedDropping(ix.denseOf(cand, sc), drop, sc.words)
	}
	sc.comp.CopyFrom(c)
	rem := sc.comp.Count()
	for _, a := range drop {
		if rem == 0 {
			return 0
		}
		if ix.freq[a] == 0 {
			continue
		}
		rem -= sc.comp.AndNotWith(ix.cols[a].set)
	}
	return ix.weightComp(sc.comp, rem)
}

// Containing returns the total weight of the indexed queries that contain
// every attribute of v — the plain count |{q : q ⊇ v}| for an unweighted
// log. It is the co-occurrence score of the cumulative greedy and the
// "superset" count a shard answers. The empty set is in every query and one
// attribute's count is its weighted frequency; otherwise the queries
// containing v are the AND of v's columns, taken from the sparsest column
// on and stopped as soon as the working set is empty. sc may be nil (a
// fresh scratch is allocated); a warm scratch makes the call allocation-
// free.
func (ix *Index) Containing(v bitvec.Vector, sc *Scratch) int {
	if v.Width() != ix.width {
		panic(fmt.Sprintf("index: vector width %d, index width %d", v.Width(), ix.width))
	}
	if sc == nil {
		sc = ix.NewScratch()
	}
	// Collect v's attributes, keeping the sparsest at the front.
	attrs := sc.attrs[:0]
	for wi, w := range v.Words() {
		for ; w != 0; w &= w - 1 {
			a := wi*64 + bits.TrailingZeros64(w)
			attrs = append(attrs, a)
			if last := len(attrs) - 1; ix.freq[a] < ix.freq[attrs[0]] {
				attrs[0], attrs[last] = a, attrs[0]
			}
		}
	}
	sc.attrs = attrs
	switch {
	case len(attrs) == 0:
		return ix.totalWeight
	case len(attrs) == 1 || ix.freq[attrs[0]] == 0:
		return ix.wfreq[attrs[0]]
	}
	if c := ix.cols[attrs[0]]; c.comp != nil {
		sc.comp.CopyFrom(c.comp)
		rem := ix.freq[attrs[0]]
		for _, a := range attrs[1:] {
			if rem = sc.comp.AndWith(ix.cols[a].set); rem == 0 {
				return 0
			}
		}
		return ix.weightComp(sc.comp, rem)
	}
	set := sc.words
	copy(set, ix.cols[attrs[0]].dense)
	for _, a := range attrs[1:] {
		c := ix.cols[a]
		if c.comp != nil {
			// Build compresses only the sparsest columns, so a column busier
			// than a dense one is dense too; this keeps any layout exact.
			if bitvec.FromWords(ix.nq, set).AndWith(c.comp) == 0 {
				return 0
			}
			continue
		}
		live := uint64(0)
		for w := range set {
			set[w] &= c.dense[w]
			live |= set[w]
		}
		if live == 0 {
			return 0
		}
	}
	return ix.weightDense(set, -1)
}

// denseOf views cand's words, materializing through the scratch buffer only
// for foreign Bits implementations.
func (ix *Index) denseOf(cand bitvec.Bits, sc *Scratch) Bitmap {
	if v, ok := cand.(bitvec.Vector); ok {
		return Bitmap(v.Words())
	}
	for i := range sc.words {
		sc.words[i] = 0
	}
	cand.Range(func(i int) bool {
		sc.words[i/64] |= 1 << (i % 64)
		return true
	})
	// The scratch doubles as the working set afterwards: hand back a copy.
	return sc.words.Clone()
}

// dropOne removes column a from a dense working set, returning how many
// queries were removed. Dense columns run the word loop; compressed columns
// touch only their members.
func (ix *Index) dropOne(set bitvec.Vector, a int) int {
	c := ix.cols[a]
	if c.comp != nil {
		return set.AndNotWith(c.comp)
	}
	words := set.Words()
	removed := 0
	for w := range words {
		old := words[w]
		words[w] = old &^ c.dense[w]
		removed += bits.OnesCount64(old &^ words[w])
	}
	return removed
}

// peel removes from set every query containing an attribute outside v and
// reports whether the set is still non-empty. All-dense fast path.
func (ix *Index) peel(set Bitmap, v bitvec.Vector) bool {
	if len(set) == 0 {
		return false
	}
	for a := 0; a < ix.width; a++ {
		if ix.freq[a] == 0 || v.Get(a) {
			continue
		}
		col := ix.cols[a].dense
		live := false
		for w := range set {
			set[w] &^= col[w]
			live = live || set[w] != 0
		}
		if !live {
			return false
		}
	}
	return true
}

// MemStats reports how the index stored its sets and an estimate of the
// bytes the column and bucket payloads occupy — the quantities the
// wide-schema bench (BENCH_bitmap.json) compares across modes.
type MemStats struct {
	DenseColumns      int // attribute columns stored as dense bitmaps (incl. the shared zero set once)
	CompressedColumns int
	DenseBuckets      int // size buckets stored as dense bitmaps
	CompressedBuckets int
	Bytes             int // total payload estimate across columns and buckets
}

// Mem returns the index's representation statistics.
func (ix *Index) Mem() MemStats {
	var st MemStats
	seen := map[*bitvec.Compressed]bool{}
	seenDense := map[*uint64]bool{}
	account := func(c col, denseN, compN *int) {
		if c.comp != nil {
			*compN++
			if !seen[c.comp] {
				seen[c.comp] = true
				st.Bytes += c.comp.SizeBytes()
			}
			return
		}
		*denseN++
		var key *uint64
		if len(c.dense) > 0 {
			key = &c.dense[0]
		}
		if !seenDense[key] {
			seenDense[key] = true
			st.Bytes += 8 * len(c.dense)
		}
	}
	for a := 0; a < ix.width; a++ {
		account(ix.cols[a], &st.DenseColumns, &st.CompressedColumns)
	}
	for k := range ix.buckets {
		account(ix.buckets[k], &st.DenseBuckets, &st.CompressedBuckets)
	}
	return st
}
