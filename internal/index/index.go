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
// Superset counts (Containing: the queries holding every attribute of v)
// AND v's columns. A two-attribute superset count — cumulative greedy's
// first co-occurrence round — is instead one load from a weighted
// pair-support table, which Build fills in the walk it already makes, on
// every index whose queries hold at least width² attribute pairs (DESIGN.md
// §9).
//
// An Index is immutable after Build and safe for unbounded concurrent use.
// It keeps no reference to the log it was built from: Segmented owns the
// snapshot (log, version, size, fingerprint) a set of segments indexes.
package index

import (
	"fmt"
	"math/bits"
	"slices"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

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
	dense []uint64           // nil iff compressed
	comp  *bitvec.Compressed // nil iff dense
	set   bitvec.Bits
}

func denseCol(nq int, b []uint64) col { return col{dense: b, set: bitvec.FromWords(nq, b)} }

func compCol(c *bitvec.Compressed) col { return col{comp: c, set: c} }

// Index is an immutable inverted index over one query log.
type Index struct {
	nq    int
	width int

	// cols[a] holds the queries containing attribute a; empty attributes
	// share one zero set. allDense short-circuits scoring onto the plain
	// word loops when no column chose compression.
	cols     []col
	allDense bool
	// freq[a] = |cols[a]|, the per-attribute member counts driving
	// representation choices and early exits.
	freq []int
	// weights mirrors the log's per-query multiplicities (shared storage,
	// nil for an unweighted log). When non-nil the counting kernels return
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
	// pairs[a*width+b], a < b, is the total weight of the queries holding
	// both a and b: every two-attribute Containing call is one load. Build
	// keeps the table only when its width² entries are no more than the
	// attribute pairs that fill it (Σ_q C(|q|, 2)), so a small delta
	// segment or a wide sparse schema builds none and ANDs columns instead.
	pairs []int
}

// Build indexes the log with Auto representation selection. Cost is two
// passes over the log's set bits, plus one add per attribute pair of each
// query when the index keeps a pair table; the resulting index is safe for
// concurrent use and must be discarded when the log is mutated.
func Build(log *dataset.QueryLog) (*Index, error) { return BuildWith(log, Options{}) }

// BuildWith is Build under explicit Options. Scoring results are identical
// in every mode; only the memory/speed trade changes.
//
// The build walks each query's set bits in place twice and allocates
// nothing per query: the first walk accumulates the frequencies, the
// weighted frequencies and the pair table, the second sets the column bits.
func BuildWith(log *dataset.QueryLog, opts Options) (*Index, error) {
	if err := log.Validate(); err != nil {
		return nil, err
	}
	nq, width := log.Size(), log.Width()
	words := (nq + 63) / 64
	ix := &Index{
		nq:          nq,
		width:       width,
		cols:        make([]col, width),
		freq:        make([]int, width),
		weights:     log.Weights,
		totalWeight: nq,
	}
	ix.wfreq = ix.freq
	if ix.weights != nil {
		ix.wfreq, ix.totalWeight = make([]int, width), 0
	}

	// Query sizes are popcounts; they fix the size buckets and whether the
	// pair table is worth its width² entries.
	sizes := make([]int, nq)
	pairsInLog := 0
	for qi, q := range log.Queries {
		k := q.Count()
		sizes[qi] = k
		ix.maxSize = max(ix.maxSize, k)
		pairsInLog += k * (k - 1) / 2
	}
	if width*width <= pairsInLog {
		ix.pairs = make([]int, width*width)
	}
	seen := make([]int, 0, ix.maxSize) // the current query's attributes so far
	for qi, q := range log.Queries {
		w := 1
		if ix.weights != nil {
			w = ix.weights[qi]
			ix.totalWeight += w
		}
		seen = seen[:0]
		for wi, word := range q.Words() {
			for ; word != 0; word &= word - 1 {
				a := wi*64 + bits.TrailingZeros64(word)
				ix.freq[a]++
				if ix.weights != nil {
					ix.wfreq[a] += w
				}
				if ix.pairs != nil {
					for _, b := range seen { // b < a: the upper triangle
						ix.pairs[b*width+a] += w
					}
					seen = append(seen, a)
				}
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
		zero = denseCol(nq, slab[:words])
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
			ix.cols[a] = denseCol(nq, slab[next:next+words])
			next += words
		}
	}
	for qi, q := range log.Queries {
		w, bit := qi/64, uint64(1)<<(qi%64)
		for wi, word := range q.Words() {
			for ; word != 0; word &= word - 1 {
				if c := &ix.cols[wi*64+bits.TrailingZeros64(word)]; c.comp != nil {
					c.comp.Set(qi)
				} else {
					c.dense[w] |= bit
				}
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
			ix.buckets[k] = denseCol(nq, slices.Clone(cum))
		}
	}
	return ix, nil
}

// NumQueries returns the indexed log size S.
func (ix *Index) NumQueries() int { return ix.nq }

// Width returns the attribute count M.
func (ix *Index) Width() int { return ix.width }

// AttrFrequencies returns per-attribute query weight totals — plain counts
// for an unweighted log, always equal to the log's own AttrFrequencies.
// Read-only: the slice is the index's own storage.
func (ix *Index) AttrFrequencies() []int { return ix.wfreq }

// TotalWeight returns the indexed log's total query weight (== NumQueries
// for an unweighted log) — the upper bound of Satisfied.
func (ix *Index) TotalWeight() int { return ix.totalWeight }

// weightDense sums the weights of the members of a dense working set,
// short-circuiting to the member count for unweighted logs and empty sets.
// members < 0 means the count is unknown and must be recomputed.
func (ix *Index) weightDense(set []uint64, members int) int {
	if ix.weights == nil || members == 0 {
		if members >= 0 {
			return members
		}
		return bitvec.FromWords(ix.nq, set).Count()
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

// Scratch is the reusable working set of the counting kernels: a dense word
// buffer and a compressed set, so whichever representation a working set
// arrives in can be copied and peeled without touching the allocator, plus
// the attribute list Containing collects. One Scratch serves one goroutine;
// create per-worker copies for parallel scoring (core's PreparedLog keeps a
// free list of them).
type Scratch struct {
	words []uint64
	comp  *bitvec.Compressed
	attrs []int
}

// NewScratch returns a Scratch sized for this index.
func (ix *Index) NewScratch() *Scratch {
	return &Scratch{
		words: make([]uint64, (ix.nq+63)/64),
		comp:  bitvec.NewCompressed(ix.nq),
	}
}

// CandidateSet returns the queries contained in t — exactly the queries any
// compression of t could satisfy — as a fresh mutable set in the
// representation of the size bucket it is peeled from: a bitvec.Vector over
// fresh words, or a *bitvec.Compressed, so wide sparse schemas keep their
// candidates compressed end to end. It starts from the queries of at most
// |t| attributes and peels off the column of every attribute t lacks,
// stopping once the set is empty.
func (ix *Index) CandidateSet(t bitvec.Vector) bitvec.Bits {
	b := ix.bucket(t)
	if b.comp != nil {
		out := bitvec.NewCompressed(ix.nq)
		out.CopyFrom(b.comp)
		ix.peelComp(out, outside(t))
		return out
	}
	out := slices.Clone(b.dense)
	ix.peelDense(out, outside(t))
	return bitvec.FromWords(ix.nq, out)
}

// Satisfied returns the total weight of the indexed queries contained in v —
// |{q : q ⊆ v}| for an unweighted log, what log.Satisfied(v) counts by a
// scan. It peels the column of every attribute v lacks from the queries of
// at most |v| attributes, in the scratch. sc as in SatisfiedDropping.
func (ix *Index) Satisfied(v bitvec.Vector, sc *Scratch) int {
	return ix.count(ix.bucket(v).set, outside(v), sc)
}

// SatisfiedDropping returns the total weight of the queries of cand that
// hold none of the attributes in drop — the solvers' hot loop, where cand is
// the CandidateSet of a tuple t and drop is t \ v, so the result is the
// count of the compression v. cand must be a CandidateSet result (or any
// bitvec.Vector or *bitvec.Compressed over the indexed queries); it is
// never written. The peel runs in cand's representation: a compressed cand
// is copied into the scratch's compressed set and each drop costs
// O(|working set|) membership tests, independent of the log size. sc may be
// nil (a fresh scratch is allocated); a warm scratch makes the call
// allocation-free.
func (ix *Index) SatisfiedDropping(cand bitvec.Bits, drop []int, sc *Scratch) int {
	return ix.count(cand, &dropped{list: drop}, sc)
}

// Containing returns the total weight of the indexed queries that contain
// every attribute of v — the plain count |{q : q ⊇ v}| for an unweighted
// log. It is the co-occurrence score of the cumulative greedy and the
// "superset" count a shard answers. The empty set is in every query and one
// attribute's count is its weighted frequency; otherwise the queries
// containing v are the AND of v's columns, taken from the sparsest column
// on and stopped as soon as the working set is empty — unless v has two
// attributes and the index keeps a pair table, which answers with one load.
// sc may be nil (a fresh scratch is allocated); a warm scratch makes the
// call allocation-free.
func (ix *Index) Containing(v bitvec.Vector, sc *Scratch) int {
	ix.checkWidth(v)
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
	case len(attrs) == 2 && ix.pairs != nil:
		a, b := min(attrs[0], attrs[1]), max(attrs[0], attrs[1])
		return ix.pairs[a*ix.width+b]
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

func (ix *Index) checkWidth(v bitvec.Vector) {
	if v.Width() != ix.width {
		panic(fmt.Sprintf("index: vector width %d, index width %d", v.Width(), ix.width))
	}
}

// bucket returns the size bucket of the queries that can fit inside v: those
// of at most |v| attributes.
func (ix *Index) bucket(v bitvec.Vector) *col {
	ix.checkWidth(v)
	return &ix.buckets[min(v.Count(), ix.maxSize)]
}

// dropped names the attributes a peel removes from its working set: each
// attribute of list, or, built by outside, every attribute keep lacks.
type dropped struct {
	list    []int
	keep    bitvec.Vector
	outside bool
}

func outside(keep bitvec.Vector) *dropped { return &dropped{keep: keep, outside: true} }

// len returns how many positions at ranges over, given the index width.
func (d *dropped) len(width int) int {
	if d.outside {
		return width
	}
	return len(d.list)
}

// at returns the i-th attribute and whether it is dropped. Lazily, so a
// peel that empties its set early never looks at the remaining attributes.
func (d *dropped) at(i int) (int, bool) {
	if d.outside {
		return i, !d.keep.Get(i)
	}
	return d.list[i], true
}

// count copies start into the scratch, in start's representation, peels the
// dropped attributes and returns the weight of the queries left.
func (ix *Index) count(start bitvec.Bits, d *dropped, sc *Scratch) int {
	if sc == nil {
		sc = ix.NewScratch()
	}
	if c, ok := start.(*bitvec.Compressed); ok {
		sc.comp.CopyFrom(c)
		return ix.weightComp(sc.comp, ix.peelComp(sc.comp, d))
	}
	copy(sc.words, start.(bitvec.Vector).Words())
	return ix.weightDense(sc.words, ix.peelDense(sc.words, d))
}

// peelDense removes from a dense working set every query holding a dropped
// attribute, stopping once the set is empty, and returns how many members
// are left. An all-dense index runs the plain word loop, which tracks only
// whether the set is still non-empty, and returns -1 (not counted) unless it
// emptied the set; a mixed index counts, peeling a compressed column by its
// members and a dense one word by word.
func (ix *Index) peelDense(set []uint64, d *dropped) int {
	vec := bitvec.FromWords(ix.nq, set)
	rem := -1
	if !ix.allDense {
		rem = vec.Count()
	}
	for i, n := 0, d.len(ix.width); i < n && rem != 0; i++ {
		a, ok := d.at(i)
		if !ok || ix.freq[a] == 0 {
			continue
		}
		if !ix.allDense {
			rem -= vec.AndNotWith(ix.cols[a].set)
			continue
		}
		col, live := ix.cols[a].dense, uint64(0)
		for w := range set {
			set[w] &^= col[w]
			live |= set[w]
		}
		if live == 0 {
			return 0
		}
	}
	return rem
}

// peelComp is peelDense for a compressed working set: each column costs
// O(|working set|) membership tests, whatever its own representation.
func (ix *Index) peelComp(set *bitvec.Compressed, d *dropped) int {
	rem := set.Count()
	for i, n := 0, d.len(ix.width); i < n && rem > 0; i++ {
		if a, ok := d.at(i); ok && ix.freq[a] != 0 {
			rem -= set.AndNotWith(ix.cols[a].set)
		}
	}
	return rem
}

// MemStats reports how the index stored its sets and an estimate of the
// bytes the column, bucket and pair-table payloads occupy — the quantities
// the wide-schema bench (BENCH_bitmap.json) compares across modes.
type MemStats struct {
	DenseColumns      int // attribute columns stored as dense bitmaps (incl. the shared zero set once)
	CompressedColumns int
	DenseBuckets      int // size buckets stored as dense bitmaps
	CompressedBuckets int
	PairBytes         int // the pair table's payload; 0 when the index keeps none
	Bytes             int // total payload estimate across columns, buckets and the pair table
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
	st.PairBytes = 8 * len(ix.pairs)
	st.Bytes += st.PairBytes
	return st
}
