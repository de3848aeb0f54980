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
// AND v's columns. Two- and three-attribute superset counts — cumulative
// greedy's first two co-occurrence rounds — are instead one load each from
// weighted pair- and triple-support tables, which Build fills in the walk it
// already makes, on every index whose queries hold at least as many
// attribute pairs (triples) as the table has entries, up to 2¹⁶ entries a
// table (width 256 for pairs, 74 for triples). ContainingBatch scores
// a later round, picked ∪ {j} for every remaining j, with one AND of the
// picked columns shared by the round and one fused AND-and-weigh pass per
// candidate over its own column (DESIGN.md §9).
//
// An Index is immutable after Build and safe for unbounded concurrent use.
// It keeps no reference to the log it was built from: Segmented owns the
// snapshot (log, version, size, fingerprint) a set of segments indexes.
package index

import (
	"fmt"
	"math"
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
	// attribute pairs that fill it (Σ_q C(|q|, 2)) and than maxTableEntries,
	// so a small delta segment or a wide schema builds none and ANDs columns
	// instead.
	pairs []int
	// triples[tripleRank(a, b, c)], a < b < c, is the total weight of the
	// queries holding all three: every three-attribute Containing call is one
	// load. Packed by combinatorial rank into C(width, 3) entries, kept by the
	// pair table's rule one level up: only when they are no more than the
	// attribute triples that fill them (Σ_q C(|q|, 3)) and than
	// maxTableEntries.
	triples []int
}

// maxTableEntries caps each support table at 2¹⁶ entries (512 KB), which
// admits the pair table up to width 256 and the triple table up to width 74.
// The fill rule alone would let one query holding every attribute of a wide
// schema (three, for the pair table) make a build allocate a table cubic
// (quadratic) in the width: 1.3 TB of triples at width 10,000.
const maxTableEntries = 1 << 16

// choose3 returns C(n, 3), saturating at math.MaxInt, so the triple table's
// size rule never overflows on a wide schema.
func choose3(n int) int {
	switch {
	case n < 3:
		return 0
	case n > 2_000_000: // C(2·10⁶, 3) ≈ 1.3·10¹⁸ still fits an int
		return math.MaxInt
	}
	return n * (n - 1) / 2 * (n - 2) / 3
}

// tripleRank is the packed position of the triple a < b < c: the triples of
// smaller largest attribute come first, C(c, 3) of them.
func tripleRank(a, b, c int) int { return choose3(c) + b*(b-1)/2 + a }

// Build indexes the log with Auto representation selection. Cost is two
// passes over the log's set bits, plus one add per attribute pair (triple)
// of each query when the index keeps a pair (triple) table; the resulting
// index is safe for concurrent use and must be discarded when the log is
// mutated.
func Build(log *dataset.QueryLog) (*Index, error) { return BuildWith(log, Options{}) }

// BuildWith is Build under explicit Options. Scoring results are identical
// in every mode; only the memory/speed trade changes.
//
// The build walks each query's set bits in place twice and allocates
// nothing per query: the first walk accumulates the frequencies, the
// weighted frequencies and the pair and triple tables, the second sets the
// column bits.
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
	// pair and triple tables are worth their width² and C(width, 3) entries.
	sizes := make([]int, nq)
	pairsInLog, triplesInLog := 0, 0
	for qi, q := range log.Queries {
		k := q.Count()
		sizes[qi] = k
		ix.maxSize = max(ix.maxSize, k)
		pairsInLog += k * (k - 1) / 2
		triplesInLog += min(choose3(k), maxTableEntries) // cannot overflow
	}
	if n := width * width; n <= min(pairsInLog, maxTableEntries) {
		ix.pairs = make([]int, n)
	}
	if n := choose3(width); n <= min(triplesInLog, maxTableEntries) {
		ix.triples = make([]int, n)
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
				}
				if ix.triples != nil && len(seen) >= 2 {
					// The triples c < b < a: those whose largest attribute is a.
					plane := choose3(a)
					for j, b := range seen[1:] {
						row := ix.triples[plane+b*(b-1)/2:]
						for _, c := range seen[:j+1] {
							row[c] += w
						}
					}
				}
				seen = append(seen, a)
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
// the attribute list Containing collects and ContainingBatch's buffers. One
// Scratch serves one goroutine; create per-worker copies for parallel
// scoring (core's PreparedLog keeps a free list of them).
type Scratch struct {
	words []uint64
	comp  *bitvec.Compressed
	attrs []int

	// ContainingBatch's, allocated by its first call: the batch's common
	// attributes and the AND of their columns.
	common []uint64
	shared []uint64
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
// attribute's count is its weighted frequency; a two- or three-attribute v
// is one load when the index keeps a pair or triple table. Otherwise the
// queries containing v are the AND of v's columns, taken from the sparsest
// column on and stopped as soon as the working set is empty. sc may be nil
// (a fresh scratch is allocated); a warm scratch makes the call
// allocation-free.
func (ix *Index) Containing(v bitvec.Vector, sc *Scratch) int {
	ix.checkWidth(v)
	if sc == nil {
		sc = ix.NewScratch()
	}
	sc.attrs = ix.collect(v.Words(), sc.attrs)
	return ix.containing(sc)
}

// containing is Containing over the attributes collected in sc.attrs.
func (ix *Index) containing(sc *Scratch) int {
	attrs := sc.attrs
	switch {
	case len(attrs) == 0:
		return ix.totalWeight
	case len(attrs) == 1 || ix.freq[attrs[0]] == 0:
		return ix.wfreq[attrs[0]]
	case len(attrs) == 2 && ix.pairs != nil:
		a, b := min(attrs[0], attrs[1]), max(attrs[0], attrs[1])
		return ix.pairs[a*ix.width+b]
	case len(attrs) == 3 && ix.triples != nil:
		a, b, c := attrs[0], attrs[1], attrs[2]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		return ix.triples[tripleRank(a, b, c)]
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
	if !ix.andDense(set, attrs[1:]) {
		return 0
	}
	return ix.weightDense(set, -1)
}

// collect appends the attributes of the vector words to attrs[:0], keeping
// the sparsest at the front, and returns the list.
func (ix *Index) collect(words []uint64, attrs []int) []int {
	attrs = attrs[:0]
	for wi, w := range words {
		for ; w != 0; w &= w - 1 {
			a := wi*64 + bits.TrailingZeros64(w)
			attrs = append(attrs, a)
			if last := len(attrs) - 1; ix.freq[a] < ix.freq[attrs[0]] {
				attrs[0], attrs[last] = a, attrs[0]
			}
		}
	}
	return attrs
}

// andDense ANDs the columns of attrs into the dense working set, stopping
// once it is empty, and reports whether any query is left.
func (ix *Index) andDense(set []uint64, attrs []int) bool {
	for _, a := range attrs {
		c := ix.cols[a]
		if c.comp != nil {
			// Build compresses only the sparsest columns, so a column busier
			// than a dense one is dense too; this keeps any layout exact.
			if bitvec.FromWords(ix.nq, set).AndWith(c.comp) == 0 {
				return false
			}
			continue
		}
		live := uint64(0)
		for w := range set {
			set[w] &= c.dense[w]
			live |= set[w]
		}
		if live == 0 {
			return false
		}
	}
	return true
}

// ContainingBatch adds to out[i] the total weight of the indexed queries
// that contain every attribute of cands[i] — what Containing returns for
// each — sharing the work of a cumulative greedy round, picked ∪ {j} for
// every remaining j. The candidates' common attributes (the AND of their
// words) are ANDed once into a shared working set; a candidate of more than
// three attributes that adds one dense column to them is then one pass over
// the shared set and that column, ANDing and weighing word by word without
// copying. Every other candidate goes to Containing: one of at most three
// attributes is answered from the tables, the frequencies or the total
// weight, and one that adds several columns or would AND a compressed one
// is counted exactly in every Mode. out must be at least as long as cands.
// sc as in Containing.
func (ix *Index) ContainingBatch(cands []bitvec.Vector, out []int, sc *Scratch) {
	if sc == nil {
		sc = ix.NewScratch()
	}
	var shared []uint64 // the queries holding every common attribute
	state := sharedUnset
	for ci, v := range cands {
		ix.checkWidth(v)
		if sc.attrs = ix.collect(v.Words(), sc.attrs); len(sc.attrs) <= 3 {
			out[ci] += ix.containing(sc)
			continue
		}
		if state == sharedUnset {
			shared, state = ix.andShared(cands, sc)
		}
		if state == sharedEmpty {
			continue
		}
		if a := oneExtra(v.Words(), sc.common); state == sharedReady && a >= 0 {
			switch {
			case ix.freq[a] == 0:
				continue
			case ix.cols[a].comp == nil:
				out[ci] += ix.weighAnd(shared, ix.cols[a].dense)
				continue
			}
		}
		out[ci] += ix.Containing(v, sc)
	}
}

// The shared working set of a ContainingBatch call: not built yet, built,
// empty, or unusable because the candidates share no attribute or a common
// column is compressed.
const (
	sharedUnset = iota
	sharedReady
	sharedEmpty
	sharedUnusable
)

// andShared collects the attributes common to every candidate into
// sc.common, ANDs their columns into sc.shared and returns the shared
// working set and its state. One common attribute's dense column is used in
// place.
func (ix *Index) andShared(cands []bitvec.Vector, sc *Scratch) ([]uint64, int) {
	if sc.common == nil {
		sc.common = make([]uint64, (ix.width+63)/64)
		sc.shared = make([]uint64, len(sc.words))
	}
	copy(sc.common, cands[0].Words())
	for _, v := range cands[1:] {
		ix.checkWidth(v)
		for w, x := range v.Words() {
			sc.common[w] &= x
		}
	}
	attrs := ix.collect(sc.common, sc.attrs)
	sc.attrs = attrs
	switch {
	case len(attrs) == 0:
		return nil, sharedUnusable
	case ix.freq[attrs[0]] == 0:
		return nil, sharedEmpty
	}
	for _, a := range attrs {
		if ix.cols[a].comp != nil {
			return nil, sharedUnusable
		}
	}
	if len(attrs) == 1 {
		return ix.cols[attrs[0]].dense, sharedReady
	}
	copy(sc.shared, ix.cols[attrs[0]].dense)
	if !ix.andDense(sc.shared, attrs[1:]) {
		return nil, sharedEmpty
	}
	return sc.shared, sharedReady
}

// oneExtra returns the one attribute of the vector words outside common, or
// -1 when there is none or more than one.
func oneExtra(words, common []uint64) int {
	extra := -1
	for wi, w := range words {
		if w &^= common[wi]; w == 0 {
			continue
		}
		if extra >= 0 || w&(w-1) != 0 {
			return -1
		}
		extra = wi*64 + bits.TrailingZeros64(w)
	}
	return extra
}

// weighAnd returns the total weight of the queries in both dense sets,
// ANDing and weighing them word by word in one pass: a popcount per word
// for an unweighted log, the members' weights otherwise.
func (ix *Index) weighAnd(x, y []uint64) int {
	y = y[:len(x)]
	t := 0
	if ix.weights == nil {
		for w, a := range x {
			t += bits.OnesCount64(a & y[w])
		}
		return t
	}
	for w, a := range x {
		for a &= y[w]; a != 0; a &= a - 1 {
			t += ix.weights[w*64+bits.TrailingZeros64(a)]
		}
	}
	return t
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
// bytes the column, bucket and support-table payloads occupy — the
// quantities the wide-schema bench (BENCH_bitmap.json) compares across
// modes.
type MemStats struct {
	DenseColumns      int // attribute columns stored as dense bitmaps (incl. the shared zero set once)
	CompressedColumns int
	DenseBuckets      int // size buckets stored as dense bitmaps
	CompressedBuckets int
	PairBytes         int // the pair table's payload; 0 when the index keeps none
	TripleBytes       int // the triple table's payload; 0 when the index keeps none
	Bytes             int // total payload estimate across columns, buckets and both tables
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
	st.TripleBytes = 8 * len(ix.triples)
	st.Bytes += st.PairBytes + st.TripleBytes
	return st
}
