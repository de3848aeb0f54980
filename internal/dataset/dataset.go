// Package dataset defines the data model of the library: Boolean product
// tables and conjunctive query logs over a named attribute schema, together
// with the categorical and numeric data models of §II.B of the paper and
// their reductions to the Boolean model (§V).
//
// A Table holds the existing products D ("the competition"); a QueryLog holds
// the workload Q of past buyer queries. Both are collections of bit vectors
// over the same Schema, and the paper's SOC-CB-D variant exploits exactly this
// symmetry: a database is solved by treating its rows as queries.
package dataset

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"standout/internal/bitvec"
)

// Schema names the Boolean attributes a_0..a_{M-1} of a table or query log.
type Schema struct {
	attrs []string
	index map[string]int
}

// NewSchema builds a schema from attribute names. Names must be non-empty and
// unique.
func NewSchema(attrs []string) (*Schema, error) {
	s := &Schema{attrs: append([]string(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("dataset: empty attribute name at position %d", i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("dataset: duplicate attribute name %q", a)
		}
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and generators.
func MustSchema(attrs []string) *Schema {
	s, err := NewSchema(attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// GenericSchema returns a schema with M attributes named a0..a{M-1}.
func GenericSchema(m int) *Schema {
	attrs := make([]string, m)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	return MustSchema(attrs)
}

// Width returns the number of attributes M.
func (s *Schema) Width() int { return len(s.attrs) }

// Attrs returns the attribute names in index order. The caller must not
// modify the returned slice.
func (s *Schema) Attrs() []string { return s.attrs }

// Name returns the name of attribute i.
func (s *Schema) Name(i int) string { return s.attrs[i] }

// Index returns the index of the named attribute, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// VectorOf builds a bit vector with the named attributes set.
// It returns an error if any name is not in the schema.
func (s *Schema) VectorOf(names ...string) (bitvec.Vector, error) {
	v := bitvec.New(s.Width())
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return bitvec.Vector{}, fmt.Errorf("dataset: unknown attribute %q", n)
		}
		v.Set(i)
	}
	return v, nil
}

// Names returns the attribute names selected by the set bits of v.
func (s *Schema) Names(v bitvec.Vector) []string {
	ones := v.Ones()
	out := make([]string, len(ones))
	for i, b := range ones {
		out[i] = s.attrs[b]
	}
	return out
}

// Table is a collection of Boolean tuples over a shared schema.
type Table struct {
	Schema *Schema
	Rows   []bitvec.Vector
	IDs    []string // optional row identifiers; nil or len(Rows)
}

// NewTable returns an empty table over the schema.
func NewTable(s *Schema) *Table { return &Table{Schema: s} }

// Append adds a row, validating its width. id may be empty.
func (t *Table) Append(row bitvec.Vector, id string) error {
	if row.Width() != t.Schema.Width() {
		return fmt.Errorf("dataset: row width %d does not match schema width %d",
			row.Width(), t.Schema.Width())
	}
	if id != "" && t.IDs == nil && len(t.Rows) > 0 {
		return fmt.Errorf("dataset: cannot add identified row to unidentified table")
	}
	t.Rows = append(t.Rows, row)
	if id != "" || t.IDs != nil {
		t.IDs = append(t.IDs, id)
	}
	return nil
}

// Size returns the number of rows N.
func (t *Table) Size() int { return len(t.Rows) }

// Width returns the number of attributes M.
func (t *Table) Width() int { return t.Schema.Width() }

// Validate checks internal consistency (row widths, ID count).
func (t *Table) Validate() error {
	if t.Schema == nil {
		return fmt.Errorf("dataset: table has nil schema")
	}
	for i, r := range t.Rows {
		if r.Width() != t.Schema.Width() {
			return fmt.Errorf("dataset: row %d has width %d, schema width %d",
				i, r.Width(), t.Schema.Width())
		}
	}
	if t.IDs != nil && len(t.IDs) != len(t.Rows) {
		return fmt.Errorf("dataset: %d IDs for %d rows", len(t.IDs), len(t.Rows))
	}
	return nil
}

// AttrFrequencies returns, for each attribute, the number of rows in which it
// is set. This is the statistic driving the ConsumeAttr greedy heuristic.
func (t *Table) AttrFrequencies() []int {
	freq := make([]int, t.Width())
	for _, r := range t.Rows {
		for _, i := range r.Ones() {
			freq[i]++
		}
	}
	return freq
}

// Density returns the fraction of 1-bits in the table, in [0,1].
func (t *Table) Density() float64 {
	if t.Size() == 0 || t.Width() == 0 {
		return 0
	}
	ones := 0
	for _, r := range t.Rows {
		ones += r.Count()
	}
	return float64(ones) / float64(t.Size()*t.Width())
}

// Complement returns a new table whose rows are the bitwise complements of
// t's rows — the ~Q construction of §IV.C.
func (t *Table) Complement() *Table {
	out := &Table{Schema: t.Schema, Rows: make([]bitvec.Vector, len(t.Rows))}
	if t.IDs != nil {
		out.IDs = append([]string(nil), t.IDs...)
	}
	for i, r := range t.Rows {
		out.Rows[i] = r.Not()
	}
	return out
}

// Clone returns a deep copy of the table (schema shared — schemas are
// immutable after construction).
func (t *Table) Clone() *Table {
	out := &Table{Schema: t.Schema, Rows: make([]bitvec.Vector, len(t.Rows))}
	for i, r := range t.Rows {
		out.Rows[i] = r.Clone()
	}
	if t.IDs != nil {
		out.IDs = append([]string(nil), t.IDs...)
	}
	return out
}

// DominatedBy returns the indices of rows dominated by v: rows r with r ⊆ v.
// For SOC-CB-D this is the visibility of a compressed tuple v against D.
func (t *Table) DominatedBy(v bitvec.Vector) []int {
	var out []int
	for i, r := range t.Rows {
		if r.SubsetOf(v) {
			out = append(out, i)
		}
	}
	return out
}

// QueryLog is a workload of conjunctive Boolean queries over a schema.
// Each query is the set of attributes it requires (retrieval semantics:
// tuple t is returned for q iff q ⊆ t).
//
// A query may carry an integer weight ≥ 1, the multiplicity with which it
// counts toward Satisfied and AttrFrequencies. A nil Weights slice means
// every query weighs 1 — the classic unweighted log — and the two forms are
// semantically identical wherever weights are all 1. Weighted logs are what
// compaction produces (internal/compact): folding duplicate queries into one
// weighted entry leaves every solver's objective value unchanged, because a
// satisfied count is just a weighted sum with unit weights.
//
// Generations. Extend makes a new generation of a log for appending while
// readers keep the old one, and the generations of a log share one
// append-only store: each generation's Queries and Weights are a prefix of
// the store's arrays, sliced to cap == len so that a direct append to either
// reallocates instead of overwriting a sibling's entries. Only a generation
// as long as its store (the newest) appends in place; an Append to any other
// generation first copies its entries into a new store, once. A log that
// Extend did not make is a root: it owns its slices, appends to them like
// any slice and belongs to no store, so its first Extend copies it. The root
// and every store copied from it form one lineage, and ExtendsFrom proves
// from their identities, lengths and versions that two generations agree on
// a prefix, without keeping older generations reachable.
type QueryLog struct {
	Schema  *Schema
	Queries []bitvec.Vector
	// Weights holds per-query multiplicities, parallel to Queries; nil means
	// all 1. Entries must be ≥ 1 (Validate enforces this): zero or negative
	// weights would break solver invariants that rely on weighted counts
	// being strictly monotone in set containment.
	Weights []int

	// version counts this log's own Appends, plus its Touches while it has
	// no lineage; Version adds the lineage's Touches. Callers that mutate
	// Queries directly (appending to the slice, or flipping bits of a query
	// in place) must call Touch afterwards so index and cache layers built
	// over the log can notice the change. It is atomic so that Touch — the
	// announcement that a mutation happened — can race with concurrent
	// Version reads from staleness checks without tripping the race
	// detector; mutating Queries itself still requires external
	// synchronization.
	//
	// Append adds 1 per appended query while Touch adds 2, so a derived
	// structure that recorded (version, size) can certify an append-only
	// history: the log grew purely by appends iff the version advanced by
	// exactly the size delta. Any Touch breaks the equality and forces the
	// full-rebuild path.
	version atomic.Uint64
	// lin is set when Extend makes a generation, and on a root's first
	// Extend.
	lin atomic.Pointer[lineage]
	// st is the store this generation is a prefix of; nil for a root.
	st *store
}

// lineage is shared by a root log and every store copied from it. Any
// generation's Touch may have edited a prefix that others share or copied,
// so touches moves the Version of every member and voids every store's
// provenance.
type lineage struct {
	touches atomic.Uint64
	stores  atomic.Uint64 // numbers the stores from 1; the root is 0
}

// store is one append-only pair of backing arrays. Its first n entries are
// committed: appends never rewrite them, and only an edit that a Touch
// announces changes them.
type store struct {
	lin     *lineage
	id      uint64
	queries []bitvec.Vector // full capacity
	weights []int           // nil while every entry weighs 1, else parallel to queries
	// from lists the stores (or root) whose prefixes this store's first
	// entries copy, transitively. It is evidence only while lin.touches
	// still equals epoch, its value before the copy.
	from  []span
	epoch uint64

	mu sync.Mutex
	n  int // committed entries
}

// span names the first n entries of a store, or of the root (id 0), of a
// lineage.
type span struct {
	id uint64
	n  int
}

// NewQueryLog returns an empty query log over the schema.
func NewQueryLog(s *Schema) *QueryLog { return &QueryLog{Schema: s} }

// Append adds a query, validating its width.
func (q *QueryLog) Append(query bitvec.Vector) error {
	return q.AppendWeighted(query, 1)
}

// AppendWeighted adds a query with multiplicity weight ≥ 1. Appending a
// non-unit weight to a log with nil Weights materializes the slice with unit
// entries for the existing queries. A generation that is not its store's
// newest, or whose store is full, first moves to a new store holding a copy
// of its entries.
func (q *QueryLog) AppendWeighted(query bitvec.Vector, weight int) error {
	if query.Width() != q.Schema.Width() {
		return fmt.Errorf("dataset: query width %d does not match schema width %d",
			query.Width(), q.Schema.Width())
	}
	if weight < 1 {
		return fmt.Errorf("dataset: query weight %d is not ≥ 1", weight)
	}
	switch {
	case q.st == nil:
		if q.Weights == nil && weight != 1 {
			q.Weights = make([]int, len(q.Queries), len(q.Queries)+1)
			for i := range q.Weights {
				q.Weights[i] = 1
			}
		}
		q.Queries = append(q.Queries, query)
		if q.Weights != nil {
			q.Weights = append(q.Weights, weight)
		}
	case !q.appendInPlace(query, weight):
		q.rehome(q, weight != 1)
		q.appendInPlace(query, weight) // q is the new store's only generation
	}
	q.version.Add(1)
	return nil
}

// appendInPlace appends one entry into q's store when q is its newest
// generation and the store has room (and weights, for a non-unit weight).
// The store lock decides between generations of equal length.
func (q *QueryLog) appendInPlace(query bitvec.Vector, weight int) bool {
	s, n := q.st, len(q.Queries)
	if !q.attached() {
		return false
	}
	s.mu.Lock()
	ok := s.n == n && n < len(s.queries) && (weight == 1 || s.weights != nil)
	if ok {
		s.queries[n] = query
		if s.weights != nil {
			s.weights[n] = weight
		}
		s.n++
	}
	s.mu.Unlock()
	if ok {
		q.view(s, n+1)
	}
	return ok
}

// rehome makes q the only generation of a new store in src's lineage that
// holds a copy of src's entries and has room for more, with weights when src
// has them or weighted is set.
func (q *QueryLog) rehome(src *QueryLog, weighted bool) {
	lin := src.lineage()
	n := len(src.Queries)
	// Read before the copy, so a Touch during it voids the spans.
	s := &store{lin: lin, id: lin.stores.Add(1), epoch: lin.touches.Load(), n: n}
	s.queries = slices.Grow(src.Queries[:n:n], 1)
	s.queries = s.queries[:cap(s.queries)]
	switch {
	case src.Weights != nil:
		s.weights = make([]int, len(s.queries))
		copy(s.weights, src.Weights)
	case weighted:
		s.weights = make([]int, len(s.queries))
		for i := range n {
			s.weights[i] = 1
		}
	}
	switch {
	case src.st == nil:
		s.from = []span{{0, n}}
	case src.attached():
		if src.st.epoch == s.epoch {
			for _, sp := range src.st.from {
				s.from = append(s.from, span{sp.id, min(sp.n, n)})
			}
		}
		s.from = append(s.from, span{src.st.id, n})
	default:
		// A detached generation's entries are no store's: they prove nothing.
	}
	q.lin.Store(lin)
	q.view(s, n)
}

// view points q at the first n entries of store s.
func (q *QueryLog) view(s *store, n int) {
	q.st = s
	q.Queries = s.queries[:n:n]
	q.Weights = nil
	if s.weights != nil {
		q.Weights = s.weights[:n:n]
	}
}

// attached reports whether q's slices are still a prefix of its store's
// arrays; assigning to Queries or Weights detaches a generation.
func (q *QueryLog) attached() bool {
	s, n := q.st, len(q.Queries)
	if s == nil || cap(q.Queries) != n || (n > 0 && &q.Queries[0] != &s.queries[0]) {
		return false
	}
	if s.weights == nil {
		return q.Weights == nil
	}
	return len(q.Weights) == n && cap(q.Weights) == n && (n == 0 || &q.Weights[0] == &s.weights[0])
}

// lineage returns q's lineage, starting one with q as its root if q has
// none yet.
func (q *QueryLog) lineage() *lineage {
	if lin := q.lin.Load(); lin != nil {
		return lin
	}
	q.lin.CompareAndSwap(nil, new(lineage))
	return q.lin.Load()
}

// provenance is what spans proves about a log's entries: that they equal
// own, and every span of from. ok is false for a detached generation, whose
// entries prove nothing.
type provenance struct {
	own  span
	from []span
	ok   bool
}

// spans returns the prefixes that q's entries provably equal at lineage
// epoch epoch: its own store's (or, for a root, its own), and, while no
// Touch has happened since the store was filled, those the store copied.
// It builds no list: from is the store's own.
func (q *QueryLog) spans(epoch uint64) provenance {
	n := len(q.Queries)
	switch {
	case q.st == nil:
		return provenance{own: span{0, n}, ok: true}
	case !q.attached():
		return provenance{}
	case q.st.epoch != epoch:
		return provenance{own: span{q.st.id, n}, ok: true}
	}
	return provenance{own: span{q.st.id, n}, from: q.st.from, ok: true}
}

// covers reports whether p holds a span of a's store or root that, like a,
// reaches at least size entries.
func (p provenance) covers(a span, size int) bool {
	if !p.ok || a.n < size {
		return false
	}
	if p.own.id == a.id && p.own.n >= size {
		return true
	}
	for _, b := range p.from {
		if b.id == a.id && b.n >= size {
			return true
		}
	}
	return false
}

// Weight returns the multiplicity of query i (1 when Weights is nil).
func (q *QueryLog) Weight(i int) int {
	if q.Weights == nil {
		return 1
	}
	return q.Weights[i]
}

// TotalWeight returns the sum of all query weights — the weighted log size,
// equal to Size() for an unweighted log. It is the upper bound of Satisfied.
func (q *QueryLog) TotalWeight() int {
	if q.Weights == nil {
		return len(q.Queries)
	}
	t := 0
	for _, w := range q.Weights {
		t += w
	}
	return t
}

// Version is a cheap mutation counter: it changes whenever the log is
// modified through Append or Touch. Derived structures (indexes, caches)
// record it at build time and compare to detect staleness without rehashing
// the whole log. Direct mutation of Queries bypasses it — call Touch. An
// Append to one generation leaves every other generation's Version alone; a
// Touch of any generation moves all of its lineage's.
func (q *QueryLog) Version() uint64 {
	v := q.version.Load()
	if lin := q.lin.Load(); lin != nil {
		v += 2 * lin.touches.Load()
	}
	return v
}

// Touch records an out-of-band mutation of Queries, invalidating any index
// or cache built over the previous contents. Touch and Version are safe to
// call concurrently with each other and with readers of the log; the
// mutation of Queries they announce is not. Touch advances the version by 2
// where Append advances it by 1, so append-only growth is certifiable from
// (version, size) deltas alone.
//
// Generations share their stores, so an edit through one may show in
// others, and a copy taken before it may not. Touch therefore makes every
// generation of the lineage stale, the root included, and voids every
// certificate ExtendsFrom could give over any of them.
func (q *QueryLog) Touch() {
	if lin := q.lin.Load(); lin != nil {
		lin.touches.Add(1)
		return
	}
	q.version.Add(2)
}

// Extend returns a new generation of q for appending: a log over the same
// schema with q's entries and Version, in q's lineage, so derived
// structures can later prove with ExtendsFrom that its prefix is exactly
// q's current contents. This is the copy-on-write append pattern of the
// serving layer: in-flight readers keep the old generation, the new
// generation takes the appends, and the index layer builds a delta over
// only the suffix. Extend of a generation copies nothing: the new one
// shares q's store, and its first Append copies only if another generation
// has appended to the store since, or the store is full. Extend of a root,
// or of a generation whose slices were reassigned, copies q into a new
// store.
func (q *QueryLog) Extend() *QueryLog {
	out := NewQueryLog(q.Schema)
	out.version.Store(q.version.Load())
	if q.attached() {
		out.lin.Store(q.st.lin)
		out.view(q.st, len(q.Queries))
	} else {
		out.rehome(q, false)
	}
	return out
}

// ExtendsFrom reports whether q's first `size` queries are provably the
// exact contents the ancestor log had at the given (version, size) snapshot
// — the precondition for building a delta index over q[size:] on top of an
// index built over that snapshot. The proof needs three facts: the
// ancestor's version advanced by exactly its growth since the snapshot (no
// Touch reached its lineage, and it grew only by Append); q and the ancestor
// share a lineage; and both have their first `size` entries from one store
// or root — by being a prefix of it, or by a copy taken since the last Touch
// of the lineage. So it holds whenever q descends from the snapshot through
// Extend and Append alone, across copies into new stores, and no generation
// of the lineage was touched since.
func (q *QueryLog) ExtendsFrom(ancestor *QueryLog, version uint64, size int) bool {
	if ancestor == nil || size < 0 || size > len(q.Queries) {
		return false
	}
	grown := len(ancestor.Queries) - size
	if grown < 0 || ancestor.Version()-version != uint64(grown) {
		return false
	}
	if q == ancestor {
		return true
	}
	lin := q.lin.Load()
	if lin == nil || ancestor.lin.Load() != lin {
		return false
	}
	epoch := lin.touches.Load()
	mine, theirs := q.spans(epoch), ancestor.spans(epoch)
	if !mine.ok {
		return false
	}
	if theirs.covers(mine.own, size) {
		return true
	}
	for _, a := range mine.from {
		if theirs.covers(a, size) {
			return true
		}
	}
	return false
}

// fingerprintSeed starts every log fingerprint; FoldFingerprint continues
// one and FinishFingerprint finalizes it.
const fingerprintSeed = 0x9e3779b97f4a7c15

// Fingerprint returns a 64-bit content hash of the log: every query's bits
// and non-unit weights in order, finalized with the log's length and schema
// width. Two logs with identical query and weight sequences have identical
// fingerprints regardless of how they were built; an explicit all-ones
// Weights slice fingerprints identically to nil. It is computed from scratch
// on every call (O(S·M/64)) and is safe for concurrent use on an unmutated
// log; cache layers use it to key per-log state.
//
// The hash folds queries left to right with the length mixed in at the end,
// so an incremental consumer (the segmented index) can keep the running
// pre-finalized state and extend it in O(appended) on append:
//
//	h := log.FoldFingerprint(FingerprintSeed(), 0, n)   // retained
//	... k queries appended ...
//	h = log.FoldFingerprint(h, n, n+k)
//	fp := FinishFingerprint(h, n+k, log.Width())        // == log.Fingerprint()
func (q *QueryLog) Fingerprint() uint64 {
	return FinishFingerprint(q.FoldFingerprint(FingerprintSeed(), 0, len(q.Queries)), len(q.Queries), q.Width())
}

// FingerprintSeed returns the initial rolling-fingerprint state.
func FingerprintSeed() uint64 { return fingerprintSeed }

// FoldFingerprint folds queries [lo, hi) — and their weights, when not 1 —
// into the rolling fingerprint state h.
func (q *QueryLog) FoldFingerprint(h uint64, lo, hi int) uint64 {
	for i := lo; i < hi; i++ {
		h = q.Queries[i].Hash64(h)
		if q.Weights != nil && q.Weights[i] != 1 {
			h = Mix64(h ^ uint64(q.Weights[i])*0x9e3779b97f4a7c15)
		}
	}
	return h
}

// FinishFingerprint finalizes a rolling fingerprint state for a log of
// `size` queries over `width` attributes.
func FinishFingerprint(h uint64, size, width int) uint64 {
	return Mix64(h ^ uint64(size)*0x9e3779b97f4a7c15 ^ uint64(width)*0xff51afd7ed558ccd)
}

// Mix64 is the SplitMix64 finalizer: a cheap full-avalanche bijection.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Size returns the number of queries S.
func (q *QueryLog) Size() int { return len(q.Queries) }

// Width returns the number of attributes M.
func (q *QueryLog) Width() int { return q.Schema.Width() }

// Validate checks internal consistency.
func (q *QueryLog) Validate() error {
	if q.Schema == nil {
		return fmt.Errorf("dataset: query log has nil schema")
	}
	for i, r := range q.Queries {
		if r.Width() != q.Schema.Width() {
			return fmt.Errorf("dataset: query %d has width %d, schema width %d",
				i, r.Width(), q.Schema.Width())
		}
	}
	if q.Weights != nil {
		if len(q.Weights) != len(q.Queries) {
			return fmt.Errorf("dataset: %d weights for %d queries", len(q.Weights), len(q.Queries))
		}
		for i, w := range q.Weights {
			if w < 1 {
				return fmt.Errorf("dataset: query %d has weight %d, must be ≥ 1", i, w)
			}
		}
	}
	return nil
}

// Satisfied returns the total weight of the queries retrieving the (possibly
// compressed) tuple v — |{q ∈ Q : q ⊆ v}| for an unweighted log, the
// objective of SOC-CB-QL. Over a compacted log (duplicates folded into
// weights) this equals the raw log's count exactly.
func (q *QueryLog) Satisfied(v bitvec.Vector) int {
	n := 0
	if q.Weights == nil {
		for _, query := range q.Queries {
			if query.SubsetOf(v) {
				n++
			}
		}
		return n
	}
	for i, query := range q.Queries {
		if query.SubsetOf(v) {
			n += q.Weights[i]
		}
	}
	return n
}

// SatisfiedBy returns the indices of the queries that retrieve v.
func (q *QueryLog) SatisfiedBy(v bitvec.Vector) []int {
	var out []int
	for i, query := range q.Queries {
		if query.SubsetOf(v) {
			out = append(out, i)
		}
	}
	return out
}

// AttrFrequencies returns per-attribute occurrence weight across queries —
// plain counts for an unweighted log. Compaction preserves these totals, so
// frequency-driven greedy heuristics are invariant under it.
func (q *QueryLog) AttrFrequencies() []int {
	freq := make([]int, q.Width())
	for qi, r := range q.Queries {
		w := q.Weight(qi)
		for wi, word := range r.Words() {
			for ; word != 0; word &= word - 1 {
				freq[wi*64+bits.TrailingZeros64(word)] += w
			}
		}
	}
	return freq
}

// AsTable reinterprets the query log as a table (used by SOC-CB-D and by the
// itemset miners, which operate on generic Boolean tables).
func (q *QueryLog) AsTable() *Table {
	return &Table{Schema: q.Schema, Rows: q.Queries}
}

// LogFromTable reinterprets a database as a query log — the reduction that
// solves SOC-CB-D with any SOC-CB-QL algorithm (§V).
func LogFromTable(t *Table) *QueryLog {
	return &QueryLog{Schema: t.Schema, Queries: t.Rows}
}

// SizeHistogram returns a map from query size (number of attributes
// specified) to the count of such queries. Useful for workload diagnostics.
func (q *QueryLog) SizeHistogram() map[int]int {
	h := make(map[int]int)
	for _, r := range q.Queries {
		h[r.Count()]++
	}
	return h
}

// Restrict returns a new query log containing only the queries all of whose
// attributes appear in the tuple t, carrying their weights. Queries that t
// itself cannot satisfy can never be satisfied by a compression of t, so
// solvers prune them up front.
func (q *QueryLog) Restrict(t bitvec.Vector) *QueryLog {
	out := NewQueryLog(q.Schema)
	for qi, query := range q.Queries {
		if query.SubsetOf(t) {
			out.Queries = append(out.Queries, query)
			if q.Weights != nil {
				out.Weights = append(out.Weights, q.Weights[qi])
			}
		}
	}
	return out
}

// Dedup returns a new query log with duplicate queries collapsed — incoming
// weights folded into the survivor's multiplicity, first occurrence order
// preserved — and a parallel slice of the multiplicities. Solvers that score
// candidate compressions repeatedly use the weighted form to cut work on
// skewed workloads; internal/compact wraps this into the full compaction
// pipeline with statistics.
func (q *QueryLog) Dedup() (*QueryLog, []int) {
	seen := make(map[string]int)
	out := NewQueryLog(q.Schema)
	var weights []int
	var key []byte
	for qi, query := range q.Queries {
		key = query.AppendKey(key[:0])
		if idx, ok := seen[string(key)]; ok {
			weights[idx] += q.Weight(qi)
			continue
		}
		seen[string(key)] = len(out.Queries)
		out.Queries = append(out.Queries, query)
		weights = append(weights, q.Weight(qi))
	}
	return out, weights
}

// Window returns a view log over queries [lo, hi), sharing q's backing
// storage (full slice expressions prevent appends from aliasing). The view
// is a private snapshot: its version counter starts at zero and nothing else
// holds it, so indexes built over it never go stale. The segmented index
// uses windows as its per-segment build inputs.
func (q *QueryLog) Window(lo, hi int) *QueryLog {
	out := NewQueryLog(q.Schema)
	out.Queries = q.Queries[lo:hi:hi]
	if q.Weights != nil {
		out.Weights = q.Weights[lo:hi:hi]
	}
	return out
}

// TopAttrs returns the indices of the k most frequent attributes in the log,
// ties broken by lower index. If k exceeds the width it is clamped.
func (q *QueryLog) TopAttrs(k int) []int {
	freq := q.AttrFrequencies()
	idx := make([]int, len(freq))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return freq[idx[a]] > freq[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	if k < 0 {
		k = 0
	}
	return idx[:k]
}
