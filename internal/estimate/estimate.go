// Package estimate scores candidate compressions without touching the query
// log: a Model precomputes weighted frequent-itemset frequencies once, and
// Estimate answers "how many queries does this kept set satisfy?" with a
// certified [lo, hi] interval plus a point estimate, by solving a small
// linear program whose constraints are the stored frequencies.
//
// The construction follows Tatti's *Safe Projections of Binary Data Sets*
// (PAPERS.md): itemset frequencies are linear functionals of the underlying
// query distribution, so any boolean-query selectivity consistent with the
// stored frequencies lies between the min and max of an LP over that
// distribution. Here the query of interest is "does the log query avoid
// every dropped attribute?" — exactly the satisfied-count objective of
// SOC-CB-QL, since a conjunctive query is satisfied by the kept set iff it
// uses none of the dropped attributes.
//
// Soundness (DESIGN.md §16): the LP's feasible region contains the true
// distribution restricted to the tracked attributes, so the maximized
// (minimized) objective is ≥ (≤) the truth; attributes outside the tracked
// set widen the lower bound by at most the sum of their frequencies; and
// both LP bounds are intersected with exact union bounds that need no LP at
// all. The interval therefore always contains the exact count — the
// differential and fuzz harnesses in this package pin that on every
// generator family, including weighted and degenerate logs.
package estimate

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/itemsets"
	"standout/internal/lp"
	"standout/internal/obsv"
)

// DefaultMaxItemset is the largest itemset size mined by Build: frequencies
// of singletons, pairs and triples constrain the LP.
const DefaultMaxItemset = 3

// DefaultMaxAtomAttrs bounds the dropped attributes the LP models jointly
// (2^k atom variables); the rest contribute an exact additive slack. The
// dense tableau simplex underneath scales ~8× per added attribute on these
// highly degenerate programs, so 5 keeps one Estimate in the tens of
// microseconds — the speed the shed-of-last-resort rung exists for — while
// the pairwise Bonferroni bound covers the attributes the LP leaves out.
const DefaultMaxAtomAttrs = 5

// maxAtomAttrsCap is the hard ceiling on the atom set: 2^12 LP variables is
// already past the point of diminishing returns for a shed-of-last-resort.
const maxAtomAttrsCap = 12

// pairMatrixMaxWidth bounds the width up to which models keep a dense
// width×width pair-support matrix (O(width²) ints) so Estimate's Bonferroni
// pass is array reads; wider schemas fall back to map lookups.
const pairMatrixMaxWidth = 512

// Options tunes Build. The zero value of every field selects a default, so
// Options is comparable and the zero Options is the canonical configuration
// (core.PreparedLog memoizes models built with it).
type Options struct {
	// MaxItemset caps the mined itemset size; default DefaultMaxItemset.
	MaxItemset int
	// MinSupport is the mining threshold: itemsets at or above it are stored
	// exactly, and — because Apriori mining is complete up to MaxItemset —
	// absent itemsets are known to sit below it, which the LP encodes as an
	// upper bound. Default max(2, totalWeight/256). Singletons are always
	// stored exactly regardless of the threshold.
	MinSupport int
	// MaxAtomAttrs bounds the dropped attributes modeled jointly by the LP
	// (2^k variables); default DefaultMaxAtomAttrs, capped at 12.
	MaxAtomAttrs int
	// LP tunes the simplex solves; the zero value is the solver's default.
	LP lp.Options
}

func (o Options) withDefaults(total int) Options {
	if o.MaxItemset <= 0 {
		o.MaxItemset = DefaultMaxItemset
	}
	if o.MinSupport <= 0 {
		o.MinSupport = total / 256
		if o.MinSupport < 2 {
			o.MinSupport = 2
		}
	}
	if o.MaxAtomAttrs <= 0 {
		o.MaxAtomAttrs = DefaultMaxAtomAttrs
	}
	if o.MaxAtomAttrs > maxAtomAttrsCap {
		o.MaxAtomAttrs = maxAtomAttrsCap
	}
	return o
}

// ItemsetSupport pairs an itemset with its exact weighted support, for
// building a Model from externally gathered counts (NewModel) — the shard
// coordinator's path, where supports are summed across partitions.
type ItemsetSupport struct {
	Items   bitvec.Vector
	Support int
}

// Model is an immutable frequency summary of one query log generation:
// every attribute's exact weighted frequency, the supports of all frequent
// itemsets up to a size cap, and the mining threshold that certifies what
// the absent itemsets' supports can be. Safe for concurrent use.
type Model struct {
	width    int
	total    int
	nq       int     // queries summarized; 0 for NewModel
	opts     Options // the caller's options before defaults (Extend re-derives MinSupport)
	maxSize  int     // largest itemset size with complete knowledge
	minSup   int     // mining threshold; 0 = no completeness certificate
	maxAtoms int

	sing []int          // exact weighted frequency per attribute
	supp map[string]int // bitvec.Key → support, itemsets of size ≥ 2
	pair []int          // width×width flattened pair supports, -1 unknown; nil on wide schemas
}

// initPairs allocates the dense pair-support matrix (all entries unknown);
// addItemset fills it as pairs are stored, so Estimate's Bonferroni pass
// over O(dropped²) pairs is pure array reads.
func (m *Model) initPairs() {
	if m.width > pairMatrixMaxWidth {
		return
	}
	m.pair = make([]int, m.width*m.width)
	for i := range m.pair {
		m.pair[i] = -1
	}
}

// addItemset stores one itemset support (size ≥ 2) under key, items.Key(),
// mirroring pairs into the dense matrix.
func (m *Model) addItemset(key string, items bitvec.Vector, sup int) {
	m.supp[key] = sup
	if m.pair != nil && items.Count() == 2 {
		ones := items.Ones()
		m.pair[ones[0]*m.width+ones[1]] = sup
		m.pair[ones[1]*m.width+ones[0]] = sup
	}
}

// pairSupport resolves the exact support of the attribute pair {i, j}.
func (m *Model) pairSupport(i, j int) (int, bool) {
	if m.pair != nil {
		s := m.pair[i*m.width+j]
		return s, s >= 0
	}
	s, ok := m.supp[bitvec.FromIndices(m.width, i, j).Key()]
	return s, ok
}

// Build is BuildContext with a background context.
func Build(log *dataset.QueryLog, opts Options) (*Model, error) {
	return BuildContext(context.Background(), log, opts)
}

// BuildContext mines log's weighted itemset frequencies into a Model. The
// mining pass is the expensive step (one Apriori run capped at
// Options.MaxItemset); every later Estimate touches only the stored
// frequencies. The build itself polls ctx between levels only through the
// miner's own granularity — like the index build, it is one bounded pass.
func BuildContext(ctx context.Context, log *dataset.QueryLog, opts Options) (*Model, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimate: build: %w", err)
	}
	if err := log.Validate(); err != nil {
		return nil, fmt.Errorf("estimate: build: %w", err)
	}
	total := log.TotalWeight()
	raw := opts
	opts = opts.withDefaults(total)

	tr := obsv.FromContext(ctx)
	sp := tr.StartSpan("estimate.build")
	defer sp.End()

	miner := itemsets.NewMinerWeighted(log.AsTable(), log.Weights)
	m := &Model{
		width:    log.Width(),
		total:    total,
		nq:       log.Size(),
		opts:     raw,
		maxSize:  opts.MaxItemset,
		minSup:   opts.MinSupport,
		maxAtoms: opts.MaxAtomAttrs,
		sing:     make([]int, log.Width()),
		supp:     map[string]int{},
	}
	for j := range m.sing {
		m.sing[j] = miner.Support(bitvec.FromIndices(m.width, j))
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimate: build: %w", err)
	}
	m.initPairs()
	for _, ic := range miner.AprioriCapped(opts.MinSupport, opts.MaxItemset) {
		if ic.Items.Count() >= 2 {
			m.addItemset(ic.Items.Key(), ic.Items, ic.Support)
		}
	}
	tr.Count("estimate.builds", 1)
	tr.Count("estimate.itemsets", int64(len(m.supp)))
	return m, nil
}

// Extend derives the model Build would return on the log m summarizes
// followed by delta's queries, without re-mining the old queries. It is
// FUP-style incremental maintenance (Cheung et al., ICDE 1996) resting on
// m's mining certificate: every itemset m does not store had support at
// most minSup−1, so under the new threshold minSup' it can only qualify with
// a delta support of at least minSup'−minSup+1. Extend therefore
//
//   - adds delta's weights to the totals and singletons;
//   - adds each stored itemset's delta support and keeps it only if the sum
//     reaches minSup';
//   - mines delta alone (itemsets.Miner.AprioriCapped, which yields every
//     delta support the two steps need in one pass) for the absent itemsets
//     that clear that margin, skips those with a singleton below minSup',
//     and asks support for the rest in one call.
//
// support must return each candidate's exact weighted support on the
// extended log: the weight of its queries containing every candidate
// attribute. The result is reflect.DeepEqual to Build on the extended log
// under m's options. Extend refuses a model without a certificate
// (NewModel), a delta of another width, and an invalid delta.
func (m *Model) Extend(ctx context.Context, delta *dataset.QueryLog, support func(context.Context, []bitvec.Vector) ([]int, error)) (*Model, error) {
	if m.minSup <= 0 {
		return nil, errors.New("estimate: extend: model carries no mining certificate")
	}
	if err := delta.Validate(); err != nil {
		return nil, fmt.Errorf("estimate: extend: %w", err)
	}
	if delta.Width() != m.width {
		return nil, fmt.Errorf("estimate: extend: delta width %d, model width %d", delta.Width(), m.width)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("estimate: extend: %w", err)
	}
	tr := obsv.FromContext(ctx)
	sp := tr.StartSpan("estimate.extend")
	defer sp.End()

	total := m.total + delta.TotalWeight()
	out := &Model{
		width:    m.width,
		total:    total,
		nq:       m.nq + delta.Size(),
		opts:     m.opts,
		maxSize:  m.maxSize,
		minSup:   m.opts.withDefaults(total).MinSupport,
		maxAtoms: m.maxAtoms,
		sing:     slices.Clone(m.sing),
		supp:     maps.Clone(m.supp),
		pair:     slices.Clone(m.pair),
	}
	for j, f := range delta.AttrFrequencies() {
		out.sing[j] += f
	}

	// Apriori at threshold 1 reports every itemset delta touches with its
	// exact delta support; a stored itemset it does not report gained 0.
	need := out.minSup - m.minSup + 1
	var cands []bitvec.Vector
	miner := itemsets.NewMinerWeighted(delta.AsTable(), delta.Weights)
	for _, ic := range miner.AprioriCapped(1, m.maxSize) {
		if ic.Items.Count() < 2 {
			continue
		}
		key := ic.Items.Key()
		if s, ok := m.supp[key]; ok {
			out.addItemset(key, ic.Items, s+ic.Support)
		} else if ic.Support >= need && out.singletonsReach(ic.Items, out.minSup) {
			cands = append(cands, ic.Items)
		}
	}
	if out.minSup > m.minSup {
		out.dropBelow(out.minSup)
	}
	if len(cands) > 0 {
		sups, err := support(ctx, cands)
		if err != nil {
			return nil, fmt.Errorf("estimate: extend: %w", err)
		}
		if len(sups) != len(cands) {
			return nil, fmt.Errorf("estimate: extend: %d supports for %d candidates", len(sups), len(cands))
		}
		for i, c := range cands {
			if sups[i] >= out.minSup {
				out.addItemset(c.Key(), c, sups[i])
			}
		}
	}
	tr.Count("estimate.extends", 1)
	tr.Count("estimate.extend.probes", int64(len(cands)))
	tr.Count("estimate.itemsets", int64(len(out.supp)))
	return out, nil
}

// singletonsReach reports whether every attribute of items has frequency at
// least minSup — a necessary condition for items to be frequent.
func (m *Model) singletonsReach(items bitvec.Vector, minSup int) bool {
	ok := true
	items.Range(func(j int) bool {
		ok = m.sing[j] >= minSup
		return ok
	})
	return ok
}

// dropBelow removes the stored itemsets under minSup from the map and its
// pair mirror, which hold the same supports.
func (m *Model) dropBelow(minSup int) {
	for k, s := range m.supp {
		if s < minSup {
			delete(m.supp, k)
		}
	}
	for i, s := range m.pair {
		if s >= 0 && s < minSup {
			m.pair[i] = -1
		}
	}
}

// NewModel builds a Model from externally gathered exact supports: sing must
// hold every attribute's exact weighted frequency and known lists exact
// supports of larger itemsets (typically pairs among a few hot attributes).
// A model built this way carries no mining-completeness certificate, so
// itemsets absent from known are simply unconstrained — the interval is
// correspondingly looser but still sound. The shard coordinator uses this
// constructor with supports summed additively across partitions.
func NewModel(width, total int, sing []int, known []ItemsetSupport, opts Options) (*Model, error) {
	if width < 0 || total < 0 {
		return nil, fmt.Errorf("estimate: negative width %d or total %d", width, total)
	}
	if len(sing) != width {
		return nil, fmt.Errorf("estimate: %d singleton supports for width %d", len(sing), width)
	}
	m := &Model{
		width:    width,
		total:    total,
		opts:     opts,
		maxSize:  1,
		minSup:   0, // no completeness certificate
		maxAtoms: opts.withDefaults(total).MaxAtomAttrs,
		sing:     append([]int(nil), sing...),
		supp:     map[string]int{},
	}
	for j, s := range sing {
		if s < 0 || s > total {
			return nil, fmt.Errorf("estimate: singleton support sing[%d]=%d outside [0, %d]", j, s, total)
		}
	}
	m.initPairs()
	for _, is := range known {
		if is.Items.Width() != width {
			return nil, fmt.Errorf("estimate: itemset width %d, model width %d", is.Items.Width(), width)
		}
		size := is.Items.Count()
		if size < 2 {
			continue // singletons are already exact in sing
		}
		if is.Support < 0 || is.Support > total {
			return nil, fmt.Errorf("estimate: itemset support %d outside [0, %d]", is.Support, total)
		}
		m.addItemset(is.Items.Key(), is.Items, is.Support)
		if size > m.maxSize {
			m.maxSize = size
		}
	}
	return m, nil
}

// Width returns the schema width the model was built for.
func (m *Model) Width() int { return m.width }

// TotalWeight returns the log's total query weight at build time.
func (m *Model) TotalWeight() int { return m.total }

// NumQueries returns the number of log queries the model summarizes (0 for
// a NewModel).
func (m *Model) NumQueries() int { return m.nq }

// Itemsets returns the number of stored itemsets of size ≥ 2.
func (m *Model) Itemsets() int { return len(m.supp) }

// Singleton returns attribute j's exact weighted frequency.
func (m *Model) Singleton(j int) int { return m.sing[j] }

// Keep selects the compression the estimate solver scores: the budget most
// frequent attributes of tuple, ties to the lower index — exactly the
// ConsumeAttr selection rule (core.topByFreq) evaluated on the model's
// stored frequencies, so no log scan is needed and the shard coordinator's
// additive-frequency selection is bit-identical.
func (m *Model) Keep(tuple bitvec.Vector, budget int) bitvec.Vector {
	ones := tuple.Ones()
	if budget > len(ones) {
		budget = len(ones)
	}
	if budget < 0 {
		budget = 0
	}
	sorted := append([]int(nil), ones...)
	sort.SliceStable(sorted, func(a, b int) bool { return m.sing[sorted[a]] > m.sing[sorted[b]] })
	return bitvec.FromIndices(tuple.Width(), sorted[:budget]...)
}

// Interval is one certified estimate: the exact satisfied count of the
// scored kept set lies in [Lo, Hi], and Point is the model's best guess
// inside that interval.
type Interval struct {
	// Lo and Hi certify Lo ≤ exact ≤ Hi against the log generation the model
	// was built from.
	Lo, Hi int
	// Point is an independence-model point estimate clamped into [Lo, Hi].
	Point int
	// Exact reports Lo == Hi: the model pinned the count precisely.
	Exact bool
	// LPTight reports that the LP solves succeeded and tightened the bounds;
	// false means the interval came from the arithmetic union bounds alone
	// (still sound, possibly vacuously wide).
	LPTight bool
	// AtomAttrs is the number of dropped attributes the LP modeled jointly.
	AtomAttrs int
}

// Contains reports whether n lies inside the certified interval.
func (iv Interval) Contains(n int) bool { return iv.Lo <= n && n <= iv.Hi }

// Estimate scores one kept set: the returned interval certifies the exact
// weighted count of log queries satisfied by kept (queries that are subsets
// of kept), computed purely from the stored frequencies. The log itself is
// never touched. Errors only on a width mismatch or context cancellation.
func (m *Model) Estimate(ctx context.Context, kept bitvec.Vector) (Interval, error) {
	if kept.Width() != m.width {
		return Interval{}, fmt.Errorf("estimate: kept width %d, model width %d", kept.Width(), m.width)
	}
	tr := obsv.FromContext(ctx)
	tr.Count("estimate.scores", 1)

	// A query is satisfied iff it avoids every dropped attribute; dropped
	// attributes that never occur cannot unsatisfy anything.
	var dropped []int
	for j := 0; j < m.width; j++ {
		if !kept.Get(j) && m.sing[j] > 0 {
			dropped = append(dropped, j)
		}
	}
	if m.total == 0 || len(dropped) == 0 {
		return Interval{Lo: m.total, Hi: m.total, Point: m.total, Exact: true, LPTight: true}, nil
	}

	// Exact union bounds, no LP needed: the unsatisfied queries are the union
	// of the per-attribute occurrence sets, so |union| ≥ max and ≤ sum.
	maxSing, sumSing := 0, 0
	for _, j := range dropped {
		if m.sing[j] > maxSing {
			maxSing = m.sing[j]
		}
		sumSing += m.sing[j]
	}
	loU, hiU := m.total-sumSing, m.total-maxSing
	if loU < 0 {
		loU = 0
	}
	lo, hi := loU, hiU

	// Pairwise Bonferroni over every dropped attribute (not just the LP's
	// atom set): |union| ≥ S1 − S2, so satisfied ≤ total − S1 + S2. S2 sums
	// exactly over the stored pairs; under a mining-completeness certificate
	// an absent pair is known to sit below the threshold, so S2 is bounded
	// above by s2Known + unknownPairs·(minSup−1) and the bound stays sound.
	s2Known, unknownPairs := 0, 0
	for a := 0; a < len(dropped); a++ {
		for b := a + 1; b < len(dropped); b++ {
			if sup, ok := m.pairSupport(dropped[a], dropped[b]); ok {
				s2Known += sup
			} else {
				unknownPairs++
			}
		}
	}
	if unknownPairs == 0 || (m.minSup > 0 && m.maxSize >= 2) {
		if h := m.total - sumSing + s2Known + unknownPairs*(m.minSup-1); h < hi {
			hi = h
		}
	}

	// S: the top-k dropped attributes by frequency (ties to the lower index)
	// — the heaviest potential unsatisfiers get the joint LP treatment; the
	// tail outside S contributes at most the sum of its frequencies, which
	// only the lower bound must concede.
	s := append([]int(nil), dropped...)
	sort.SliceStable(s, func(a, b int) bool { return m.sing[s[a]] > m.sing[s[b]] })
	if len(s) > m.maxAtoms {
		s = s[:m.maxAtoms]
	}
	slack := 0
	inS := map[int]bool{}
	for _, j := range s {
		inS[j] = true
	}
	for _, j := range dropped {
		if !inS[j] {
			slack += m.sing[j]
		}
	}

	loLP, hiLP, lpOK, err := m.atomBounds(ctx, s)
	if err != nil {
		return Interval{}, err
	}
	if lpOK {
		if h := hiLP; h < hi {
			hi = h
		}
		if l := loLP - slack; l > lo {
			lo = l
		}
		if lo > hi {
			// Disagreement between the tightened bounds and the exact union
			// bounds (LP numerics, or inconsistent NewModel inputs): trust
			// the arithmetic, drop every tightening.
			lpOK = false
			lo, hi = loU, hiU
		}
	}
	if !lpOK {
		tr.Count("estimate.lp.fallbacks", 1)
	}

	// Independence point estimate, clamped into the certified interval.
	// (Truncated inclusion–exclusion — total − S1 + S2 — was measured too:
	// it wins only on duplicate-heavy weighted logs and loses badly when
	// many lightly-correlated attributes are dropped, so the multiplicative
	// model is the default point.)
	p := float64(m.total)
	for _, j := range dropped {
		p *= 1 - float64(m.sing[j])/float64(m.total)
	}
	point := int(math.Round(p))
	if point < lo {
		point = lo
	}
	if point > hi {
		point = hi
	}
	return Interval{Lo: lo, Hi: hi, Point: point, Exact: lo == hi, LPTight: lpOK, AtomAttrs: len(s)}, nil
}

// atomBounds solves the two LPs bounding the weight of queries avoiding
// every attribute of s. Variables are the 2^k atoms of the attribute set s
// (p[T] = weight of queries whose intersection with s is exactly T); the
// objective is p[∅]. Constraints: the atoms sum to the total weight; every
// subset I of s with a stored support gets an equality (supports are linear
// in the atoms: supp(I) = Σ_{T ⊇ I} p[T]); and — when the model carries a
// mining-completeness certificate — every absent subset within the mined
// size cap gets supp(I) ≤ minSup−1. The true atom distribution satisfies
// all of these, so [min, max] of p[∅] brackets the truth.
func (m *Model) atomBounds(ctx context.Context, s []int) (lo, hi int, ok bool, err error) {
	k := len(s)
	if k == 0 {
		return m.total, m.total, true, nil
	}
	nAtoms := 1 << k

	build := func(sense lp.Sense) *lp.Problem {
		p := lp.NewProblem(sense)
		for t := 0; t < nAtoms; t++ {
			obj := 0.0
			if t == 0 {
				obj = 1
			}
			p.AddVar(0, math.Inf(1), obj, "")
		}
		terms := make([]lp.Term, nAtoms)
		for t := 0; t < nAtoms; t++ {
			terms[t] = lp.Term{Var: t, Coeff: 1}
		}
		p.AddConstraint(terms, lp.EQ, float64(m.total))

		for mask := 1; mask < nAtoms; mask++ {
			size := popcount(mask)
			if size > m.maxSize {
				continue
			}
			sup, known := m.supportOf(s, mask, size)
			if !known && m.minSup <= 0 {
				continue // no completeness certificate: unconstrained
			}
			var ts []lp.Term
			for t := mask; ; t = (t + 1) | mask {
				ts = append(ts, lp.Term{Var: t, Coeff: 1})
				if t == nAtoms-1 {
					break
				}
			}
			if known {
				p.AddConstraint(ts, lp.EQ, float64(sup))
			} else {
				p.AddConstraint(ts, lp.LE, float64(m.minSup-1))
			}
		}
		return p
	}

	maxRes, err := build(lp.Maximize).SolveContext(ctx, m.opts.LP)
	if err != nil {
		return 0, 0, false, fmt.Errorf("estimate: %w", err)
	}
	minRes, err := build(lp.Minimize).SolveContext(ctx, m.opts.LP)
	if err != nil {
		return 0, 0, false, fmt.Errorf("estimate: %w", err)
	}
	if maxRes.Status != lp.StatusOptimal || minRes.Status != lp.StatusOptimal {
		return 0, 0, false, nil
	}
	// Round outward with a scale-aware epsilon: the supports are integers, so
	// anything within simplex tolerance of an integer is that integer, and
	// widening by eps before floor/ceil keeps the certificate on the safe
	// side of the solver's numerics.
	eps := 1e-7*float64(m.total) + 1e-6
	hi = int(math.Floor(maxRes.Objective + eps))
	lo = int(math.Ceil(minRes.Objective - eps))
	if hi > m.total {
		hi = m.total
	}
	if lo < 0 {
		lo = 0
	}
	if lo > hi {
		return 0, 0, false, nil
	}
	return lo, hi, true, nil
}

// supportOf resolves the support of the subset of s selected by mask:
// singletons are always exact; larger sets are looked up among the stored
// itemsets.
func (m *Model) supportOf(s []int, mask, size int) (int, bool) {
	if size == 1 {
		for i, j := range s {
			if mask == 1<<i {
				return m.sing[j], true
			}
		}
	}
	attrs := make([]int, 0, size)
	for i, j := range s {
		if mask&(1<<i) != 0 {
			attrs = append(attrs, j)
		}
	}
	sup, ok := m.supp[bitvec.FromIndices(m.width, attrs...).Key()]
	return sup, ok
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
