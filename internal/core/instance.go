// Package core implements the paper's primary contribution: algorithms for
// Problem SOC-CB-QL ("Stand Out in a Crowd — Conjunctive Boolean — Query
// Log", §II.A). Given a query log Q of conjunctive Boolean queries, a new
// tuple t, and a budget m, compute a compression t' of t retaining at most m
// attributes that maximizes the number of queries retrieving t'.
//
// Five solvers are provided, mirroring §IV:
//
//   - BruteForce        — exact, the best of all C(|t|, m) compressions (§IV.A)
//   - ILP               — exact, the paper's integer linear program solved by
//     branch-and-bound over an LP relaxation (§IV.B)
//   - MaxFreqItemSets   — exact via maximal-frequent-itemset mining on the
//     complemented query log (§IV.C), with a random-walk
//     or exact-DFS mining backend and preprocessing
//   - ConsumeAttr       — greedy on attribute frequencies (§IV.D)
//   - ConsumeAttrCumul  — greedy on cumulative co-occurrence (§IV.D)
//   - ConsumeQueries    — greedy on cheapest-next-query (§IV.D)
//
// All satisfy the Solver interface; the exact ones return provably optimal
// solutions, the greedy ones return heuristic solutions quickly.
package core

import (
	"context"
	"errors"
	"fmt"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/index"
	"standout/internal/obsv"
)

// Instance is one SOC-CB-QL problem: choose at most M attributes of Tuple to
// retain so that the number of queries in Log retrieving the compressed
// tuple is maximized.
type Instance struct {
	Log   *dataset.QueryLog
	Tuple bitvec.Vector
	M     int
}

// Validate checks structural consistency.
func (in Instance) Validate() error { return in.validate(true) }

// validate is Validate, checking the log's own queries and weights only when
// checkLog is set: a usable PreparedLog checked them when it was built.
func (in Instance) validate(checkLog bool) error {
	if in.Log == nil {
		return errors.New("core: instance has nil query log")
	}
	if checkLog {
		if err := in.Log.Validate(); err != nil {
			return err
		}
	}
	if in.Tuple.Width() != in.Log.Width() {
		return fmt.Errorf("core: tuple width %d, query log width %d",
			in.Tuple.Width(), in.Log.Width())
	}
	if in.M < 0 {
		return fmt.Errorf("core: negative budget m=%d", in.M)
	}
	return nil
}

// Solution is a compressed tuple and its visibility.
type Solution struct {
	// Kept is the compressed tuple t' (a subset of the instance tuple with at
	// most m attributes).
	Kept bitvec.Vector
	// Satisfied is the number of log queries that retrieve Kept.
	Satisfied int
	// Optimal records whether the producing solver guarantees optimality.
	Optimal bool
	// Estimated reports that Satisfied is a certified point estimate from the
	// itemset+LP estimator (Estimate, DESIGN.md §16) rather than an exact
	// count; EstLo and EstHi then bound the exact count: EstLo ≤ exact ≤ EstHi.
	Estimated bool
	// EstLo and EstHi carry the certified interval when Estimated is set.
	EstLo, EstHi int
	// Stats carries solver-specific diagnostics.
	Stats Stats

	// trace is the obsv.Trace the producing solve ran under (the one attached
	// to its context via obsv.WithTrace), or nil.
	trace *obsv.Trace
}

// Trace returns the observability trace the producing solve recorded into,
// or nil when the solve ran without one. Solutions of one batch share the
// batch's trace.
func (s Solution) Trace() *obsv.Trace { return s.trace }

// Stats reports solver work; fields are zero when not applicable.
type Stats struct {
	Candidates int // compressions covered (brute force: C(|t|, m); MFI enumeration)
	Nodes      int // branch-and-bound nodes (ILP)
	MFIs       int // maximal frequent itemsets considered (MFI)
	Threshold  int // final support threshold used (MFI)
}

// Solver is the common interface of all SOC-CB-QL algorithms.
//
// Every solver in this package implements Solve as
// SolveContext(context.Background(), in), so the two methods always agree;
// third-party implementations should preserve that identity.
type Solver interface {
	// Name returns the paper's name for the algorithm, e.g. "ILP-SOC-CB-QL".
	Name() string
	// Solve computes a compression for the instance. Exact solvers return an
	// optimal Solution; greedy solvers a heuristic one.
	Solve(in Instance) (Solution, error)
	// SolveContext is Solve under a context: every potentially-unbounded
	// inner loop polls ctx, and when ctx is cancelled or its deadline expires
	// the solver stops promptly and returns an error satisfying errors.Is
	// against context.Canceled or context.DeadlineExceeded. With a background
	// context the result is identical to Solve's. Cancellation latency is
	// bounded by one polling interval — a few hundred candidate evaluations
	// at most, microseconds to low milliseconds of work.
	SolveContext(ctx context.Context, in Instance) (Solution, error)
}

// pollCtx reports a pending cancellation without blocking; solvers call it
// from their inner loops, typically every pollMask+1 iterations.
func pollCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// pollMask throttles cancellation polls in hot enumeration loops: iterations
// whose counter&pollMask != 0 skip the check. 63 keeps the poll overhead
// unmeasurable while every loop body that scans a query log still checks at
// sub-millisecond granularity.
const pollMask = 63

// AttrNames renders the kept attributes of a solution against a schema,
// convenience for presenting results.
func (s Solution) AttrNames(schema *dataset.Schema) []string {
	return schema.Names(s.Kept)
}

// normalized holds the reduced form of an instance shared by all solvers:
// queries not contained in the tuple are dropped (no compression can ever
// satisfy them — the tuple itself cannot), and the effective budget is
// clamped to the tuple size.
//
// When the solve's context carries a usable PreparedLog for the instance's
// log (see WithPrepared and SolveBatchContext), which validated the log when
// it was built, normalize attaches the shared attribute→query index
// instead: per segment, the candidate set of queries contained in the tuple
// and a kernel scratch from the prep, so score runs word-parallel over
// dropped-attribute columns. The restricted log is then built, from the
// candidate sets, only for the solvers that read queries (MFI's projection,
// ILP, IP, ConsumeQueries); for the counting solvers log stays nil. Results
// are bit-identical either way — the differential sweep in
// differential_test.go pins that. A *normalized is also the Counter the
// counting solvers run their bodies over (counter.go).
type normalized struct {
	in    Instance
	log   *dataset.QueryLog // queries ⊆ tuple; nil for a counting solve with an index
	ones  []int             // indices of the tuple's attributes
	m     int               // min(M, |tuple|)
	exact bool              // true when the whole tuple fits the budget

	prep    *PreparedLog     // the attached prep, or nil
	segs    []segref         // shared per-log index segments, or nil
	scratch []*index.Scratch // one kernel scratch per segment, from prep
}

// segref is one index segment of the attached PreparedLog with the
// candidate set of the segment's queries contained in the tuple (in
// segment-local ids).
type segref struct {
	idx  *index.Index
	cand bitvec.Bits
}

// normalize reduces in for a solver that reads the restricted log. Callers
// release the result when the solve ends.
func normalize(ctx context.Context, in Instance) (normalized, error) {
	return reduce(ctx, in, true)
}

// reduce is normalize, building the restricted log with an index attached
// only when needLog is set.
func reduce(ctx context.Context, in Instance, needLog bool) (normalized, error) {
	p := preparedFromContext(ctx)
	if !p.usableFor(in.Log) {
		p = nil
	}
	if err := in.validate(p == nil); err != nil {
		return normalized{}, err
	}
	n := normalized{
		in:   in,
		ones: in.Tuple.Ones(),
		m:    in.M,
	}
	if p != nil {
		seg := p.seg
		n.prep = p
		n.segs = make([]segref, seg.Segments())
		n.scratch = p.takeScratch()
		var restricted *dataset.QueryLog
		if needLog {
			restricted = dataset.NewQueryLog(in.Log.Schema)
		}
		for si := range n.segs {
			// CandidateSet keeps each segment's candidates in whatever
			// representation its size bucket uses — compressed candidates
			// stay compressed through every subsequent score.
			ix, off := seg.Segment(si), seg.Offset(si)
			cand := ix.CandidateSet(in.Tuple)
			n.segs[si] = segref{idx: ix, cand: cand}
			if restricted == nil {
				continue
			}
			// Segments cover contiguous windows in log order and member
			// iteration is ascending, so walking them in order preserves
			// global query order — greedy tie-breaking matches the scan path
			// exactly.
			cand.Range(func(qi int) bool {
				restricted.Queries = append(restricted.Queries, in.Log.Queries[off+qi])
				if in.Log.Weights != nil {
					restricted.Weights = append(restricted.Weights, in.Log.Weights[off+qi])
				}
				return true
			})
		}
		n.log = restricted
	} else {
		n.log = in.Log.Restrict(in.Tuple)
	}
	if n.m >= len(n.ones) {
		n.m = len(n.ones)
		n.exact = true
	}
	return n, nil
}

// release returns n's kernel scratches to the prep's free list; n must not
// score afterwards.
func (n *normalized) release() {
	if n.scratch != nil {
		n.prep.putScratch(n.scratch)
		n.scratch = nil
	}
}

// full returns the trivial solution that keeps the entire tuple.
func (n normalized) full() Solution {
	kept := n.in.Tuple.Clone()
	return Solution{Kept: kept, Satisfied: n.log.TotalWeight(), Optimal: true}
}

// score returns the total weight of queries satisfied by a candidate
// compression kept ⊆ tuple (the count, for unweighted logs). The sum over the
// restricted log equals the sum over the original log because dropped queries
// are unsatisfiable by any subset of the tuple. With an index attached the
// scoring runs word-parallel per segment — each segment's candidate bitmap
// minus the columns of the tuple attributes kept drops — and the per-segment
// sums add up exactly because every query lives in exactly one segment.
func (n normalized) score(kept bitvec.Vector) int {
	if n.segs != nil {
		var buf [64]int // SatisfiedDropping keeps no reference to drop
		drop := buf[:0]
		for _, a := range n.ones {
			if !kept.Get(a) {
				drop = append(drop, a)
			}
		}
		total := 0
		for i, s := range n.segs {
			total += s.idx.SatisfiedDropping(s.cand, drop, n.scratch[i])
		}
		return total
	}
	return n.log.Satisfied(kept)
}

// fullFreq returns per-attribute weighted frequencies over the whole
// (unrestricted) log — precomputed by the index when one is attached.
func (n normalized) fullFreq() []int {
	if n.prep != nil {
		return n.prep.seg.AttrFrequencies()
	}
	return n.in.Log.AttrFrequencies()
}

// keep materializes a compression from a subset of tuple-attribute indices.
func (n normalized) keep(attrs []int) bitvec.Vector {
	return bitvec.FromIndices(n.in.Tuple.Width(), attrs...)
}
