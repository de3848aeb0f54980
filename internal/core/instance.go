// Package core implements the paper's primary contribution: algorithms for
// Problem SOC-CB-QL ("Stand Out in a Crowd — Conjunctive Boolean — Query
// Log", §II.A). Given a query log Q of conjunctive Boolean queries, a new
// tuple t, and a budget m, compute a compression t' of t retaining at most m
// attributes that maximizes the number of queries retrieving t'.
//
// Five solvers are provided, mirroring §IV:
//
//   - BruteForce        — exact, enumerates all C(|t|, m) compressions (§IV.A)
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
func (in Instance) Validate() error {
	if in.Log == nil {
		return errors.New("core: instance has nil query log")
	}
	if err := in.Log.Validate(); err != nil {
		return err
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
	Candidates int // compressions evaluated (brute force, MFI enumeration)
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
// When the solve's context carries a PreparedLog for the instance's log (see
// WithPrepared and SolveBatchContext), normalize additionally attaches the
// shared attribute→query bitmap index: the restricted log is materialized
// from the index's candidate bitmap instead of a full scan, and score runs
// word-parallel over dropped-attribute columns instead of rescanning
// queries. Results are bit-identical either way — the differential sweep in
// differential_test.go pins that. A *normalized is also the Counter the
// counting solvers run their bodies over (counter.go).
type normalized struct {
	in    Instance
	log   *dataset.QueryLog // queries ⊆ tuple
	ones  []int             // indices of the tuple's attributes
	m     int               // min(M, |tuple|)
	exact bool              // true when the whole tuple fits the budget

	segs    []segref // shared per-log index segments, or nil
	freq    []int    // weighted attribute frequencies (segs path only)
	dropbuf []int    // scoring workspace (segs path only)
}

// segref is one index segment of the attached PreparedLog with this solve's
// per-segment state: the candidate bitmap of the segment's queries contained
// in the tuple (in segment-local ids) and a scoring scratch.
type segref struct {
	idx     *index.Index
	off     int // global id of the segment's first query
	cand    bitvec.Bits
	scratch *index.Scratch
}

func normalize(ctx context.Context, in Instance) (normalized, error) {
	if err := in.Validate(); err != nil {
		return normalized{}, err
	}
	n := normalized{
		in:   in,
		ones: in.Tuple.Ones(),
		m:    in.M,
	}
	if p := preparedFromContext(ctx); p != nil && p.usableFor(in.Log) {
		seg := p.seg
		n.freq = seg.AttrFrequencies()
		n.segs = make([]segref, seg.Segments())
		n.dropbuf = make([]int, 0, len(n.ones))
		// Materialize the restricted log from the per-segment candidate sets.
		// Segments cover contiguous windows in log order and member iteration
		// is ascending, so walking them in order preserves global query order
		// — greedy tie-breaking matches the scan path exactly. CandidateSet
		// keeps each segment's candidates in whatever representation its size
		// bucket uses — compressed candidates stay compressed through every
		// subsequent score.
		restricted := dataset.NewQueryLog(in.Log.Schema)
		for si := range n.segs {
			ix, off := seg.Segment(si), seg.Offset(si)
			cand := ix.CandidateSet(in.Tuple)
			n.segs[si] = segref{idx: ix, off: off, cand: cand, scratch: ix.NewScratch()}
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

// shard returns a copy of n with independent scoring workspaces (per-segment
// scratch bitmaps and the drop buffer), for parallel enumeration: score
// mutates those buffers, so concurrent shards must not share them. Everything
// else — the restricted log, the indexes, the candidate bitmaps — is
// read-only after normalize and stays shared.
func (n normalized) shard() normalized {
	if n.segs != nil {
		segs := make([]segref, len(n.segs))
		copy(segs, n.segs)
		for i := range segs {
			segs[i].scratch = segs[i].idx.NewScratch()
		}
		n.segs = segs
		n.dropbuf = make([]int, 0, len(n.ones))
	}
	return n
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
		drop := n.dropbuf[:0]
		for _, a := range n.ones {
			if !kept.Get(a) {
				drop = append(drop, a)
			}
		}
		total := 0
		for i := range n.segs {
			s := &n.segs[i]
			total += s.idx.SatisfiedDropping(s.cand, drop, s.scratch)
		}
		return total
	}
	return n.log.Satisfied(kept)
}

// fullFreq returns per-attribute weighted frequencies over the whole
// (unrestricted) log — precomputed by the index when one is attached.
func (n normalized) fullFreq() []int {
	if n.segs != nil {
		return n.freq
	}
	return n.in.Log.AttrFrequencies()
}

// keep materializes a compression from a subset of tuple-attribute indices.
func (n normalized) keep(attrs []int) bitvec.Vector {
	return bitvec.FromIndices(n.in.Tuple.Width(), attrs...)
}
