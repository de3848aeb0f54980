package core

import (
	"context"
	"fmt"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/index"
)

// Batch counting oracles for the sharded scatter-gather layer
// (internal/shard). The SOC-CB-QL objective is additive over queries, so a
// coordinator holding only per-shard counts can reconstruct every global
// quantity the solvers need: CountSatisfied is the objective itself (queries
// retrieving a candidate compression), CountContaining is the co-occurrence
// score ConsumeAttrCumul ranks candidates by (and, on singleton candidates,
// the per-attribute frequency ConsumeAttr sorts on). Summing the per-shard
// results of either function over a partition of a log equals calling it on
// the unpartitioned log — the exactness argument of DESIGN.md §15.

// CountSatisfied returns, for each candidate compression, the total weight of
// log queries retrieving it (queries q with q ⊆ cand) — the plain count for
// an unweighted log. When the context carries a usable PreparedLog for log
// (WithPrepared), candidates are answered from the shared attribute→query
// index; results are bit-identical either way.
func CountSatisfied(ctx context.Context, log *dataset.QueryLog, cands []bitvec.Vector) ([]int, error) {
	if err := validateCands(log, cands); err != nil {
		return nil, err
	}
	if p := preparedFromContext(ctx); p != nil && p.usableFor(log) {
		counts, err := p.sum(ctx, cands, (*index.Index).Satisfied)
		if err != nil {
			return nil, fmt.Errorf("core: count satisfied: %w", err)
		}
		return counts, nil
	}
	counts := make([]int, len(cands))
	for ci, cand := range cands {
		if ci&pollMask == 0 {
			if err := pollCtx(ctx); err != nil {
				return nil, fmt.Errorf("core: count satisfied: %w", err)
			}
		}
		counts[ci] = log.Satisfied(cand)
	}
	return counts, nil
}

// CountContaining returns, for each candidate, the total weight of log
// queries containing it (queries q with q ⊇ cand). When the context carries
// a usable PreparedLog for log (WithPrepared), each count is the AND of the
// candidate's attribute columns in every index segment (index.Containing),
// summed over the segments; otherwise a single pass over the log scores
// every candidate. Results are bit-identical either way.
func CountContaining(ctx context.Context, log *dataset.QueryLog, cands []bitvec.Vector) ([]int, error) {
	if err := validateCands(log, cands); err != nil {
		return nil, err
	}
	var counts []int
	var err error
	if p := preparedFromContext(ctx); p != nil && p.usableFor(log) {
		counts, err = p.containing(ctx, cands)
	} else {
		counts, err = containingScan(ctx, log, cands)
	}
	if err != nil {
		return nil, fmt.Errorf("core: count containing: %w", err)
	}
	return counts, nil
}

// containing answers CountContaining, and the estimator derivation's
// support calls, from the prep's index.
func (p *PreparedLog) containing(ctx context.Context, cands []bitvec.Vector) ([]int, error) {
	return p.sum(ctx, cands, (*index.Index).Containing)
}

// sum returns, for each candidate, the per-segment kernel summed over the
// prep's segments — exact because each query lives in exactly one segment.
// Each segment gets one scratch for the whole call.
func (p *PreparedLog) sum(ctx context.Context, cands []bitvec.Vector, kernel func(*index.Index, bitvec.Vector, *index.Scratch) int) ([]int, error) {
	seg := p.seg
	counts := make([]int, len(cands))
	scratch := make([]*index.Scratch, seg.Segments())
	for si := range scratch {
		scratch[si] = seg.Segment(si).NewScratch()
	}
	for ci, cand := range cands {
		if ci&pollMask == 0 {
			if err := pollCtx(ctx); err != nil {
				return nil, err
			}
		}
		for si, sc := range scratch {
			counts[ci] += kernel(seg.Segment(si), cand, sc)
		}
	}
	return counts, nil
}

// containingScan answers Containing in one pass over the log: each query
// adds its weight to every candidate it contains.
func containingScan(ctx context.Context, log *dataset.QueryLog, cands []bitvec.Vector) ([]int, error) {
	counts := make([]int, len(cands))
	for qi, q := range log.Queries {
		if qi&pollMask == 0 {
			if err := pollCtx(ctx); err != nil {
				return nil, err
			}
		}
		w := log.Weight(qi)
		for ci, cand := range cands {
			if cand.SubsetOf(q) {
				counts[ci] += w
			}
		}
	}
	return counts, nil
}

func validateCands(log *dataset.QueryLog, cands []bitvec.Vector) error {
	if log == nil {
		return fmt.Errorf("core: nil query log")
	}
	for i, cand := range cands {
		if cand.Width() != log.Width() {
			return fmt.Errorf("core: candidate %d width %d, query log width %d",
				i, cand.Width(), log.Width())
		}
	}
	return nil
}
