// Package compact summarizes query logs into weighted form without changing
// any solver's answer.
//
// The SOC-CB-QL objective is f(v) = Σ_q w_q·[q ⊆ v]. Folding exact
// duplicates into one entry whose weight is the sum of the duplicates'
// weights leaves f pointwise unchanged — for every candidate compression v,
// not just the optimum — so every exact solver returns a bit-identical
// Solution over the compacted log, and the greedy heuristics do too because
// the statistics they consult (weighted attribute frequencies, weighted
// AND-counts, the first-occurrence order that drives tie-breaking) are all
// preserved by the fold. The differential suite in internal/core pins this
// across 1000 seeded instances.
//
// Duplicates are provably the ONLY thing a pointwise-exact compaction may
// fold. Folding a query q strictly subsumed by a shorter query p (p ⊂ q)
// into p's weight is tempting — every v satisfying q satisfies p — but it is
// lossy: the indicator functions v ↦ [q ⊆ v] over the subset lattice are
// linearly independent (they are the rows of the lattice's zeta matrix,
// which is triangular with unit diagonal under any linear extension of ⊆),
// so no reweighting of a strict subset of distinct queries reproduces f at
// every v. Concretely, with p = {a} ⊂ q = {a,b}, folding q into p scores
// v = {a} as 2 where the true objective is 1. Compact therefore folds only
// duplicates, in one pass over the log.
package compact

import (
	"standout/internal/dataset"
)

// Stats counts what one compaction run folded.
type Stats struct {
	// InputQueries and OutputQueries are the entry counts before and after;
	// InputWeight == OutputWeight always (compaction preserves total weight).
	InputQueries  int `json:"input_queries"`
	OutputQueries int `json:"output_queries"`
	InputWeight   int `json:"input_weight"`
	OutputWeight  int `json:"output_weight"`
	// DuplicatesFolded counts input entries absorbed into an earlier entry's
	// weight: InputQueries − OutputQueries.
	DuplicatesFolded int `json:"duplicates_folded"`
}

// Ratio returns OutputQueries/InputQueries, the size of the compacted log
// relative to the input (1 when nothing folded, 0 for an empty input).
func (s Stats) Ratio() float64 {
	if s.InputQueries == 0 {
		return 0
	}
	return float64(s.OutputQueries) / float64(s.InputQueries)
}

// Compact returns a weighted query log equivalent to log for every SOC-CB-QL
// objective evaluation: exact duplicates are folded into the first
// occurrence's weight (existing weights summed), order of first occurrences
// preserved. It runs in O(S) time on a log of S entries. The input is not
// modified. The result's entry slices are its own, but each of its query
// vectors shares word storage with that query's first occurrence in log, so
// editing a vector of either log in place changes both.
func Compact(log *dataset.QueryLog) (*dataset.QueryLog, Stats) {
	out, weights := log.Dedup()
	allUnit := true
	for _, w := range weights {
		if w != 1 {
			allUnit = false
			break
		}
	}
	if !allUnit {
		out.Weights = weights
	}
	st := Stats{
		InputQueries:  log.Size(),
		OutputQueries: out.Size(),
		InputWeight:   log.TotalWeight(),
		OutputWeight:  out.TotalWeight(),
	}
	st.DuplicatesFolded = st.InputQueries - st.OutputQueries
	return out, st
}
