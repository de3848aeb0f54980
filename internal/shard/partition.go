// Package shard implements horizontal scale-out for SOC-CB-QL serving: a
// deterministic query-log partitioner, shard backends (in-process and HTTP),
// and a scatter-gather coordinator whose merged answers are bit-identical to
// the unsharded solvers.
//
// The composition leans on the objective being additive over queries: for any
// candidate compression v, the weighted count of queries retrieving v over a
// partitioned log is the sum of the per-shard counts, and the same holds for
// the co-occurrence counts the greedy solvers rank candidates by. So the
// coordinator runs the solver's control flow itself — candidate generation,
// tie-breaking, the exact-budget shortcut — and treats shards purely as
// additive counting oracles (core.CountSatisfied / core.CountContaining).
// Merging locally-optimal solutions instead would be wrong: a global optimum
// need not be any shard's local optimum.
//
// The robustness layer wraps every scatter call: per-shard deadlines clamped
// from the request deadline, hedged requests after a latency quantile,
// bounded retries with seeded-jitter backoff, and a per-shard circuit
// breaker. Shards lost past that budget degrade the response to an exact
// lower bound over the responding subset — reported as partial, never as a
// 5xx (DESIGN.md §15).
package shard

import (
	"context"
	"fmt"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/fault"
)

// partitionSeed fixes the hash every partitioning uses, so separate processes
// (socserve -shard-of on different hosts) agree on the assignment.
const partitionSeed = 0x70a3d70a3d70a3d7

// ShardOf returns the shard index in [0, n) a query belongs to. The
// assignment hashes the query's attribute set, so duplicate queries (and
// their weights) land on one shard and the per-shard logs stay skew-free for
// typical workloads. The attribute hash is finalized before the reduction:
// its low k bits depend only on the query's first k attributes, so taken mod
// 2^k unmixed it would pile every query sharing those attributes onto one
// shard. Every process of one fleet must run the same ShardOf.
func ShardOf(q bitvec.Vector, n int) int {
	return int(dataset.Mix64(q.Hash64(partitionSeed)) % uint64(n))
}

// Partition splits log into n per-shard logs by deterministic query hash,
// preserving weights. Every query lands in exactly one shard, so the shards'
// weighted counts sum to the original log's for any counting oracle.
func Partition(ctx context.Context, log *dataset.QueryLog, n int) ([]*dataset.QueryLog, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: partition into %d shards", n)
	}
	if err := log.Validate(); err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}
	parts := make([]*dataset.QueryLog, n)
	for i := range parts {
		if err := fault.Hit(ctx, "shard.partition"); err != nil {
			return nil, fmt.Errorf("shard: partition: %w", err)
		}
		parts[i] = dataset.NewQueryLog(log.Schema)
	}
	for qi, q := range log.Queries {
		if err := parts[ShardOf(q, n)].AppendWeighted(q, log.Weight(qi)); err != nil {
			return nil, fmt.Errorf("shard: partition: %w", err)
		}
	}
	return parts, nil
}

// PartitionOne builds only shard i of an n-way partition — what a
// `socserve -shard-of i/n` instance serves. PartitionOne(ctx, log, i, n)
// equals Partition(ctx, log, n)[i] for every i.
func PartitionOne(ctx context.Context, log *dataset.QueryLog, i, n int) (*dataset.QueryLog, error) {
	if n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("shard: shard %d of %d is out of range", i, n)
	}
	if err := log.Validate(); err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}
	if err := fault.Hit(ctx, "shard.partition"); err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}
	part := dataset.NewQueryLog(log.Schema)
	for qi, q := range log.Queries {
		if ShardOf(q, n) != i {
			continue
		}
		if err := part.AppendWeighted(q, log.Weight(qi)); err != nil {
			return nil, fmt.Errorf("shard: partition: %w", err)
		}
	}
	return part, nil
}
