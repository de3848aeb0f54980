package shard

import (
	"context"
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/compact"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/gen"
)

// testLog builds a deterministic weighted log: width attrs, size queries
// sampled from a pool (duplicates likely), every third append weighted.
func testLog(t *testing.T, seed int64, width, size int) *dataset.QueryLog {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	pool := make([]bitvec.Vector, 3+r.Intn(6))
	for p := range pool {
		q := bitvec.New(width)
		k := 1 + r.Intn(3)
		for q.Count() < k {
			q.Set(r.Intn(width))
		}
		pool[p] = q
	}
	for j := 0; j < size; j++ {
		w := 1
		if j%3 == 0 {
			w = 1 + r.Intn(5)
		}
		if err := log.AppendWeighted(pool[r.Intn(len(pool))], w); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return log
}

func TestShardOfDeterministicAndInRange(t *testing.T) {
	log := testLog(t, 1, 8, 60)
	for _, n := range []int{1, 2, 3, 8} {
		for _, q := range log.Queries {
			i := ShardOf(q, n)
			if i < 0 || i >= n {
				t.Fatalf("ShardOf(%s, %d) = %d out of range", q, n, i)
			}
			if j := ShardOf(q, n); j != i {
				t.Fatalf("ShardOf not deterministic: %d then %d", i, j)
			}
		}
	}
}

func TestPartitionPreservesWeightsAndUnion(t *testing.T) {
	log := testLog(t, 2, 9, 80)
	for _, n := range []int{1, 2, 4, 8} {
		parts, err := Partition(context.Background(), log, n)
		if err != nil {
			t.Fatalf("Partition(%d): %v", n, err)
		}
		if len(parts) != n {
			t.Fatalf("Partition(%d) returned %d parts", n, len(parts))
		}
		totalW, totalQ := 0, 0
		union := map[string]int{} // query bits → total weight
		for _, p := range parts {
			totalW += p.TotalWeight()
			totalQ += p.Size()
			for qi, q := range p.Queries {
				union[q.String()] += p.Weight(qi)
			}
		}
		if totalW != log.TotalWeight() {
			t.Errorf("n=%d: shard weights sum %d, log %d", n, totalW, log.TotalWeight())
		}
		if totalQ != log.Size() {
			t.Errorf("n=%d: shard sizes sum %d, log %d", n, totalQ, log.Size())
		}
		want := map[string]int{}
		for qi, q := range log.Queries {
			want[q.String()] += log.Weight(qi)
		}
		for k, w := range want {
			if union[k] != w {
				t.Errorf("n=%d: query %s has shard weight %d, log weight %d", n, k, union[k], w)
			}
		}
		// A query's duplicates land on one shard (hash of the bits).
		for _, p := range parts {
			for _, q := range p.Queries {
				for _, other := range parts {
					if other == p {
						continue
					}
					for _, oq := range other.Queries {
						if q.Equal(oq) {
							t.Fatalf("n=%d: query %s present on two shards", n, q)
						}
					}
				}
			}
		}
	}
}

// TestPartitionBalanced holds every shard of a power-of-two split of the
// compacted log — gen.RealWorkload's 200,000 raw queries over the Cars
// schema, folded into weighted entries, the log shard-fanout serves — within
// ±10% of the mean entry count. An attribute hash reduced unmixed mod 2^k
// fails it: the first k attributes alone pick the shard, which put 59% of
// the weight on one shard of four.
func TestPartitionBalanced(t *testing.T) {
	log, _ := compact.Compact(gen.RealWorkload(gen.Cars(1000, 2000), 1001, 200000))
	for _, n := range []int{2, 4, 8} {
		parts, err := Partition(context.Background(), log, n)
		if err != nil {
			t.Fatal(err)
		}
		mean := float64(log.Size()) / float64(n)
		for i, p := range parts {
			if dev := float64(p.Size())/mean - 1; dev < -0.1 || dev > 0.1 {
				t.Fatalf("n=%d: shard %d holds %d of %d entries, %+.0f%% off the mean", n, i, p.Size(), log.Size(), 100*dev)
			}
		}
	}
}

func TestPartitionOneMatchesPartition(t *testing.T) {
	log := testLog(t, 3, 7, 50)
	for _, n := range []int{1, 2, 4} {
		parts, err := Partition(context.Background(), log, n)
		if err != nil {
			t.Fatalf("Partition: %v", err)
		}
		for i := 0; i < n; i++ {
			one, err := PartitionOne(context.Background(), log, i, n)
			if err != nil {
				t.Fatalf("PartitionOne(%d/%d): %v", i, n, err)
			}
			if one.Size() != parts[i].Size() || one.TotalWeight() != parts[i].TotalWeight() {
				t.Fatalf("PartitionOne(%d/%d): size/weight %d/%d, Partition %d/%d",
					i, n, one.Size(), one.TotalWeight(), parts[i].Size(), parts[i].TotalWeight())
			}
			for qi, q := range one.Queries {
				if !q.Equal(parts[i].Queries[qi]) || one.Weight(qi) != parts[i].Weight(qi) {
					t.Fatalf("PartitionOne(%d/%d): query %d differs", i, n, qi)
				}
			}
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	log := testLog(t, 4, 6, 20)
	if _, err := Partition(context.Background(), log, 0); err == nil {
		t.Error("Partition(0) succeeded")
	}
	if _, err := PartitionOne(context.Background(), log, 2, 2); err == nil {
		t.Error("PartitionOne(2/2) succeeded")
	}
	if _, err := PartitionOne(context.Background(), log, -1, 2); err == nil {
		t.Error("PartitionOne(-1/2) succeeded")
	}
}

func TestPartitionFaultSite(t *testing.T) {
	log := testLog(t, 5, 6, 20)
	inj := fault.New(1, fault.Rule{Site: "shard.partition", Every: 1, Kind: fault.KindError, Msg: "boom"})
	ctx := fault.WithInjector(context.Background(), inj)
	if _, err := Partition(ctx, log, 2); err == nil {
		t.Error("Partition under shard.partition fault succeeded")
	}
	if _, err := PartitionOne(ctx, log, 0, 2); err == nil {
		t.Error("PartitionOne under shard.partition fault succeeded")
	}
}
