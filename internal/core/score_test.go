package core

import (
	"context"
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/compact"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/index"
)

// TestCountOraclesSegmentedMatchScan pins the shard-facing counting oracles
// on segmented weighted preps: with a multi-segment prep attached,
// CountSatisfied and CountContaining must equal their scans over the same
// log for every candidate — the empty set, each singleton and random sets —
// in all three index representation modes. The prep is assembled from a
// random prefix plus random appended chunks with tiered compaction failing,
// so every chunk stays its own segment.
func TestCountOraclesSegmentedMatchScan(t *testing.T) {
	instances := 300
	if testing.Short() {
		instances = 60
	}
	noMerge := fault.WithInjector(context.Background(),
		fault.New(1, fault.Rule{Site: "core.prep.compact", Every: 1, Kind: fault.KindError, Msg: "keep segments"}))
	modes := []index.Mode{index.Auto, index.ForceDense, index.ForceCompressed}
	for i := 0; i < instances; i++ {
		r := rand.New(rand.NewSource(int64(i)*15485863 + 3))
		full, _ := compact.Compact(genDiffInstance(i).raw)
		width := full.Width()
		cands := []bitvec.Vector{bitvec.New(width)}
		for a := 0; a < width; a++ {
			cands = append(cands, bitvec.FromIndices(width, a))
		}
		for k := 0; k < 16; k++ {
			v := bitvec.New(width)
			for a := 0; a < width; a++ {
				if r.Intn(3) == 0 {
					v.Set(a)
				}
			}
			cands = append(cands, v)
		}
		wantSat, err := CountSatisfied(context.Background(), full, cands)
		if err != nil {
			t.Fatal(err)
		}
		wantCon, err := CountContaining(context.Background(), full, cands)
		if err != nil {
			t.Fatal(err)
		}

		mode := modes[i%len(modes)]
		cur := dataset.NewQueryLog(full.Schema)
		prep, err := PrepareLogWith(cur, index.Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < full.Size(); {
			hi := lo + 1 + r.Intn(full.Size()-lo)
			next := cur.Extend()
			for qi := lo; qi < hi; qi++ {
				if err := next.AppendWeighted(full.Queries[qi], full.Weight(qi)); err != nil {
					t.Fatal(err)
				}
			}
			if prep, err = PrepareLogFromContext(noMerge, prep, next); err != nil {
				t.Fatal(err)
			}
			cur, lo = next, hi
		}
		ctx := WithPrepared(context.Background(), prep)
		gotSat, err := CountSatisfied(ctx, cur, cands)
		if err != nil {
			t.Fatal(err)
		}
		gotCon, err := CountContaining(ctx, cur, cands)
		if err != nil {
			t.Fatal(err)
		}
		for ci, v := range cands {
			if gotSat[ci] != wantSat[ci] || gotCon[ci] != wantCon[ci] {
				t.Fatalf("inst %d mode %d (%d segments) cand %v: satisfied %d/%d, containing %d/%d (prepared/scan)",
					i, mode, prep.Segments(), v.Ones(), gotSat[ci], wantSat[ci], gotCon[ci], wantCon[ci])
			}
		}
	}
}
