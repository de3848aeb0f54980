package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// This file is the differential determinism suite of the parallel solving
// engine: for every parallelized solver, any worker count must yield results
// bit-identical to the sequential run — same chosen attribute set under the
// documented tie-break, same Satisfied count, same work statistics. The suite
// runs under -race in CI (see Makefile test-race), so it doubles as the data
// race proof for the scheduler wiring.

// parallelSolver builds the workers-parameterized variant of one solver
// family plus the fields that must match bit-for-bit.
type parallelSolver struct {
	name  string
	build func(workers int) Solver
}

func parallelSolvers() []parallelSolver {
	return []parallelSolver{
		{"BruteForce", func(w int) Solver { return BruteForce{Workers: w} }},
		{"ILP", func(w int) Solver { return ILP{Workers: w} }},
		{"MFI-dfs", func(w int) Solver { return MaxFreqItemSets{Backend: BackendExactDFS, Workers: w} }},
	}
}

// solutionFingerprint flattens the comparable content of a Solution. Two runs are
// bit-identical iff their keys are equal: kept set, score, optimality flag
// and every work statistic (candidates scored, nodes expanded, itemsets
// considered, threshold reached).
func solutionFingerprint(sol Solution) string {
	return fmt.Sprintf("kept=%s sat=%d opt=%t stats=%+v", sol.Kept, sol.Satisfied, sol.Optimal, sol.Stats)
}

// TestParallelDeterminismSweep sweeps seeded random instances through every
// parallelized solver at 2, 4 and 8 workers and demands the exact sequential
// answer each time. Solvers rotate across instances so the sweep stays fast
// enough for -race CI while every solver still sees hundreds of instances.
func TestParallelDeterminismSweep(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 100
	}
	solvers := parallelSolvers()
	r := rand.New(rand.NewSource(20260806))
	for i := 0; i < instances; i++ {
		in := randomInstance(r)
		ps := solvers[i%len(solvers)]
		seq, err := ps.build(1).Solve(in)
		if err != nil {
			t.Fatalf("instance %d %s sequential: %v", i, ps.name, err)
		}
		want := solutionFingerprint(seq)
		for _, w := range []int{2, 4, 8} {
			got, err := ps.build(w).Solve(in)
			if err != nil {
				t.Fatalf("instance %d %s workers=%d: %v", i, ps.name, w, err)
			}
			if key := solutionFingerprint(got); key != want {
				t.Fatalf("instance %d %s workers=%d diverged\nseq: %s\npar: %s", i, ps.name, w, want, key)
			}
		}
	}
}

// skewedBatch builds the adversarial load-balance shape: one huge tuple
// (every attribute set, the costliest to solve) buried among tiny ones, so a
// static split would pin all the work on one worker, while the shared cursor
// hands the tiny tuples to whichever workers are free.
func skewedBatch(r *rand.Rand) (*dataset.QueryLog, []bitvec.Vector, int) {
	width := 12
	schema := dataset.GenericSchema(width)
	log := dataset.NewQueryLog(schema)
	for i := 0; i < 40; i++ {
		q := bitvec.New(width)
		for q.Count() < 1+r.Intn(3) {
			q.Set(r.Intn(width))
		}
		log.Queries = append(log.Queries, q)
	}
	tuples := make([]bitvec.Vector, 33)
	for i := range tuples {
		tu := bitvec.New(width)
		if i == 7 {
			for j := 0; j < width; j++ {
				tu.Set(j) // the huge tuple: C(12, m) enumeration
			}
		} else {
			tu.Set(r.Intn(width))
			tu.Set(r.Intn(width))
		}
		tuples[i] = tu
	}
	return log, tuples, 3
}

// TestParallelDeterminismSkewedBatch runs the skewed batch through
// SolveBatchContext at several worker counts and checks every element
// against the 1-worker run.
func TestParallelDeterminismSkewedBatch(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	log, tuples, m := skewedBatch(r)
	for _, ps := range parallelSolvers() {
		seq, seqErrs, err := SolveBatchContext(context.Background(), ps.build(1), log, tuples, m, 1)
		if err != nil {
			t.Fatalf("%s sequential batch: %v", ps.name, err)
		}
		for i, e := range seqErrs {
			if e != nil {
				t.Fatalf("%s sequential tuple %d: %v", ps.name, i, e)
			}
		}
		for _, w := range []int{2, 4, 8} {
			got, gotErrs, err := SolveBatchContext(context.Background(), ps.build(w), log, tuples, m, w)
			if err != nil {
				t.Fatalf("%s workers=%d batch: %v", ps.name, w, err)
			}
			for i := range tuples {
				if gotErrs[i] != nil {
					t.Fatalf("%s workers=%d tuple %d: %v", ps.name, w, i, gotErrs[i])
				}
				if a, b := solutionFingerprint(got[i]), solutionFingerprint(seq[i]); a != b {
					t.Fatalf("%s workers=%d tuple %d diverged\nseq: %s\npar: %s", ps.name, w, i, b, a)
				}
			}
		}
	}
}

// TestParallelDeterminismMidSweepCancellation cancels a batch mid-flight and
// checks the partial results stay trustworthy: every tuple either carries a
// cancellation-rooted error, or was never attempted (zero value, nil error),
// or — when it did complete — matches the uncancelled sequential answer
// exactly. Cancellation may reorder *which* tuples finish, never *what* a
// finished tuple contains.
func TestParallelDeterminismMidSweepCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	log, tuples, m := skewedBatch(r)
	solver := BruteForce{Workers: 2}

	seq, seqErrs, err := SolveBatchContext(context.Background(), solver, log, tuples, m, 1)
	if err != nil {
		t.Fatalf("reference batch: %v", err)
	}
	for i, e := range seqErrs {
		if e != nil {
			t.Fatalf("reference tuple %d: %v", i, e)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var (
		out  []Solution
		errs []error
		berr error
	)
	go func() {
		defer close(done)
		out, errs, berr = SolveBatchContext(ctx, solver, log, tuples, m, 4)
	}()
	cancel() // races the batch start on purpose: any interleaving must hold up
	<-done

	if berr != nil && !errors.Is(berr, context.Canceled) {
		t.Fatalf("batch error = %v, want nil or context.Canceled", berr)
	}
	zero := Solution{}
	for i := range tuples {
		switch {
		case errs[i] != nil:
			if !errors.Is(errs[i], context.Canceled) {
				t.Fatalf("tuple %d error = %v, want context.Canceled chain", i, errs[i])
			}
		case solutionFingerprint(out[i]) == solutionFingerprint(zero):
			// Never attempted (or cancelled before scoring): fine.
		default:
			if a, b := solutionFingerprint(out[i]), solutionFingerprint(seq[i]); a != b {
				t.Fatalf("tuple %d completed with wrong answer\nseq: %s\ngot: %s", i, b, a)
			}
		}
	}
}

// TestBatchEmptyAndSingleSpawnNothing is the regression test for the batch
// normalization fix: an empty batch must return before any scheduler or
// preparation work (even with an absurd worker request), and a single-tuple
// batch must solve on the caller's goroutine. Both are observable through
// par's sequential guarantee — covered directly in internal/par — so here we
// pin the core-level contract: immediate return, aligned empty slices, and
// ctx error passthrough.
func TestBatchEmptyAndSingleSpawnNothing(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := randomInstance(r)

	out, errs, err := SolveBatchContext(context.Background(), BruteForce{}, in.Log, nil, in.M, 1<<20)
	if err != nil || len(out) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch: out=%d errs=%d err=%v, want 0/0/nil", len(out), len(errs), err)
	}

	// An already-cancelled context on an empty batch reports the ctx error
	// without touching the solver or spawning anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = SolveBatchContext(ctx, nil, in.Log, nil, in.M, 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled empty batch err = %v, want context.Canceled", err)
	}

	// Single tuple, many workers: must match the direct solve bit-for-bit.
	direct, err := BruteForce{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	out, errs, err = SolveBatchContext(context.Background(), BruteForce{}, in.Log, []bitvec.Vector{in.Tuple}, in.M, 8)
	if err != nil || errs[0] != nil {
		t.Fatalf("single-tuple batch: err=%v errs[0]=%v", err, errs[0])
	}
	if a, b := solutionFingerprint(out[0]), solutionFingerprint(direct); a != b {
		t.Fatalf("single-tuple batch diverged\ndirect: %s\nbatch:  %s", b, a)
	}
}
