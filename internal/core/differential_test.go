package core

import (
	"context"
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/index"
)

// The differential sweep pins the index/caching layer to the pre-index
// semantics: on randomized small instances, every exact solver — direct,
// through a PreparedLog (index + memo), and under WithPrepared (index only)
// — must report the same optimal visibility count, and every greedy must
// return bit-identical solutions with and without the index. One instance of
// disagreement here means the fast path changed results, which the whole
// design forbids.

// assertValid checks the Solution invariants every path must uphold.
func assertValid(t *testing.T, in Instance, sol Solution, path string) {
	t.Helper()
	if !sol.Kept.SubsetOf(in.Tuple) {
		t.Fatalf("%s: kept %v not a subset of tuple %v", path, sol.Kept, in.Tuple)
	}
	if sol.Kept.Count() > in.M {
		t.Fatalf("%s: kept %d attrs, budget %d", path, sol.Kept.Count(), in.M)
	}
	if got := in.Log.Satisfied(sol.Kept); got != sol.Satisfied {
		t.Fatalf("%s: reported %d satisfied, recount %d", path, sol.Satisfied, got)
	}
}

func runDifferential(t *testing.T, in Instance) {
	t.Helper()
	p, err := PrepareLog(in.Log)
	if err != nil {
		t.Fatal(err)
	}
	// A second prep with every column and bucket force-compressed: the sweep
	// instances are far too small for Auto to compress anything, so this is
	// how the Roaring-backed scoring paths face the same 1000 instances.
	cp, err := PrepareLogWith(in.Log, index.Options{Mode: index.ForceCompressed})
	if err != nil {
		t.Fatal(err)
	}
	mfiPrep, err := MaxFreqItemSets{Backend: BackendExactDFS}.Preprocess(in.Log)
	if err != nil {
		t.Fatal(err)
	}
	prepCtx := WithPrepared(context.Background(), p)
	compCtx := WithPrepared(context.Background(), cp)

	want, err := BruteForce{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	assertValid(t, in, want, "BruteForce/direct")

	exact := map[string]Solver{
		"BruteForce": BruteForce{},
		"IP":         IP{},
		"ILP":        ILP{},
		"MFI-dfs":    MaxFreqItemSets{Backend: BackendExactDFS},
		"Prepared":   PreparedSolver{Prep: mfiPrep},
	}
	for name, s := range exact {
		direct, err := s.Solve(in)
		if err != nil {
			t.Fatalf("%s/direct: %v", name, err)
		}
		assertValid(t, in, direct, name+"/direct")
		if direct.Satisfied != want.Satisfied {
			t.Fatalf("%s/direct satisfied %d, BruteForce %d", name, direct.Satisfied, want.Satisfied)
		}

		indexed, err := s.SolveContext(prepCtx, in)
		if err != nil {
			t.Fatalf("%s/indexed: %v", name, err)
		}
		assertValid(t, in, indexed, name+"/indexed")
		if indexed.Satisfied != want.Satisfied {
			t.Fatalf("%s/indexed satisfied %d, BruteForce %d", name, indexed.Satisfied, want.Satisfied)
		}

		compressed, err := s.SolveContext(compCtx, in)
		if err != nil {
			t.Fatalf("%s/compressed: %v", name, err)
		}
		assertValid(t, in, compressed, name+"/compressed")
		if compressed.Satisfied != want.Satisfied {
			t.Fatalf("%s/compressed satisfied %d, BruteForce %d", name, compressed.Satisfied, want.Satisfied)
		}

		// Twice through the memoizing path: second call is a cache hit and
		// must still agree.
		for pass := 0; pass < 2; pass++ {
			memo, err := p.SolveContext(context.Background(), s, in.Tuple, in.M)
			if err != nil {
				t.Fatalf("%s/memo pass %d: %v", name, pass, err)
			}
			assertValid(t, in, memo, name+"/memo")
			if memo.Satisfied != want.Satisfied {
				t.Fatalf("%s/memo pass %d satisfied %d, BruteForce %d",
					name, pass, memo.Satisfied, want.Satisfied)
			}
		}
	}

	// Greedies are not optimal, but the indexed paths — dense and compressed
	// alike — must be bit-for-bit the same heuristic: identical kept set, not
	// just identical count.
	for name, s := range greedySolvers() {
		direct, err := s.Solve(in)
		if err != nil {
			t.Fatalf("%s/direct: %v", name, err)
		}
		for path, ctx := range map[string]context.Context{"indexed": prepCtx, "compressed": compCtx} {
			indexed, err := s.SolveContext(ctx, in)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, path, err)
			}
			assertValid(t, in, indexed, name+"/"+path)
			if direct.Satisfied != indexed.Satisfied || direct.Kept.String() != indexed.Kept.String() {
				t.Fatalf("%s/%s: direct (%d, %v) != %s (%d, %v)",
					name, path, direct.Satisfied, direct.Kept, path, indexed.Satisfied, indexed.Kept)
			}
		}
	}
}

func TestDifferentialSweep(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 100
	}
	r := rand.New(rand.NewSource(20080406))
	for trial := 0; trial < trials; trial++ {
		in := randomInstance(r)
		runDifferential(t, in)
	}
}

// TestDifferentialEdgeInstances covers the corners the random sweep reaches
// only by luck: empty logs, fully duplicated logs, all-ones tuples, budgets
// at or above the tuple size, and zero budgets.
func TestDifferentialEdgeInstances(t *testing.T) {
	width := 7
	schema := dataset.GenericSchema(width)

	mkLog := func(qs ...[]int) *dataset.QueryLog {
		log := dataset.NewQueryLog(schema)
		for _, q := range qs {
			if err := log.Append(bitvec.FromIndices(width, q...)); err != nil {
				t.Fatal(err)
			}
		}
		return log
	}
	allOnes := bitvec.New(width)
	for i := 0; i < width; i++ {
		allOnes.Set(i)
	}

	cases := map[string]Instance{
		"empty log": {Log: mkLog(), Tuple: bitvec.FromIndices(width, 0, 2, 4), M: 2},
		"duplicate queries": {
			Log:   mkLog([]int{1, 2}, []int{1, 2}, []int{1, 2}, []int{0}, []int{0}),
			Tuple: bitvec.FromIndices(width, 0, 1, 2), M: 2,
		},
		"all-ones tuple": {
			Log:   mkLog([]int{0, 6}, []int{3}, []int{2, 4, 5}),
			Tuple: allOnes, M: 3,
		},
		"budget equals tuple size": {
			Log:   mkLog([]int{0, 1}, []int{1, 3}),
			Tuple: bitvec.FromIndices(width, 0, 1, 3), M: 3,
		},
		"budget exceeds tuple size": {
			Log:   mkLog([]int{0, 1}, []int{1, 3}, []int{5}),
			Tuple: bitvec.FromIndices(width, 0, 1), M: width + 5,
		},
		"zero budget": {
			Log:   mkLog([]int{0}, []int{}),
			Tuple: bitvec.FromIndices(width, 0, 1), M: 0,
		},
		"empty tuple": {
			Log:   mkLog([]int{0}, []int{1, 2}),
			Tuple: bitvec.New(width), M: 2,
		},
		// Inside the tuple, but each query needs more attributes than the
		// budget keeps: MFI mines no budget row and falls back.
		"every query over budget": {
			Log:   mkLog([]int{0, 1, 2}, []int{1, 3, 4}, []int{0, 2, 3, 4}, []int{0, 1, 2}, []int{5, 6}),
			Tuple: bitvec.FromIndices(width, 0, 1, 2, 3, 4), M: 2,
		},
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { runDifferential(t, in) })
	}
}
