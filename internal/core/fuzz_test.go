package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// FuzzExactSolversAgree derives a small instance from the fuzz inputs and
// cross-checks every exact solver against brute force. Run with
// `go test -fuzz FuzzExactSolversAgree ./internal/core` to explore; the seed
// corpus runs in ordinary `go test`.
func FuzzExactSolversAgree(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(6), uint8(2))
	f.Add(int64(2), uint8(8), uint8(15), uint8(4))
	f.Add(int64(99), uint8(4), uint8(1), uint8(0))
	f.Add(int64(7), uint8(10), uint8(20), uint8(10))
	f.Fuzz(func(t *testing.T, seed int64, width, nq, m uint8) {
		w := int(width%10) + 2 // 2..11 attributes
		q := int(nq%20) + 1    // 1..20 queries
		budget := int(m % 12)  // 0..11
		r := rand.New(rand.NewSource(seed))
		log := dataset.NewQueryLog(dataset.GenericSchema(w))
		for i := 0; i < q; i++ {
			query := bitvec.New(w)
			k := 1 + r.Intn(3)
			if k > w {
				k = w // a query can demand at most every attribute
			}
			for query.Count() < k {
				query.Set(r.Intn(w))
			}
			log.Queries = append(log.Queries, query)
		}
		tuple := bitvec.New(w)
		for j := 0; j < w; j++ {
			if r.Intn(2) == 0 {
				tuple.Set(j)
			}
		}
		in := Instance{Log: log, Tuple: tuple, M: budget}
		want, err := BruteForce{}.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		done, cancel := context.WithCancel(context.Background())
		cancel()
		for _, s := range []Solver{
			ILP{},
			MaxFreqItemSets{Backend: BackendExactDFS},
			MaxFreqItemSets{Backend: BackendTwoPhaseWalk},
		} {
			sol, err := s.Solve(in)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if sol.Satisfied != want.Satisfied {
				t.Fatalf("%s: %d != brute %d (w=%d q=%d m=%d seed=%d)",
					s.Name(), sol.Satisfied, want.Satisfied, w, q, budget, seed)
			}
			if !sol.Kept.SubsetOf(tuple) || sol.Kept.Count() > budget {
				t.Fatalf("%s: invalid solution", s.Name())
			}
			// Context contract, on the same fuzzed instance: a background
			// context changes nothing, a cancelled one returns its error
			// without panicking or producing a solution.
			ctxSol, err := s.SolveContext(context.Background(), in)
			if err != nil || !reflect.DeepEqual(sol, ctxSol) {
				t.Fatalf("%s: SolveContext(background)=%+v/%v diverges from Solve=%+v",
					s.Name(), ctxSol, err, sol)
			}
			if _, err := s.SolveContext(done, in); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled SolveContext err=%v, want context.Canceled", s.Name(), err)
			}
		}
	})
}

// FuzzIndexedSolveAgrees derives an instance from the fuzz inputs, prepares
// the log, and asserts the indexed/memoized paths agree with the direct scan
// path. The seed corpus stresses the index's corners: an empty log, heavy
// query duplication, an all-ones tuple, and budgets at or above popcount(t).
func FuzzIndexedSolveAgrees(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(0), uint8(2), uint8(0))  // empty log
	f.Add(int64(2), uint8(6), uint8(12), uint8(3), uint8(1)) // duplicate queries
	f.Add(int64(3), uint8(7), uint8(9), uint8(4), uint8(2))  // all-ones tuple
	f.Add(int64(4), uint8(5), uint8(8), uint8(15), uint8(3)) // m ≥ popcount(t)
	f.Fuzz(func(t *testing.T, seed int64, width, nq, m, mode uint8) {
		w := int(width%10) + 2
		q := int(nq % 20) // 0..19: the empty log is in scope here
		budget := int(m % 14)
		r := rand.New(rand.NewSource(seed))
		log := dataset.NewQueryLog(dataset.GenericSchema(w))
		var base bitvec.Vector
		for i := 0; i < q; i++ {
			if mode%4 == 1 && i > 0 && base.Width() == w {
				// Duplicate-heavy log: most queries repeat the first.
				if r.Intn(4) != 0 {
					log.Queries = append(log.Queries, base.Clone())
					continue
				}
			}
			query := bitvec.New(w)
			k := min(1+r.Intn(3), w) // a query can demand at most every attribute
			for query.Count() < k {
				query.Set(r.Intn(w))
			}
			if i == 0 {
				base = query
			}
			log.Queries = append(log.Queries, query)
		}
		tuple := bitvec.New(w)
		if mode%4 == 2 {
			for j := 0; j < w; j++ {
				tuple.Set(j)
			}
		} else {
			for j := 0; j < w; j++ {
				if r.Intn(2) == 0 {
					tuple.Set(j)
				}
			}
		}
		if mode%4 == 3 {
			budget = tuple.Count() + r.Intn(3) // at or above popcount(t)
		}
		in := Instance{Log: log, Tuple: tuple, M: budget}

		p, err := PrepareLog(log)
		if err != nil {
			t.Fatal(err)
		}
		prepCtx := WithPrepared(context.Background(), p)
		for _, s := range []Solver{BruteForce{}, ConsumeAttr{}, ConsumeAttrCumul{}, ConsumeQueries{}} {
			direct, err := s.Solve(in)
			if err != nil {
				t.Fatalf("%s/direct: %v", s.Name(), err)
			}
			indexed, err := s.SolveContext(prepCtx, in)
			if err != nil {
				t.Fatalf("%s/indexed: %v", s.Name(), err)
			}
			if direct.Satisfied != indexed.Satisfied || direct.Kept.String() != indexed.Kept.String() {
				t.Fatalf("%s: direct (%d, %v) != indexed (%d, %v)",
					s.Name(), direct.Satisfied, direct.Kept, indexed.Satisfied, indexed.Kept)
			}
			for pass := 0; pass < 2; pass++ { // second pass is a memo hit
				memo, err := p.SolveContext(context.Background(), s, tuple, budget)
				if err != nil {
					t.Fatalf("%s/memo: %v", s.Name(), err)
				}
				if memo.Satisfied != direct.Satisfied || memo.Kept.String() != direct.Kept.String() {
					t.Fatalf("%s/memo pass %d: (%d, %v) != direct (%d, %v)",
						s.Name(), pass, memo.Satisfied, memo.Kept, direct.Satisfied, direct.Kept)
				}
			}
		}
	})
}
