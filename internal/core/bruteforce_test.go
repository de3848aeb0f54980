package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/index"
	"standout/internal/obsv"
)

// FuzzBruteSearchAgrees holds BruteForce's local search bit-identical to
// its enumeration over a plain scan Counter run through SolveCounter: same
// kept set, count, optimality and candidates. The search runs over the
// instance's own state with no prep, with a one-segment prep in each index
// mode, and with a prep of several segments from a PrepareLogFrom chain,
// each at 1 and 3 workers. shape's bits make the log weighted (1), the
// tuple wider than 64 attributes (2), and every query longer than the
// budget (4), so that no query is a budget row. The seeds cover m = 0,
// m ≥ |t|, an empty log and each shape bit.
func FuzzBruteSearchAgrees(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(30), uint8(0), uint8(1))  // m = 0, weighted
	f.Add(int64(2), uint8(6), uint8(25), uint8(15), uint8(0)) // m ≥ |t|
	f.Add(int64(3), uint8(9), uint8(0), uint8(3), uint8(0))   // empty log
	f.Add(int64(4), uint8(10), uint8(35), uint8(3), uint8(4)) // no budget rows
	f.Add(int64(5), uint8(11), uint8(39), uint8(5), uint8(1)) // weighted, several segments
	f.Add(int64(6), uint8(7), uint8(30), uint8(2), uint8(3))  // |t| > 64, weighted
	f.Fuzz(func(t *testing.T, seed int64, width, nq, m, shape uint8) {
		weighted, wide, long := shape&1 != 0, shape&2 != 0, shape&4 != 0
		r := rand.New(rand.NewSource(seed))
		w := 2 + int(width%12)
		budget := int(m % 16)
		tuple := bitvec.New(w)
		if wide {
			// The reference enumerates C(|t|, m) candidates: keep m small
			// or at least |t|.
			w = 65 + int(width%20)
			tuple = bitvec.New(w).Not()
			if budget = int(m % 4); budget == 3 {
				budget = w + int(m%2)
			}
		} else {
			for j := 0; j < w; j++ {
				if r.Intn(3) != 0 {
					tuple.Set(j)
				}
			}
		}
		ones := tuple.Ones()
		log := dataset.NewQueryLog(dataset.GenericSchema(w))
		for i := 0; i < int(nq%40); i++ {
			k := r.Intn(4) // the empty query is in scope
			if long {
				k = budget + 1 + r.Intn(2)
			}
			query := bitvec.New(w)
			for query.Count() < min(k, w) {
				if len(ones) > 0 && r.Intn(4) != 0 {
					query.Set(ones[r.Intn(len(ones))])
				} else {
					query.Set(r.Intn(w))
				}
			}
			weight := 1
			if weighted {
				weight = 1 + r.Intn(5)
			}
			if err := log.AppendWeighted(query, weight); err != nil {
				t.Fatal(err)
			}
		}

		scan := partsCounter{parts: []*dataset.QueryLog{log}, preps: []*PreparedLog{nil}}
		want, err := SolveCounter(context.Background(), BruteForce{}, scan, tuple, budget)
		if err != nil {
			t.Fatal(err)
		}
		type variant struct {
			name string
			log  *dataset.QueryLog
			ctx  context.Context
		}
		variants := []variant{{"no prep", log, context.Background()}}
		for _, mode := range []index.Mode{index.Auto, index.ForceDense, index.ForceCompressed} {
			p, err := PrepareLogWith(log, index.Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, variant{"one segment", log, WithPrepared(context.Background(), p)})
		}
		p := segmentedPrep(t, r, log, index.Mode(r.Intn(3)))
		variants = append(variants, variant{"several segments", p.Log(), WithPrepared(context.Background(), p)})

		for _, v := range variants {
			for _, workers := range []int{1, 3} {
				in := Instance{Log: v.log, Tuple: tuple, M: budget}
				got, err := BruteForce{Workers: workers}.SolveContext(v.ctx, in)
				if err != nil {
					t.Fatalf("%s, %d workers: %v", v.name, workers, err)
				}
				if !got.Kept.Equal(want.Kept) || got.Satisfied != want.Satisfied ||
					got.Optimal != want.Optimal || got.Stats != want.Stats {
					t.Fatalf("%s, %d workers (w=%d |t|=%d m=%d shape=%d): (%s, %d, %v, %+v) != enumeration (%s, %d, %v, %+v)",
						v.name, workers, w, len(ones), budget, shape,
						got.Kept, got.Satisfied, got.Optimal, got.Stats,
						want.Kept, want.Satisfied, want.Optimal, want.Stats)
				}
			}
		}
	})
}

// segmentedPrep prepares full through a PrepareLogFrom chain of up to four
// generations in the given mode, with every compaction failing so that
// each appended chunk stays its own segment.
func segmentedPrep(t *testing.T, r *rand.Rand, full *dataset.QueryLog, mode index.Mode) *PreparedLog {
	t.Helper()
	ctx := fault.WithInjector(context.Background(), fault.New(1,
		fault.Rule{Site: "core.prep.compact", Kind: fault.KindError, Msg: "keep segments apart"}))
	n := full.Size()
	cur := dataset.NewQueryLog(full.Schema)
	i := r.Intn(n + 1)
	for qi := 0; qi < i; qi++ {
		if err := cur.AppendWeighted(full.Queries[qi], full.Weight(qi)); err != nil {
			t.Fatal(err)
		}
	}
	prep, err := PrepareLogContextWith(ctx, cur, index.Options{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	for chunks := 0; i < n; chunks++ {
		end := n
		if chunks < 2 {
			end = i + 1 + r.Intn(n-i)
		}
		next := cur.Extend()
		for ; i < end; i++ {
			if err := next.AppendWeighted(full.Queries[i], full.Weight(i)); err != nil {
				t.Fatal(err)
			}
		}
		if prep, err = PrepareLogFromContext(ctx, prep, next); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	return prep
}

// TestBruteScoredCounter pins the two brute-force trace counters on an
// instance where pruning bites: bruteforce.candidates is C(|t|, m), and
// bruteforce.scored, the leaves the local search scored, is fewer.
func TestBruteScoredCounter(t *testing.T) {
	const width = 20
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for i := 0; i < 30; i++ {
		if err := log.Append(bitvec.FromIndices(width, i%width, (i+1)%width)); err != nil {
			t.Fatal(err)
		}
	}
	tr := obsv.NewTrace()
	in := Instance{Log: log, Tuple: bitvec.New(width).Not(), M: 4}
	sol, err := BruteForce{}.SolveContext(obsv.WithTrace(context.Background(), tr), in)
	if err != nil {
		t.Fatal(err)
	}
	counters := tr.Snapshot().Counters
	if got := counters["bruteforce.candidates"]; got != 4845 || sol.Stats.Candidates != 4845 {
		t.Fatalf("bruteforce.candidates = %d, Stats.Candidates = %d, want C(20, 4) = 4845", got, sol.Stats.Candidates)
	}
	if got := counters["bruteforce.scored"]; got < 1 || got >= 4845 {
		t.Fatalf("bruteforce.scored = %d, want 1..4844", got)
	}
}

// lateErrCtx is a context cancelled before the solve starts whose Err
// reports it only from the second call on, as when the cancellation lands
// between the solve's entry check and its search.
type lateErrCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *lateErrCtx) Done() <-chan struct{} {
	done := make(chan struct{})
	close(done)
	return done
}

func (c *lateErrCtx) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestBruteShardsCancelledBeforeSearch: when a cancellation makes the
// parallel search skip its shards, the solve returns the cancellation, not
// the best of the shards that ran (here none).
func TestBruteShardsCancelledBeforeSearch(t *testing.T) {
	const width = 8
	log := dataset.NewQueryLog(dataset.GenericSchema(width))
	for i := 0; i < 20; i++ {
		if err := log.Append(bitvec.FromIndices(width, i%width, (i*3+1)%width)); err != nil {
			t.Fatal(err)
		}
	}
	in := Instance{Log: log, Tuple: bitvec.New(width).Not(), M: 3}
	_, err := BruteForce{Workers: 3}.SolveContext(&lateErrCtx{Context: context.Background()}, in)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCombinationsSaturates checks C(n, k) near the int64 limit: exact just
// below it, math.MaxInt above it, and no overflow on the way.
func TestCombinationsSaturates(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{0, 0, 1},
		{5, 0, 1},
		{40, 12, 5586853480},
		{66, 33, 7219428434016265740},
		{67, 33, math.MaxInt}, // 14226520737620288370
		{200, 100, math.MaxInt},
		{1000, 3, 166167000},
	} {
		if got := combinations(tc.n, tc.k, math.MaxInt); got != tc.want {
			t.Errorf("C(%d, %d) = %d, want %d", tc.n, tc.k, got, tc.want)
		}
	}
	if got := combinations(24, 5, bruteBatch); got != bruteBatch {
		t.Errorf("C(24, 5) capped at %d = %d", bruteBatch, got)
	}
}
