package core

import (
	"context"
	"math/rand"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
)

// partsCounter is a Counter over disjoint parts of a log: each call sums
// CountSatisfied or CountContaining over the parts, each part answered
// through its own prep when one is set — the shape of a sharded deployment.
type partsCounter struct {
	parts []*dataset.QueryLog
	preps []*PreparedLog // nil entries scan their part
}

func (p partsCounter) Satisfied(ctx context.Context, cands []bitvec.Vector) ([]int, error) {
	return p.sum(ctx, cands, CountSatisfied)
}

func (p partsCounter) Containing(ctx context.Context, cands []bitvec.Vector) ([]int, error) {
	return p.sum(ctx, cands, CountContaining)
}

func (p partsCounter) sum(ctx context.Context, cands []bitvec.Vector,
	count func(context.Context, *dataset.QueryLog, []bitvec.Vector) ([]int, error)) ([]int, error) {
	out := make([]int, len(cands))
	for i, part := range p.parts {
		pctx := ctx
		if p.preps[i] != nil {
			pctx = WithPrepared(ctx, p.preps[i])
		}
		counts, err := count(pctx, part, cands)
		if err != nil {
			return nil, err
		}
		for ci, n := range counts {
			out[ci] += n
		}
	}
	return out, nil
}

// FuzzSolveCounterAdditive pins the Counter contract: a random weighted log
// split into 1–4 parts (query i goes to part i mod k) is counted exactly by
// summing the parts, so SolveCounter over that sum equals SolveContext on
// the whole log — same kept set, count, optimality and candidates — for
// every counting solver, with and without each part's prep. The committed
// corpus covers m = 0, m ≥ |t|, an empty log, and a brute enumeration of
// more than one Satisfied batch.
func FuzzSolveCounterAdditive(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, width, nq, parts, m uint8, full bool) {
		w := int(width%11) + 2 // 2..12 attributes
		q := int(nq % 24)      // 0..23 queries: the empty log is in scope
		k := int(parts%4) + 1  // 1..4 parts
		budget := int(m % 14)
		r := rand.New(rand.NewSource(seed))
		log := dataset.NewQueryLog(dataset.GenericSchema(w))
		for i := 0; i < q; i++ {
			query := bitvec.New(w)
			for n := 1 + r.Intn(3); query.Count() < n && query.Count() < w; {
				query.Set(r.Intn(w))
			}
			if err := log.AppendWeighted(query, 1+r.Intn(3)); err != nil {
				t.Fatal(err)
			}
		}
		tuple := bitvec.New(w)
		for j := 0; j < w; j++ {
			if full || r.Intn(2) == 0 {
				tuple.Set(j)
			}
		}
		split := make([]*dataset.QueryLog, k)
		for i := range split {
			split[i] = dataset.NewQueryLog(log.Schema)
		}
		for qi, query := range log.Queries {
			if err := split[qi%k].AppendWeighted(query, log.Weight(qi)); err != nil {
				t.Fatal(err)
			}
		}
		scan := partsCounter{parts: split, preps: make([]*PreparedLog, k)}
		indexed := partsCounter{parts: split, preps: make([]*PreparedLog, k)}
		for i, part := range split {
			p, err := PrepareLog(part)
			if err != nil {
				t.Fatal(err)
			}
			indexed.preps[i] = p
		}

		in := Instance{Log: log, Tuple: tuple, M: budget}
		for _, s := range []Solver{BruteForce{}, ConsumeAttr{}, ConsumeAttrCumul{}} {
			want, err := s.SolveContext(context.Background(), in)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			for _, c := range []partsCounter{scan, indexed} {
				got, err := SolveCounter(context.Background(), s, c, tuple, budget)
				if err != nil {
					t.Fatalf("%s over %d parts: %v", s.Name(), k, err)
				}
				if !got.Kept.Equal(want.Kept) || got.Satisfied != want.Satisfied ||
					got.Optimal != want.Optimal || got.Stats.Candidates != want.Stats.Candidates {
					t.Fatalf("%s over %d parts (w=%d q=%d m=%d): (%s, %d, %v, %d) != whole log (%s, %d, %v, %d)",
						s.Name(), k, w, q, budget,
						got.Kept, got.Satisfied, got.Optimal, got.Stats.Candidates,
						want.Kept, want.Satisfied, want.Optimal, want.Stats.Candidates)
				}
			}
		}
	})
}
