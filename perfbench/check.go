package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
)

// The answer check recounts every answer from outside the program: queries
// become uint64 masks built from their 0/1 strings, and a compression's
// count is the weight of the queries it contains. The library's counting
// code is not used, so a counting bug cannot vouch for itself.

func maskOf(v bitvec.Vector) uint64 {
	var m uint64
	for j, c := range v.String() {
		if c == '1' {
			m |= 1 << uint(j)
		}
	}
	return m
}

// recounter holds a log as masks and weights.
type recounter struct {
	qs    []uint64
	ws    []int
	total int
}

func newRecounter(log *dataset.QueryLog) *recounter {
	r := &recounter{qs: make([]uint64, log.Size()), ws: make([]int, log.Size())}
	for i, q := range log.Queries {
		r.qs[i] = maskOf(q)
		r.ws[i] = log.Weight(i)
		r.total += r.ws[i]
	}
	return r
}

func (r *recounter) count(kept uint64) int {
	n := 0
	for i, q := range r.qs {
		if q&^kept == 0 {
			n += r.ws[i]
		}
	}
	return n
}

// solverFor maps a request's algo to the core solver serve and the
// coordinator run for it at default settings.
func solverFor(algo string) core.Solver {
	switch algo {
	case "greedy":
		return core.ConsumeAttrCumul{}
	case "consumeattr":
		return core.ConsumeAttr{}
	case "estimate":
		return core.Estimate{}
	case "brute":
		return core.BruteForce{}
	case "mfi-exact":
		return core.MaxFreqItemSets{Backend: core.BackendExactDFS}
	}
	panic("perfbench: no solver for algo " + algo) // workloads name only the algos above
}

// verdict is the outcome of checking one deployment's answers.
type verdict struct {
	attempted, failed, wrong int
	answered                 int
	visSum                   float64
	examples                 []string // the first few mismatches, for the report
	// replay holds the duration of each direct PreparedLog solve the check
	// made (one per distinct key), in ms.
	replay []float64
}

func (v *verdict) merge(o verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	v.wrong += o.wrong
	v.answered += o.answered
	v.visSum += o.visSum
	v.replay = append(v.replay, o.replay...)
	for _, e := range o.examples {
		if len(v.examples) < 5 {
			v.examples = append(v.examples, e)
		}
	}
}

func (v *verdict) flag(format string, args ...any) {
	if len(v.examples) < 5 {
		v.examples = append(v.examples, fmt.Sprintf(format, args...))
	}
}

// reference answers the deterministic-solver comparison: the answer a
// direct core solve gives for a key. It is nil on ingest-mixed, whose log
// moves under its solves.
type reference func(k key) (sol core.Solution, ok bool)

// checkAnswers checks the outcomes of one deployment, whose start-up log is
// log. Outcomes with index < measured are warm-up: checked, but not counted
// as attempted.
func checkAnswers(in *inputs, log *dataset.QueryLog, outs []outcome, measured int, ref reference) verdict {
	var v verdict
	base := newRecounter(log)
	// order[g] is the chunk the (g+1)-th applied append added.
	var order []int
	for _, o := range outs {
		if in.seq[o.op].kind == opAppend && o.err == "" {
			g := (o.rep.Queries - log.Size()) / appendBatch
			for len(order) < g {
				order = append(order, -1)
			}
			order[g-1] = in.seq[o.op].chunk
		}
	}
	chunkMasks := make([][]uint64, len(order))
	for g, c := range order {
		if c < 0 {
			continue
		}
		for _, q := range in.appends[c] {
			chunkMasks[g] = append(chunkMasks[g], maskOf(q))
		}
	}
	// countAt returns the recount at generations lo and hi (appends
	// applied) and the total weight at lo.
	countAt := func(kept uint64, lo, hi int) (cLo, cHi, tLo int) {
		c, t := base.count(kept), base.total
		cLo, tLo = c, t
		for g := 0; g < hi && g < len(chunkMasks); g++ {
			for _, q := range chunkMasks[g] {
				if q&^kept == 0 {
					c++
				}
				t++
			}
			if g+1 == lo {
				cLo, tLo = c, t
			}
		}
		return cLo, c, tLo
	}

	for idx, o := range outs {
		counted := idx >= measured
		if counted {
			v.attempted++
		}
		fail := func(format string, args ...any) {
			if counted {
				v.failed++
			}
			v.flag("op %d: "+format, append([]any{o.op}, args...)...)
		}
		if o.err != "" {
			fail("%s", o.err)
			continue
		}
		op := in.seq[o.op]
		if op.kind != opSolve {
			continue
		}
		wrong := func(format string, args ...any) {
			v.wrong++
			fail(format, args...)
		}
		r := o.rep
		kept, err := bitvec.FromString(r.KeptBits)
		tuple := in.tuples[op.tuple]
		if err != nil || kept.Width() != tuple.Width() || kept.Width() > 64 {
			wrong("unreadable kept bits %q", r.KeptBits)
			continue
		}
		if !kept.SubsetOf(tuple) || kept.Count() > op.m {
			wrong("kept %s is not a subset of tuple %s with at most %d attributes", r.KeptBits, tuple, op.m)
			continue
		}
		lo, hi, total := countAt(maskOf(kept), o.genLo, o.genHi)
		if counted {
			v.answered++
			v.visSum += float64(lo) / float64(total)
		}
		if r.Estimated {
			elo, ehi := r.interval()
			if hi < elo || lo > ehi {
				wrong("estimated interval [%d,%d] misses recount [%d,%d]", elo, ehi, lo, hi)
				continue
			}
		} else if r.Satisfied < lo || r.Satisfied > hi {
			wrong("satisfied %d, recount [%d,%d] (generations %d..%d)", r.Satisfied, lo, hi, o.genLo, o.genHi)
			continue
		}
		if r.Partial || r.Degraded {
			fail("partial=%v degraded=%v solver=%s", r.Partial, r.Degraded, r.Solver)
			continue
		}
		if ref == nil {
			continue
		}
		if want, ok := ref(op.key()); ok && (!want.Kept.Equal(kept) || want.Satisfied != r.Satisfied) {
			wrong("%s m=%d: got %s/%d, direct core solve %s/%d", op.algo, op.m, r.KeptBits, r.Satisfied, want.Kept, want.Satisfied)
		}
	}
	return v
}

// directSolves solves every distinct key of the outcomes directly on a
// PreparedLog of log, with clients goroutines, and returns the answers and
// each solve's duration in ms.
func directSolves(ctx context.Context, in *inputs, log *dataset.QueryLog, outs []outcome) (map[key]core.Solution, []float64, error) {
	p, err := core.PrepareLog(log)
	if err != nil {
		return nil, nil, fmt.Errorf("prepare reference log: %w", err)
	}
	seen := map[key]bool{}
	var keys []key
	for _, o := range outs {
		if op := in.seq[o.op]; op.kind == opSolve && !seen[op.key()] {
			seen[op.key()] = true
			keys = append(keys, op.key())
		}
	}
	sols := make([]core.Solution, len(keys))
	durs := make([]float64, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(keys); i += clients {
				k := keys[i]
				t0 := time.Now()
				sols[i], errs[i] = p.SolveContext(ctx, solverFor(k.algo), in.tuples[k.tuple], k.m)
				durs[i] = float64(time.Since(t0)) / 1e6
			}
		}(c)
	}
	wg.Wait()
	out := make(map[key]core.Solution, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, nil, fmt.Errorf("direct solve %v: %w", k, errs[i])
		}
		out[k] = sols[i]
	}
	return out, durs, nil
}
