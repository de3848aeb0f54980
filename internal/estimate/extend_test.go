package estimate_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/estimate"
)

// scanSupport is the reference support oracle for Extend: each candidate's
// weighted support on log, by scanning it.
func scanSupport(log *dataset.QueryLog) func(context.Context, []bitvec.Vector) ([]int, error) {
	return func(_ context.Context, cands []bitvec.Vector) ([]int, error) {
		out := make([]int, len(cands))
		for i, c := range cands {
			for qi, q := range log.Queries {
				if c.SubsetOf(q) {
					out[i] += log.Weight(qi)
				}
			}
		}
		return out, nil
	}
}

// extendChain builds base, then appends each chunk as a new Extend
// generation, checking at every step that the model derived from the
// previous generation's equals a fresh Build of the new log.
func extendChain(t *testing.T, base *dataset.QueryLog, chunks [][]weighted, opts estimate.Options) {
	t.Helper()
	m, err := estimate.Build(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	log := base
	for k, chunk := range chunks {
		next := log.Extend()
		for _, q := range chunk {
			if err := next.AppendWeighted(q.q, q.w); err != nil {
				t.Fatal(err)
			}
		}
		got, err := m.Extend(context.Background(), next.Window(log.Size(), next.Size()), scanSupport(next))
		if err != nil {
			t.Fatalf("append %d: %v", k, err)
		}
		want, err := estimate.Build(next, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("append %d (opts %+v, %d→%d queries, total %d): derived model differs from Build: %d vs %d itemsets",
				k, opts, log.Size(), next.Size(), next.TotalWeight(), got.Itemsets(), want.Itemsets())
		}
		log, m = next, got
	}
}

type weighted struct {
	q bitvec.Vector
	w int
}

// randomQueries draws n queries over width attributes, each of 1–maxLen
// attributes skewed toward the low indices, with weights 1..maxW; about a
// quarter repeat an earlier query of the same draw.
func randomQueries(r *rand.Rand, width, n, maxLen, maxW int) []weighted {
	out := make([]weighted, 0, n)
	for len(out) < n {
		if len(out) > 0 && r.Intn(4) == 0 {
			out = append(out, weighted{out[r.Intn(len(out))].q, 1 + r.Intn(maxW)})
			continue
		}
		q := bitvec.New(width)
		for k := 1 + r.Intn(maxLen); k > 0; k-- {
			q.Set(r.Intn(1+r.Intn(width)) % width)
		}
		out = append(out, weighted{q, 1 + r.Intn(maxW)})
	}
	return out
}

// TestExtendMatchesBuild derives chains of generations over random weighted
// logs — default and explicit MinSupport, MaxItemset 1–4, appends heavy
// enough that total/256 crosses steps, and a schema wider than the pair
// matrix covers — and pins each derived model to Build.
func TestExtendMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		width := []int{6, 10, 16, 600}[trial%4]
		base := dataset.NewQueryLog(dataset.GenericSchema(width))
		for _, q := range randomQueries(r, width, 20+r.Intn(120), 6, 1+r.Intn(40)) {
			if err := base.AppendWeighted(q.q, q.w); err != nil {
				t.Fatal(err)
			}
		}
		opts := estimate.Options{MaxItemset: 1 + trial%4}
		if trial%3 == 0 {
			opts.MinSupport = 1 + r.Intn(6)
		}
		chunks := make([][]weighted, 6)
		for i := range chunks {
			chunks[i] = randomQueries(r, width, 1+r.Intn(12), 8, 1+r.Intn(200))
		}
		extendChain(t, base, chunks, opts)
	}
}

// TestExtendEmptyBase starts a chain from an empty log, whose model stores
// nothing and whose threshold is the floor of 2.
func TestExtendEmptyBase(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	base := dataset.NewQueryLog(dataset.GenericSchema(8))
	chunks := [][]weighted{nil, randomQueries(r, 8, 5, 4, 3), randomQueries(r, 8, 40, 4, 30)}
	extendChain(t, base, chunks, estimate.Options{})
}

func TestExtendRefuses(t *testing.T) {
	log := smallLog(t)
	m, err := estimate.Build(log, estimate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	delta := dataset.NewQueryLog(log.Schema)
	if err := delta.AppendWeighted(bitvec.FromIndices(8, 0, 1, 2), 300); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	nm, err := estimate.NewModel(8, log.TotalWeight(), log.AttrFrequencies(), nil, estimate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nm.Extend(ctx, delta, scanSupport(log)); err == nil || !strings.Contains(err.Error(), "certificate") {
		t.Fatalf("NewModel extended: err = %v", err)
	}
	wide := dataset.NewQueryLog(dataset.GenericSchema(9))
	if _, err := m.Extend(ctx, wide, scanSupport(wide)); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("width mismatch: err = %v", err)
	}
	bad := dataset.NewQueryLog(log.Schema)
	bad.Queries = []bitvec.Vector{bitvec.New(8)}
	bad.Weights = []int{0}
	if _, err := m.Extend(ctx, bad, scanSupport(bad)); err == nil {
		t.Fatal("invalid delta accepted")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := m.Extend(cancelled, delta, scanSupport(log)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled extend: err = %v", err)
	}
	boom := errors.New("oracle down")
	if _, err := m.Extend(ctx, delta, func(context.Context, []bitvec.Vector) ([]int, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("oracle failure: err = %v", err)
	}
	if _, err := m.Extend(ctx, delta, func(context.Context, []bitvec.Vector) ([]int, error) { return nil, nil }); err == nil {
		t.Fatal("short oracle answer accepted")
	}
}

// FuzzExtendMatchesBuild fuzzes the derivation's one promise: a model
// extended generation by generation equals Build on each new log. data
// encodes queries as 3-byte records — two mask bytes and a weight byte
// (weights 1..256, so a few records push total/256 across a step) — and the
// first nbase records form the base log; the rest arrive in appends of
// 1 + chunk%5 records. minSup 0 selects the default threshold. The
// committed corpus (testdata/fuzz) seeds duplicates, empty and wide queries,
// appends to an empty base, and threshold steps.
func FuzzExtendMatchesBuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, width, minSup, maxItemset, nbase, chunk uint8, data []byte) {
		w := 1 + int(width%12)
		schema := dataset.GenericSchema(w)
		var qs []weighted
		for i := 0; i+2 < len(data) && len(qs) < 64; i += 3 {
			mask := (int(data[i]) | int(data[i+1])<<8) % (1 << w)
			q := bitvec.New(w)
			for j := 0; j < w; j++ {
				if mask&(1<<j) != 0 {
					q.Set(j)
				}
			}
			qs = append(qs, weighted{q, 1 + int(data[i+2])})
		}
		nb := int(nbase) % (len(qs) + 1)
		base := dataset.NewQueryLog(schema)
		for _, q := range qs[:nb] {
			if err := base.AppendWeighted(q.q, q.w); err != nil {
				t.Fatal(err)
			}
		}
		var chunks [][]weighted
		for rest, size := qs[nb:], 1+int(chunk%5); len(rest) > 0; {
			n := min(size, len(rest))
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		opts := estimate.Options{MaxItemset: 1 + int(maxItemset%4), MinSupport: int(minSup % 8)}
		extendChain(t, base, chunks, opts)
	})
}
