package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/gen"
	"standout/internal/index"
)

// bitmapScales are the wide sparse schemas the sweep measures: attribute
// counts in the tens of thousands (text-derived keyword schemas), far past
// the point where a dense bitmap per attribute column is affordable. Each
// row of the result is one (M, S) scale.
var bitmapScales = []struct{ m, s int }{
	{10000, 20000},
	{20000, 24000},
	{40000, 24000},
}

// bitmapZipfExponent shapes the attribute popularity of the synthetic
// workload: weight(i) ∝ 1/(i+1)^s puts a handful of hot attributes in almost
// every query (those columns stay dense under Auto) over a long tail of
// attributes that appear a few times each (those compress).
const bitmapZipfExponent = 1.1

// BitmapSweep measures the compressed-bitmap backend on wide sparse
// schemas: per scale, the index memory footprint under ForceDense, Auto and
// ForceCompressed, and SatisfiedDropping scoring throughput dense vs Auto.
// Scores are bit-identical in every mode (the differential sweep pins
// that); this table records only the memory/speed trade, and generates
// BENCH_bitmap.json via `make bench-bitmap`.
func BitmapSweep(cfg Config) Result { return BitmapSweepContext(context.Background(), cfg) }

// BitmapSweepContext is BitmapSweep under a context; see All for
// cancellation semantics.
func BitmapSweepContext(ctx context.Context, cfg Config) Result {
	cfg = cfg.withDefaults()
	scales := bitmapScales
	if cfg.Quick {
		scales = []struct{ m, s int }{{10000, 2048}}
	}
	res := Result{
		Name:   "Bitmap",
		Title:  "Compressed-bitmap backend on wide sparse schemas: index memory and SatisfiedDropping throughput, dense vs per-column compression",
		XLabel: "schema", YLabel: "MiB / scores per second",
		Columns: []string{"dense MiB", "auto MiB", "forced MiB", "mem ratio", "dense scores/s", "auto scores/s", "speedup"},
	}

	for _, sc := range scales {
		row := Row{X: fmt.Sprintf("M=%d S=%d", sc.m, sc.s)}
		if ctx.Err() != nil {
			row.Values = []float64{Missing, Missing, Missing, Missing, Missing, Missing, Missing}
			res.Rows = append(res.Rows, row)
			continue
		}

		schema := dataset.GenericSchema(sc.m)
		attrW := make([]float64, sc.m)
		for i := range attrW {
			attrW[i] = 1 / math.Pow(float64(i+1), bitmapZipfExponent)
		}
		log := gen.SyntheticWorkload(schema, cfg.Seed+3, sc.s, gen.WorkloadOptions{AttrWeights: attrW})

		// Tuples are unions of a few log queries plus noise attributes, so
		// every tuple has a non-trivial candidate set to peel.
		rng := rand.New(rand.NewSource(cfg.Seed + 4))
		const ntuples = 24
		tuples := make([]bitvec.Vector, ntuples)
		drops := make([][]int, ntuples)
		for i := range tuples {
			t := bitvec.New(sc.m)
			for k := 0; k < 6; k++ {
				q := log.Queries[rng.Intn(sc.s)]
				for _, a := range q.Ones() {
					t.Set(a)
				}
			}
			for k := 0; k < 4; k++ {
				t.Set(rng.Intn(sc.m))
			}
			tuples[i] = t
			// Drop roughly half the tuple's attributes — the shape of one
			// solver score at budget m ≈ |t|/2.
			for j, a := range t.Ones() {
				if j%2 == 0 {
					drops[i] = append(drops[i], a)
				}
			}
		}

		build := func(mode index.Mode) (*index.Index, float64) {
			ix, err := index.BuildWith(log, index.Options{Mode: mode})
			if err != nil {
				return nil, Missing
			}
			return ix, float64(ix.Mem().Bytes) / (1 << 20)
		}
		throughput := func(ix *index.Index) float64 {
			cands := make([]bitvec.Bits, ntuples)
			for i, t := range tuples {
				cands[i] = ix.CandidateSet(t)
			}
			scratch := ix.NewScratch()
			rounds := 400
			if cfg.Quick {
				rounds = 50
			}
			// Warm-up pass, then the timed rounds.
			for i := range tuples {
				ix.SatisfiedDropping(cands[i], drops[i], scratch)
			}
			start := time.Now()
			ops := 0
			for r := 0; r < rounds && ctx.Err() == nil; r++ {
				for i := range tuples {
					ix.SatisfiedDropping(cands[i], drops[i], scratch)
					ops++
				}
			}
			secs := time.Since(start).Seconds()
			if ops == 0 || secs == 0 {
				return Missing
			}
			return float64(ops) / secs
		}

		dx, denseMiB := build(index.ForceDense)
		ax, autoMiB := build(index.Auto)
		_, forcedMiB := build(index.ForceCompressed)
		memRatio, denseTP, autoTP, speedup := Missing, Missing, Missing, Missing
		if dx != nil && ax != nil {
			memRatio = denseMiB / autoMiB
			denseTP = throughput(dx)
			autoTP = throughput(ax)
			if denseTP > 0 && autoTP > 0 {
				speedup = autoTP / denseTP
			}
		}
		row.Values = []float64{denseMiB, autoMiB, forcedMiB, memRatio, denseTP, autoTP, speedup}
		res.Rows = append(res.Rows, row)
	}
	noteInterrupted(ctx, &res)
	return res
}
