package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/compact"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/estimate"
	"standout/internal/gen"
	"standout/internal/shard"
)

// quickRun runs one workload in quick mode and returns its result and
// report.
func quickRun(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	var report bytes.Buffer
	cfg := config{workload: workload, seed: 7, seconds: 1, trace: trace, quick: true, out: t.TempDir(), commit: "test"}
	res, err := run(context.Background(), cfg, &report)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res, report.String()
}

func TestEveryMetricPrintsWithUnit(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, report := quickRun(t, w.name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, report)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}
			// The report names every end-to-end metric with its unit and
			// sample count, and the append latencies where appends run.
			lines := []string{"error_rate"}
			for _, d := range endToEnd {
				lines = append(lines, d.Name)
			}
			if w.name == "ingest-mixed" {
				lines = append(lines, "append_p50_ms", "append_p99_ms")
			}
			for _, name := range lines {
				if !strings.Contains(report, "metric "+name+" ") || !strings.Contains(report, "n=") {
					t.Errorf("%s trace=%v: report lacks metric %s:\n%s", w.name, trace, name, report)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the metrics the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n got %+v\nwant %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n got %+v\nwant %+v", bj.PerLayer, perLayer)
	}
	for i, w := range workloads {
		if i >= len(bj.Workloads) || bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json lists %+v, program has %s", i, bj.Workloads, w.name)
		}
	}
}

// corruptHooks alter one count of one shard's Subset answers.
type corruptHooks struct{ *tracer }

func (corruptHooks) backend(b shard.Backend) shard.Backend {
	if b.ID() != "s0" {
		return b
	}
	return offByOne{b}
}

type offByOne struct{ shard.Backend }

func (o offByOne) Score(ctx context.Context, mode shard.Mode, cands []bitvec.Vector) ([]int, error) {
	counts, err := o.Backend.Score(ctx, mode, cands)
	if err == nil && mode == shard.Subset && len(counts) > 0 {
		counts[len(counts)-1]++
	}
	return counts, err
}

// shardCheck drives quick shard-fanout ops through a deployment built with
// h and returns the outside check's verdict.
func shardCheck(t *testing.T, h hooks) verdict {
	t.Helper()
	ctx := context.Background()
	w, _ := specFor("shard-fanout")
	w = w.quick()
	in := makeInputs(w, 3, 96)
	log, _ := compact.Compact(in.raw)
	d, err := redeploy(ctx, w, log, h)
	if err != nil {
		t.Fatal(err)
	}
	dr := newDriver(in, d, time.Now(), nil)
	outs := dr.run(ctx, 0, len(in.seq))
	dr.close()
	d.close()
	sols, _, err := directSolves(ctx, in, log, outs)
	if err != nil {
		t.Fatal(err)
	}
	return checkAnswers(in, log, outs, 0, func(k key) (core.Solution, bool) {
		s, ok := sols[k]
		return s, ok
	})
}

func TestCheckRejectsCorruptedBackend(t *testing.T) {
	if v := shardCheck(t, (*tracer)(nil)); v.wrong != 0 || v.failed != 0 {
		t.Fatalf("honest deployment: %d wrong, %d failed: %v", v.wrong, v.failed, v.examples)
	}
	v := shardCheck(t, corruptHooks{})
	if v.wrong == 0 {
		t.Fatalf("a backend adding one to a count went unnoticed over %d answers", v.answered)
	}
	t.Logf("%d of %d answers rejected, e.g. %s", v.wrong, v.attempted, v.examples[0])
}

func TestCheckRejectsKeptOutsideTuple(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b", "c", "d"})
	log := dataset.NewQueryLog(schema)
	for _, q := range []string{"1100", "1000", "0011"} {
		v, _ := bitvec.FromString(q)
		if err := log.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	tuple, _ := bitvec.FromString("1101")
	in := &inputs{tuples: []bitvec.Vector{tuple}, seq: []op{{kind: opSolve, m: 2, algo: "greedy"}}}
	for _, c := range []struct {
		kept      string
		satisfied int
		wrong     int
	}{
		{"1100", 2, 0}, // a correct answer
		{"1100", 3, 1}, // a wrong count
		{"1010", 1, 1}, // c is not in the tuple
		{"1101", 2, 1}, // three attributes for m=2
	} {
		outs := []outcome{{op: 0, rep: reply{KeptBits: c.kept, Satisfied: c.satisfied}}}
		if v := checkAnswers(in, log, outs, 0, nil); v.wrong != c.wrong {
			t.Errorf("kept %s satisfied %d: %d wrong, want %d (%v)", c.kept, c.satisfied, v.wrong, c.wrong, v.examples)
		}
	}
}

func TestCheckBracketsGrowingLog(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b"})
	log := dataset.NewQueryLog(schema)
	q, _ := bitvec.FromString("10")
	if err := log.Append(q); err != nil {
		t.Fatal(err)
	}
	tuple, _ := bitvec.FromString("11")
	chunk := make([]bitvec.Vector, appendBatch)
	for i := range chunk {
		chunk[i] = q
	}
	in := &inputs{
		tuples:  []bitvec.Vector{tuple},
		appends: [][]bitvec.Vector{chunk},
		seq:     []op{{kind: opSolve, m: 1, algo: "greedy"}, {kind: opAppend}},
	}
	appendOut := outcome{op: 1, rep: reply{Queries: 1 + appendBatch}}
	// A solve overlapping the append may see 1 or 1+appendBatch queries.
	for _, c := range []struct {
		satisfied, genLo, genHi, wrong int
	}{
		{1, 0, 1, 0}, {1 + appendBatch, 0, 1, 0}, {1 + appendBatch, 0, 0, 1}, {1, 1, 1, 1}, {5, 0, 1, 0},
	} {
		outs := []outcome{{op: 0, rep: reply{KeptBits: "10", Satisfied: c.satisfied}, genLo: c.genLo, genHi: c.genHi}, appendOut}
		if v := checkAnswers(in, log, outs, 0, nil); v.wrong != c.wrong {
			t.Errorf("%+v: %d wrong (%v)", c, v.wrong, v.examples)
		}
	}
}

func TestSpansNest(t *testing.T) {
	ctx := context.Background()
	w, _ := specFor("shard-fanout")
	w = w.quick()
	in := makeInputs(w, 5, 32)
	log, _ := compact.Compact(in.raw)
	tr := newTracer(time.Now())
	d, err := redeploy(ctx, w, log, tr)
	if err != nil {
		t.Fatal(err)
	}
	dr := newDriver(in, d, tr.epoch, tr)
	dr.run(ctx, 0, len(in.seq))
	dr.close()
	d.close()
	spans := tr.snapshot()
	if errs := nestingErrors(spans); len(errs) > 0 {
		t.Fatalf("%d of %d spans do not nest: %v", len(errs), len(spans), errs[:min(5, len(errs))])
	}
	seen := map[string]bool{}
	for _, s := range spans {
		seen[s.layer()] = true
		if s.End < s.Start || s.Op < 0 {
			t.Errorf("bad span %+v", s)
		}
	}
	for _, l := range spanLayers {
		if !seen[l] {
			t.Errorf("no %s spans among %d", l, len(spans))
		}
	}

	// The nesting check itself flags a missing parent and a parent of
	// another operation.
	bad := []span{{ID: 1, Op: 0, Name: "client /solve"}, {ID: 2, Parent: 1, Op: 1, Name: "serve /solve"}, {ID: 3, Parent: 9, Op: 0, Name: "serve /solve"}}
	if errs := nestingErrors(bad); len(errs) != 2 {
		t.Errorf("nestingErrors flagged %v, want two", errs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client /solve", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "shard /solve", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "backend subset", Start: 20, End: 50},
		{ID: 4, Parent: 2, Name: "backend subset", Start: 40, End: 60}, // overlaps 3
	}
	got := selfTimes(spans)
	want := map[string]float64{"client": 20e-6, "shard": 40e-6, "backend": 50e-6}
	for l, v := range want {
		if d := got[l] - v; d > 1e-12 || d < -1e-12 {
			t.Errorf("self %s = %g ms, want %g", l, got[l], v)
		}
	}
}

// TestCPUTimes profiles estimator builds: the estimator's cumulative time
// includes the itemset mining it calls, and the samples land in the
// repository groups rather than other.
func TestCPUTimes(t *testing.T) {
	log := gen.RealWorkload(gen.Cars(1, carsRows), 2, 20000)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile: %v", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := estimate.Build(log, estimate.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	times, total, err := cpuTimes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 || times["itemsets"] == 0 || times["estimate"] < times["itemsets"] || times["estimate"] > total {
		t.Fatalf("times %v of %v: want itemsets > 0 and itemsets <= estimate <= total", times, total)
	}
	for fn, g := range map[string]string{
		"standout/internal/core.(*PreparedLog).SolveContext":                   "core",
		"standout/internal/cache.(*LRU[go.shape.struct { standout/x.y }]).Get": "other",
		"encoding/json.(*decodeState).object":                                  "json",
		"net/http.(*conn).serve":                                               "http",
		"runtime.mallocgc":                                                     "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                               "runtime",
		"sort.Sort":                                                            "other",
	} {
		if got := groupOf(fn); got != g {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, g)
		}
	}
}
