package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"standout/internal/core"
	"standout/internal/estimate"
	"standout/internal/obsv"
	"standout/internal/shard"
)

// Counters read from the servers' registries (summed over serve nodes) and
// from obsv.Default, where core records its cache and index counters.
var (
	serveCounters = []string{
		"standout_serve_requests_total", "standout_serve_shed_total", "standout_serve_degraded_total",
		"standout_serve_timeouts_total", "standout_serve_stale_retries_total", "standout_serve_prep_rebuilds_total",
		"standout_serve_prep_delta_builds_total", "standout_serve_prep_retries_total", "standout_serve_estimated_total",
		"standout_serve_failures_total", "standout_serve_log_swaps_total",
	}
	coordCounters = []string{
		"standout_shard_requests_total", "standout_shard_shed_total", "standout_shard_degraded_total",
		"standout_shard_timeouts_total", "standout_shard_partial_total", "standout_shard_calls_total",
		"standout_shard_call_errors_total", "standout_shard_retries_total", "standout_shard_hedges_total",
		"standout_shard_hedge_wins_total", "standout_shard_solve_restarts_total",
	}
	defaultCounters = []string{
		"standout_solves_total", "standout_prep_cache_hits_total", "standout_prep_cache_misses_total",
		"standout_index_builds_total", "standout_index_delta_builds_total", "standout_index_compactions_total",
		"standout_cache_hits_total", "standout_cache_misses_total",
	}
)

// usage is process resource use over measured rounds.
type usage struct {
	cpuMS, allocKB, gcCycles, gcPauseMS float64
}

// snapshot is the state at the start of a measured round.
type snapshot struct {
	counters map[string]float64
	cpu      time.Duration
	mem      runtime.MemStats
	profile  *bytes.Buffer // non-nil while the traced round's CPU profile runs
}

func counterValues(d *deployment) map[string]float64 {
	out := map[string]float64{}
	for _, reg := range d.serveRegs {
		for _, n := range serveCounters {
			out[n] += float64(reg.Counter(n, "").Value())
		}
	}
	if d.coordReg != nil {
		for _, n := range coordCounters {
			out[n] += float64(d.coordReg.Counter(n, "").Value())
		}
	}
	for _, n := range defaultCounters {
		out[n] += float64(obsv.Default.Counter(n, "").Value())
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(d *deployment, profile bool) *snapshot {
	s := &snapshot{counters: counterValues(d), cpu: cpuTime()}
	runtime.ReadMemStats(&s.mem)
	if profile {
		s.profile = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(s.profile); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			s.profile = nil
		}
	}
	return s
}

// addDelta adds the round's resource use, counter deltas and CPU profile to
// the phase.
func (s *snapshot) addDelta(ph *phase, d *deployment) {
	if s.profile != nil {
		pprof.StopCPUProfile()
		times, total, err := cpuTimes(s.profile.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		if ph.profile == nil {
			ph.profile = map[string]float64{}
		}
		for g, v := range times {
			ph.profile[g] += v
		}
		ph.profileTotal += total
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ph.usage.cpuMS += float64(cpuTime()-s.cpu) / 1e6
	ph.usage.allocKB += float64(mem.TotalAlloc-s.mem.TotalAlloc) / 1024
	ph.usage.gcCycles += float64(mem.NumGC - s.mem.NumGC)
	ph.usage.gcPauseMS += float64(mem.PauseTotalNs-s.mem.PauseTotalNs) / 1e6
	for n, v := range counterValues(d) {
		ph.counters[n] += v - s.counters[n]
	}
}

// hostProbe times a fixed single-thread loop: a reading of the host, not
// the program.
func hostProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return float64(time.Since(t0)) / 1e6
}

var probeSink uint64

// timeCall returns the median duration in ms of n calls of f.
func timeCall(n int, f func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0)) / 1e6
	}
	return median(ds)
}

// perLayer is the traced run's metric list, reported on every workload. A
// metric of a layer a workload does not use reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.handler_p50_ms", "ms", "lower", 0},
		{"serve.overhead_p50_ms", "ms", "lower", 0},
		{"serve.transport_p50_ms", "ms", "lower", 0},
		{"serve.append_handler_p50_ms", "ms", "lower", 0},
		{"serve.shed", "per_1k_ops", "lower", 0},
		{"serve.degraded", "per_1k_ops", "lower", 0},
		{"serve.timeouts", "per_1k_ops", "lower", 0},
		{"serve.stale_retries", "per_1k_ops", "lower", 0},
		{"serve.prep_rebuilds", "per_1k_ops", "lower", 0},
		{"serve.prep_delta_builds", "per_1k_ops", "lower", 0},
	}
	for _, a := range []string{"greedy", "consumeattr", "estimate", "brute", "mfi-exact"} {
		defs = append(defs, metricDef{"core.solve_p50_ms." + a, "ms", "lower", 0})
	}
	defs = append(defs, []metricDef{
		{"core.solve_p99_ms", "ms", "lower", 0},
		{"core.replay_solve_p50_ms", "ms", "lower", 0},
		{"cache.hit_ratio", "ratio", "higher", 0},
		{"index.build_ms", "ms", "lower", 0},
		{"index.delta_ms", "ms", "lower", 0},
		{"index.segments", "count", "lower", 0},
		{"index.compactions", "per_1k_ops", "lower", 0},
		{"dataset.extend_ms", "ms", "lower", 0},
		{"dataset.fingerprint_ms", "ms", "lower", 0},
		{"compact.ms", "ms", "lower", 0},
		{"estimate.build_ms", "ms", "lower", 0},
		{"shard.partition_ms", "ms", "lower", 0},
		{"shard.score_p50_ms.subset", "ms", "lower", 0},
		{"shard.score_p50_ms.superset", "ms", "lower", 0},
		{"shard.score_p99_ms", "ms", "lower", 0},
		{"shard.score_server_p50_ms", "ms", "lower", 0},
		{"shard.calls_per_solve", "count", "lower", 0},
		{"shard.cands_per_call", "count", "lower", 0},
		{"shard.hedges_per_solve", "count", "lower", 0},
		{"shard.retries", "per_1k_ops", "lower", 0},
		{"shard.restarts", "per_1k_ops", "lower", 0},
		{"process.cpu_ms_per_op", "ms", "lower", 0},
		{"process.alloc_kb_per_op", "KiB", "lower", 0},
		{"process.gc_cycles", "count", "lower", 0},
		{"process.gc_pause_ms", "ms", "lower", 0},
	}...)
	for _, g := range cpuGroups {
		defs = append(defs, metricDef{"cpu_share." + g, "ratio", "lower", 0})
	}
	for _, l := range spanLayers {
		defs = append(defs, metricDef{"self_ms_per_op." + l, "ms", "lower", 0})
	}
	for _, d := range endToEnd {
		if d.Name != "setup_s" {
			defs = append(defs, metricDef{"trace_overhead." + d.Name, d.Unit, d.Better, 0})
		}
	}
	return append(defs, []metricDef{
		{"trace.bad_spans", "count", "lower", 0},
		{"workload.repeat_share", "ratio", "higher", 0},
		{"workload.append_share", "ratio", "higher", 0},
		{"host.probe_ms", "ms", "lower", 0},
	}...)
}()

// spanLayers are the layers spans are recorded at, outermost first.
var spanLayers = []string{"client", "shard", "backend", "http", "serve"}

// perLayer computes the traced run's metrics from its spans, counters and
// profile, plus direct timings of the library calls each layer makes.
func (b *bench) perLayer(ctx context.Context, plain, traced *phase, tr *tracer) (map[string]metric, error) {
	v := map[string]float64{}
	in := b.in
	outs := traced.measuredOuts()
	ops := float64(len(outs))
	measuredOp := map[int]outcome{}
	solves := 0
	for _, o := range outs {
		measuredOp[o.op] = o
		if in.seq[o.op].kind == opSolve {
			solves++
		}
	}
	all := tr.snapshot()
	var spans []span
	for _, s := range all {
		if _, ok := measuredOp[s.Op]; ok {
			spans = append(spans, s)
		}
	}
	if err := writeSpans(filepath.Join(b.cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", b.w.name, b.cfg.seed)), all); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
	}
	v["trace.bad_spans"] = float64(len(nestingErrors(all)))

	// Server handler, overhead and transport, joined per op.
	front := "serve /solve"
	if b.w.shards > 0 {
		front = "shard /solve"
	}
	byID := map[uint64]span{}
	clientOf := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent == 0 {
			clientOf[s.Op] = s
		}
	}
	var handler, overhead, transport, appendH []float64
	var sub, sup, allScore, scoreServer, cands []float64
	calls := 0
	for _, s := range spans {
		switch {
		case s.Name == front && s.Parent == clientOf[s.Op].ID:
			handler = append(handler, s.ms())
			overhead = append(overhead, s.ms()-measuredOp[s.Op].rep.ElapsedMS)
			transport = append(transport, clientOf[s.Op].ms()-s.ms())
		case s.Name == "serve /log":
			appendH = append(appendH, s.ms())
		case s.layer() == "backend":
			calls++
			cands = append(cands, float64(s.N))
			allScore = append(allScore, s.ms())
			if s.Name == "backend subset" {
				sub = append(sub, s.ms())
			} else {
				sup = append(sup, s.ms())
			}
		case s.Name == "serve /score":
			if h, ok := byID[s.Parent]; ok {
				if bk, ok := byID[h.Parent]; ok {
					scoreServer = append(scoreServer, bk.ms()-s.ms())
				}
			}
		}
	}
	q50 := func(xs []float64) float64 { x, _ := quantile(xs, 0.5); return x }
	v["serve.handler_p50_ms"] = q50(handler)
	v["serve.overhead_p50_ms"] = q50(overhead)
	v["serve.transport_p50_ms"] = q50(transport)
	v["serve.append_handler_p50_ms"] = q50(appendH)
	v["shard.score_p50_ms.subset"] = q50(sub)
	v["shard.score_p50_ms.superset"] = q50(sup)
	v["shard.score_p99_ms"], _ = quantile(allScore, 0.99)
	v["shard.score_server_p50_ms"] = q50(scoreServer)
	if solves > 0 && b.w.shards > 0 {
		v["shard.calls_per_solve"] = float64(calls) / float64(solves)
		v["shard.hedges_per_solve"] = traced.counters["standout_shard_hedges_total"] / float64(solves)
	}
	v["shard.cands_per_call"] = mean(cands)
	self := selfTimes(spans)
	for _, l := range spanLayers {
		v["self_ms_per_op."+l] = self[l] / ops
	}

	// Counters per 1000 ops. Coordinator shed/degraded/timeouts count with
	// serve's: both are the front door of a workload.
	per1k := func(names ...string) float64 {
		t := 0.0
		for _, n := range names {
			t += traced.counters[n]
		}
		return 1000 * t / ops
	}
	v["serve.shed"] = per1k("standout_serve_shed_total", "standout_shard_shed_total")
	v["serve.degraded"] = per1k("standout_serve_degraded_total", "standout_shard_degraded_total")
	v["serve.timeouts"] = per1k("standout_serve_timeouts_total", "standout_shard_timeouts_total")
	v["serve.stale_retries"] = per1k("standout_serve_stale_retries_total")
	v["serve.prep_rebuilds"] = per1k("standout_serve_prep_rebuilds_total")
	v["serve.prep_delta_builds"] = per1k("standout_serve_prep_delta_builds_total")
	v["index.compactions"] = per1k("standout_index_compactions_total")
	v["shard.retries"] = per1k("standout_shard_retries_total")
	v["shard.restarts"] = per1k("standout_shard_solve_restarts_total")
	if h, m := traced.counters["standout_prep_cache_hits_total"], traced.counters["standout_prep_cache_misses_total"]; h+m > 0 && b.w.shards == 0 {
		v["cache.hit_ratio"] = h / (h + m)
	}

	// Solver time as the servers report it, by algorithm.
	byAlgo := map[string][]float64{}
	var elapsed []float64
	for _, o := range outs {
		if op := in.seq[o.op]; op.kind == opSolve && o.err == "" {
			byAlgo[op.algo] = append(byAlgo[op.algo], o.rep.ElapsedMS)
			elapsed = append(elapsed, o.rep.ElapsedMS)
		}
	}
	for a, xs := range byAlgo {
		v["core.solve_p50_ms."+a] = q50(xs)
	}
	v["core.solve_p99_ms"], _ = quantile(elapsed, 0.99)

	v["process.cpu_ms_per_op"] = traced.usage.cpuMS / ops
	v["process.alloc_kb_per_op"] = traced.usage.allocKB / ops
	v["process.gc_cycles"] = traced.usage.gcCycles
	v["process.gc_pause_ms"] = traced.usage.gcPauseMS
	for g, ns := range traced.profile {
		v["cpu_share."+g] = ns / traced.profileTotal
	}

	// Tracing overhead: traced minus untraced end-to-end metrics.
	pe, te := plain.endToEnd(b, 0), traced.endToEnd(b, 0)
	for _, d := range endToEnd {
		if d.Name != "setup_s" {
			v["trace_overhead."+d.Name] = te[d.Name].Value - pe[d.Name].Value
		}
	}
	v["workload.repeat_share"], v["workload.append_share"] = b.shares(traced)
	v["host.probe_ms"] = median(b.probes)

	if err := b.libraryTimings(ctx, traced, v); err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, d := range perLayer {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out, nil
}

// libraryTimings times the library calls behind each layer directly: the
// start-up steps, an index build and estimator build over the start-up log,
// and a replay of the traced phase's first log history.
func (b *bench) libraryTimings(ctx context.Context, traced *phase, v map[string]float64) error {
	var comp, part []float64
	for _, st := range b.steps {
		if d, ok := st["compact"]; ok {
			comp = append(comp, float64(d)/1e6)
		}
		if d, ok := st["partition"]; ok {
			part = append(part, float64(d)/1e6)
		}
	}
	v["compact.ms"] = median(comp)
	v["shard.partition_ms"] = median(part)

	log := b.log
	var prep *core.PreparedLog
	var err error
	v["index.build_ms"] = timeCall(3, func() { prep, err = core.PrepareLog(log) })
	if err != nil {
		return fmt.Errorf("index build: %w", err)
	}
	v["index.segments"] = float64(prep.Segments())
	v["estimate.build_ms"] = timeCall(3, func() { _, err = estimate.Build(log, estimate.Options{}) })
	if err != nil {
		return fmt.Errorf("estimator build: %w", err)
	}
	if len(traced.verdict.replay) > 0 {
		v["core.replay_solve_p50_ms"] = median(traced.verdict.replay)
	}

	switch {
	case b.w.shards > 0:
		parts, err := shard.Partition(ctx, log, b.w.shards)
		if err != nil {
			return err
		}
		var fps []float64
		for _, p := range parts {
			fps = append(fps, timeCall(3, func() { _ = p.Fingerprint() }))
		}
		v["dataset.fingerprint_ms"] = median(fps)
	case b.w.name == "ingest-mixed":
		return b.replayAppends(ctx, traced, prep, v)
	default:
		v["dataset.fingerprint_ms"] = timeCall(5, func() { _ = log.Fingerprint() })
	}
	return nil
}

// replayAppends replays the first traced deployment's append history in
// applied order through the library: QueryLog.Extend, Fingerprint and the
// delta index build core.PrepareLogFrom per generation, then solves each
// distinct key of that deployment's measured solves on a PreparedLog of the
// start-up log.
func (b *bench) replayAppends(ctx context.Context, traced *phase, prep *core.PreparedLog, v map[string]float64) error {
	g := traced.groups[0]
	chunks := map[int]int{}
	for _, o := range g.outs {
		if op := b.in.seq[o.op]; op.kind == opAppend && o.err == "" {
			chunks[(o.rep.Queries-b.log.Size())/appendBatch] = op.chunk
		}
	}
	gens := make([]int, 0, len(chunks))
	for gen := range chunks {
		gens = append(gens, gen)
	}
	sort.Ints(gens)
	var ext, fp, delta []float64
	log, p := b.log, prep
	for _, gen := range gens {
		t0 := time.Now()
		next := log.Extend()
		ext = append(ext, float64(time.Since(t0))/1e6)
		for _, q := range b.in.appends[chunks[gen]] {
			if err := next.Append(q); err != nil {
				return err
			}
		}
		t0 = time.Now()
		_ = next.Fingerprint()
		fp = append(fp, float64(time.Since(t0))/1e6)
		t0 = time.Now()
		np, err := core.PrepareLogFrom(p, next)
		if err != nil {
			return fmt.Errorf("delta build: %w", err)
		}
		delta = append(delta, float64(time.Since(t0))/1e6)
		log, p = next, np
	}
	v["dataset.extend_ms"] = median(ext)
	v["dataset.fingerprint_ms"] = median(fp)
	v["index.delta_ms"] = median(delta)
	v["index.segments"] = float64(p.Segments())

	var durs []float64
	seen := map[key]bool{}
	for _, o := range g.outs[g.measured:] {
		if op := b.in.seq[o.op]; op.kind == opSolve && !seen[op.key()] {
			seen[op.key()] = true // a repeat would time the memo
			t0 := time.Now()
			if _, err := prep.SolveContext(ctx, solverFor(op.algo), b.in.tuples[op.tuple], op.m); err != nil {
				return fmt.Errorf("replay solve: %w", err)
			}
			durs = append(durs, float64(time.Since(t0))/1e6)
		}
	}
	v["core.replay_solve_p50_ms"] = median(durs)
	return nil
}

// liveHeap returns the heap in use after forced collections, in bytes. The
// first collection moves sync.Pool contents to the pools' victim caches and
// the second frees them, so pooled buffers, whose number depends on timing,
// do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
