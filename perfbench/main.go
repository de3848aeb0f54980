// Command perfbench is the repository benchmark: it starts the real serving
// stack in-process on loopback HTTP, drives one of three closed-loop
// workloads with two clients from a seeded operation sequence, checks every
// answer from outside, and prints each end-to-end metric by name and unit.
// With -trace 1 it measures the workload a second time with timing hooks
// around the servers' public interfaces and prints the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.py from the repository root, which builds it first:
//
//	python3 perfbench/run.py --workload solve-read --seed 1 --seconds 15 --trace 0
//
// On a 2-vCPU host a run takes 25-60 s, a traced run about twice that.
//
// README.md in this directory explains each workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"time"

	"standout/internal/core"
	"standout/internal/dataset"
)

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// endToEnd are the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"solve_p50_ms", "ms", "lower", 0.25},
	{"solve_p99_ms", "ms", "lower", 0.25},
	{"visibility", "ratio", "higher", 0.15},
	{"heap_mb", "MiB", "lower", 0.15},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool   // tiny inputs and rounds, for the benchmark's own tests
	out      string // directory for spans and the diagnostics file
	commit   string
}

func main() {
	var cfg config
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: solve-read, ingest-mixed or shard-fanout")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the measured phase")
	fs.IntVar(&traceFlag, "trace", 0, "1: also run the traced phase and report per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for spans and diagnostics")
	fs.StringVar(&cfg.commit, "commit", "unknown", "source revision, reported with the host facts")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds at least 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := run(ctx, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and writes the human-readable report to
// report. The returned result carries the end-to-end metrics, or with
// cfg.trace the per-layer ones.
func run(ctx context.Context, cfg config, report io.Writer) (*result, error) {
	w, err := specFor(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.quick {
		w = w.quick()
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: w, epoch: time.Now(), goroutines: runtime.NumGoroutine()}
	b.in = makeInputs(w, cfg.seed, w.maxRounds*(w.warmOps+w.roundOps))

	// The first start-up serves the untraced phase of a workload whose
	// rounds share one deployment; the timed start-ups run between its rounds.
	dep, _, err := startUp(ctx, w, b.in.raw, (*tracer)(nil))
	if err != nil {
		return nil, fmt.Errorf("start-up: %w", err)
	}
	b.log = dep.log
	if w.freshRounds {
		dep.close()
		dep = nil
	}

	b.probes = append(b.probes, hostProbe())
	plain, err := b.measure(ctx, dep, nil)
	if err != nil {
		return nil, err
	}
	b.probes = append(b.probes, hostProbe())

	for !b.setupsDone() {
		if err := b.timeSetup(ctx); err != nil {
			return nil, err
		}
	}
	setups := b.setups

	m := plain.endToEnd(b, median(setups))
	res := &result{Correct: plain.verdict.wrong == 0, Attempted: plain.verdict.attempted, Failed: plain.verdict.failed}
	var traced *phase
	var layers map[string]metric
	if cfg.trace {
		tr := newTracer(b.epoch)
		var d *deployment
		if !w.freshRounds {
			if d, err = redeploy(ctx, w, b.log, tr); err != nil {
				return nil, err
			}
		}
		if traced, err = b.measure(ctx, d, tr); err != nil {
			return nil, err
		}
		b.probes = append(b.probes, hostProbe())
		if layers, err = b.perLayer(ctx, plain, traced, tr); err != nil {
			return nil, err
		}
		res.Correct = res.Correct && traced.verdict.wrong == 0
		res.Attempted += traced.verdict.attempted
		res.Failed += traced.verdict.failed
		res.Metrics = layers
	} else {
		res.Metrics = m
	}
	b.report(report, plain, traced, m, layers, setups)
	return res, nil
}

// bench holds one run's inputs and the state its phases share.
type bench struct {
	cfg    config
	w      spec
	in     *inputs
	epoch  time.Time
	log    *dataset.QueryLog // the start-up log (after compaction)
	steps  []map[string]time.Duration
	setups []float64 // each timed start-up, s
	probes []float64 // host.probe_ms before and after each phase
	// goroutines is the count before any server started; settle waits for
	// it after closing a deployment.
	goroutines int
}

// timeSetup times one batch of fresh start-ups. The untraced phase runs a
// batch after each round until w.setups are done, so the batches sample the
// host across the run.
func (b *bench) timeSetup(ctx context.Context) error {
	if b.w.setupOneProc {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	for j := 0; j < b.w.setupBatch; j++ {
		d, dur, err := startUp(ctx, b.w, b.in.raw, (*tracer)(nil))
		if err != nil {
			return fmt.Errorf("start-up: %w", err)
		}
		d.close()
		b.setups = append(b.setups, dur.Seconds())
		b.steps = append(b.steps, d.steps)
	}
	return nil
}

func (b *bench) setupsDone() bool { return len(b.setups) >= b.w.setups*b.w.setupBatch }

// settle waits until a closed deployment's goroutines have exited, for at
// most half a second: a background estimator build keeps its log
// generation reachable until it notices the shutdown.
func (b *bench) settle() {
	deadline := time.Now().Add(500 * time.Millisecond)
	for runtime.NumGoroutine() > b.goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// group is the outcomes of one deployment: warm-up ops first, then the
// measured ops from index measured on.
type group struct {
	d        *deployment
	outs     []outcome
	measured int
}

// phase is one measured phase: every round of the untraced or the traced
// run.
type phase struct {
	groups   []group
	rounds   []float64 // throughput of each round, ops/s
	heap     []float64 // live heap the servers held, per deployment, MiB
	measured time.Duration
	verdict  verdict
	usage    usage
	counters map[string]float64 // registry and obsv.Default counter deltas
	// profile is the traced phase's sampled CPU ns per cpu_share group, of
	// profileTotal in all.
	profile      map[string]float64
	profileTotal float64
}

// measuredOuts returns the measured outcomes of every round.
func (p *phase) measuredOuts() []outcome {
	var out []outcome
	for _, g := range p.groups {
		out = append(out, g.outs[g.measured:]...)
	}
	return out
}

// measure runs one measured phase: rounds of w.roundOps operations until
// cfg.seconds of measured time have passed and the sample counts suffice.
// dep is the deployment to use when rounds share one (nil otherwise); tr
// is nil for the untraced phase.
func (b *bench) measure(ctx context.Context, dep *deployment, tr *tracer) (*phase, error) {
	w := b.w
	ph := &phase{counters: map[string]float64{}}
	pos, solves, appends := 0, 0, 0
	var cur *group
	var dr *driver
	// finish closes the deployment and records the live heap its servers
	// held: the benchmark's own records, which grow with the op count, and
	// the inputs it shares with the servers are not counted.
	finish := func() {
		up := liveHeap()
		dr.close()
		cur.d.close()
		b.settle()
		ph.heap = append(ph.heap, float64(int64(up)-int64(liveHeap()))/(1<<20))
	}
	wall := time.Now()
	for round := 0; ; round++ {
		if cur == nil || w.freshRounds {
			d := dep
			if d == nil || round > 0 {
				var err error
				if d, err = redeploy(ctx, w, b.log, tr); err != nil {
					return nil, err
				}
			}
			dr = newDriver(b.in, d, b.epoch, tr)
			ph.groups = append(ph.groups, group{d: d, outs: dr.run(ctx, pos, pos+w.warmOps)})
			cur = &ph.groups[len(ph.groups)-1]
			cur.measured = len(cur.outs)
			pos += w.warmOps
		}
		snap := takeSnapshot(cur.d, tr != nil)
		t0 := time.Now()
		outs := dr.run(ctx, pos, pos+w.roundOps)
		dur := time.Since(t0)
		snap.addDelta(ph, cur.d)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tr == nil && !b.setupsDone() {
			if err := b.timeSetup(ctx); err != nil {
				return nil, err
			}
		}
		pos += w.roundOps
		cur.outs = append(cur.outs, outs...)
		ph.rounds = append(ph.rounds, float64(len(outs))/dur.Seconds())
		ph.measured += dur
		for _, o := range outs {
			if b.in.seq[o.op].kind == opAppend {
				appends++
			} else {
				solves++
			}
		}
		done := ph.measured >= time.Duration(b.cfg.seconds)*time.Second && solves >= w.minSolves && appends >= w.minAppends
		last := done || round+1 == w.maxRounds || time.Since(wall) > maxWall
		if w.freshRounds || last {
			finish()
		}
		if last {
			break
		}
	}
	return ph, b.check(ctx, ph)
}

// maxWall bounds one measured phase's wall time, whatever the sample
// counts, so a run ends within its time limit on a slow host.
const maxWall = 60 * time.Second

// check runs the outside answer check on every deployment of the phase.
func (b *bench) check(ctx context.Context, ph *phase) error {
	for _, g := range ph.groups {
		var ref reference
		if b.w.name != "ingest-mixed" {
			sols, durs, err := directSolves(ctx, b.in, b.log, g.outs)
			if err != nil {
				return err
			}
			ph.verdict.replay = append(ph.verdict.replay, durs...)
			ref = func(k key) (core.Solution, bool) {
				s, ok := sols[k]
				return s, ok
			}
		}
		ph.verdict.merge(checkAnswers(b.in, b.log, g.outs, g.measured, ref))
	}
	return nil
}

// latencies returns the client-side latency in ms of the measured ops of a
// kind; a failed op counts as the client timeout.
func (p *phase) latencies(in *inputs, kind opKind) []float64 {
	var xs []float64
	for _, o := range p.measuredOuts() {
		if in.seq[o.op].kind != kind {
			continue
		}
		if o.err != "" {
			xs = append(xs, float64(clientTimeout.Milliseconds()))
		} else {
			xs = append(xs, o.ms())
		}
	}
	return xs
}

func (p *phase) endToEnd(b *bench, setup float64) map[string]metric {
	solves := p.latencies(b.in, opSolve)
	p50, _ := quantile(solves, 0.50)
	p99, _ := quantile(solves, 0.99)
	vis := 0.0
	if p.verdict.answered > 0 {
		vis = p.verdict.visSum / float64(p.verdict.answered)
	}
	vals := map[string]float64{
		"setup_s":        setup,
		"throughput_rps": median(p.rounds),
		"solve_p50_ms":   p50,
		"solve_p99_ms":   p99,
		"visibility":     vis,
		"heap_mb":        median(p.heap),
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		out[d.Name] = metric{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// report prints the human-readable report: every metric with its unit and
// sample count, the diagnostics, and the host facts.
func (b *bench) report(w io.Writer, plain, traced *phase, e2e, layers map[string]metric, setups []float64) {
	in := b.in
	fmt.Fprintf(w, "workload %s seed %d: %d measured ops in %d rounds, %.1fs measured\n",
		b.w.name, b.cfg.seed, plain.verdict.attempted, len(plain.rounds), plain.measured.Seconds())
	solves := plain.latencies(in, opSolve)
	appends := plain.latencies(in, opAppend)
	n := map[string]int{
		"setup_s": len(setups), "throughput_rps": len(plain.rounds), "solve_p50_ms": len(solves),
		"solve_p99_ms": len(solves), "visibility": plain.verdict.answered, "heap_mb": len(plain.heap),
	}
	for _, d := range endToEnd {
		extra := ""
		if d.Name == "solve_p99_ms" {
			_, beyond := quantile(solves, 0.99)
			extra = fmt.Sprintf(" (%d beyond)", beyond)
		}
		fmt.Fprintf(w, "metric %-16s %12.4f %-6s n=%d%s\n", d.Name, e2e[d.Name].Value, d.Unit, n[d.Name], extra)
	}
	if len(appends) > 0 {
		a50, _ := quantile(appends, 0.50)
		a99, beyond := quantile(appends, 0.99)
		fmt.Fprintf(w, "metric %-16s %12.4f %-6s n=%d\n", "append_p50_ms", a50, "ms", len(appends))
		fmt.Fprintf(w, "metric %-16s %12.4f %-6s n=%d (%d beyond)\n", "append_p99_ms", a99, "ms", len(appends), beyond)
	}
	errRate := 0.0
	if plain.verdict.attempted > 0 {
		errRate = float64(plain.verdict.failed) / float64(plain.verdict.attempted)
	}
	fmt.Fprintf(w, "metric %-16s %12.4f %-6s n=%d (failed, refused, timed out, partial, degraded or wrong)\n",
		"error_rate", errRate, "ratio", plain.verdict.attempted)
	for _, e := range plain.verdict.examples {
		fmt.Fprintf(w, "check: %s\n", e)
	}
	if traced != nil {
		for _, e := range traced.verdict.examples {
			fmt.Fprintf(w, "check (traced): %s\n", e)
		}
	}

	diag := b.diagnostics(plain)
	keys := make([]string, 0, len(diag))
	for k := range diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "diag %-48s %v\n", k, diag[k])
	}
	if layers != nil {
		for _, d := range perLayer {
			fmt.Fprintf(w, "layer %-40s %12.4f %s\n", d.Name, layers[d.Name].Value, d.Unit)
		}
	}
	suffix := "trace0"
	if traced != nil {
		suffix = "trace1"
	}
	path := fmt.Sprintf("%s/diag-%s-%d-%s.json", b.cfg.out, b.w.name, b.cfg.seed, suffix)
	all := map[string]any{"end_to_end": e2e, "per_layer": layers, "diagnostics": diag, "setups_s": setups}
	if data, err := json.MarshalIndent(all, "", "  "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: diagnostics:", err)
		}
	}
}

// diagnostics are the per-run facts printed beside the metrics: counter
// rates, runtime and getrusage deltas, the host probe, the workload's
// measured key-repeat and append shares, and host facts.
func (b *bench) diagnostics(p *phase) map[string]any {
	ops := float64(p.verdict.attempted)
	d := map[string]any{
		"host.cpus":       runtime.NumCPU(),
		"host.gomaxprocs": runtime.GOMAXPROCS(0),
		"host.go":         runtime.Version(),
		"host.commit":     b.cfg.commit,
	}
	d["host.probe_ms"] = b.probes
	for k, v := range p.counters {
		d["per_1k_ops."+k] = 1000 * v / ops
	}
	d["process.cpu_ms_per_op"] = p.usage.cpuMS / ops
	d["process.alloc_kb_per_op"] = p.usage.allocKB / ops
	d["process.gc_cycles"] = p.usage.gcCycles
	d["process.gc_pause_ms"] = p.usage.gcPauseMS
	rep, app := b.shares(p)
	d["workload.repeat_share"] = rep
	d["workload.append_share"] = app
	return d
}

// shares returns the measured share of solves whose (tuple, m, algo) key an
// earlier op of the phase already used, and the share of ops that append.
func (b *bench) shares(p *phase) (repeat, appendShare float64) {
	seen := map[key]bool{}
	var solves, repeats, appends int
	for _, g := range p.groups {
		for i, o := range g.outs {
			op := b.in.seq[o.op]
			if op.kind == opAppend {
				if i >= g.measured {
					appends++
				}
				continue
			}
			if i >= g.measured {
				solves++
				if seen[op.key()] {
					repeats++
				}
			}
			seen[op.key()] = true
		}
	}
	if solves+appends == 0 {
		return 0, 0
	}
	return float64(repeats) / float64(solves), float64(appends) / float64(solves+appends)
}
