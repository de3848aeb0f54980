// Command socserve runs the hardened solving service: the paper's online
// scenario — price a new tuple's best m-attribute compression against a live
// query log — as an HTTP/JSON server with admission control, deadline
// propagation, a graceful-degradation ladder, and panic isolation (see
// internal/serve and DESIGN.md §10).
//
// Usage:
//
//	socserve -log queries.csv [-addr 127.0.0.1:8080]
//	socserve -db cars.csv                       # rows act as the workload
//	socserve -gen 500 [-seed 7]                 # synthetic cars workload
//	socserve -log queries.csv -shard-of 0/4     # serve one hash partition
//	socserve -shards http://h1:8080,http://h2:8080   # scatter-gather coordinator
//
// Coordinator mode (-shards) holds no workload: it bootstraps the schema
// from the first reachable shard's GET /schema and scatter-gathers POST
// /solve across the shards' /score counting oracles, merging answers
// bit-identically to an unsharded server (internal/shard, DESIGN.md §15).
// Lost shards degrade responses to exact partial results (200 with
// "partial": true), never 5xx; per-shard circuit health is on GET /readyz.
// Coordinator knobs: -shard-timeout, -shard-retries, -hedge-after,
// -no-hedge, -breaker-failures, -breaker-cooloff.
//
// Endpoints:
//
//	POST /solve        {"tuple": "110100...|AC,Turbo", "m": 3,
//	                    "algo": "mfi-exact", "timeout_ms": 500}
//	POST /solve/batch  {"tuples": [...], "m": 3}
//	GET  /log          workload stats; POST appends queries copy-on-write
//	POST /log/touch    force index staleness (chaos lever)
//	POST /score        {"mode": "subset"|"superset", "candidates": [...]}:
//	                   additive weighted counts over this node's log
//	GET  /schema       the serving schema's attribute names and width
//	GET  /healthz /readyz /metrics
//	GET  /debug/requests[/TRACE_ID]  flight recorder: recent requests as JSON
//
// Every serve node, a -shard-of partition included, serves all of these. A
// -shards coordinator serves POST /solve, /healthz, /readyz, /metrics and
// /debug/requests, and calls its shards' GET /schema and POST /score.
//
// Every solve/batch/log request gets a W3C trace context (inbound
// `traceparent` honored, else minted) echoed in `X-Request-Id`/`traceparent`
// response headers and the body's trace_id field; `socstats tail` follows the
// flight recorder live.
//
// Flags (beyond the obsv trio and -timeout):
//
//	-addr ADDR        listen address (default 127.0.0.1:8080; :0 picks a port)
//	-compact          fold exact-duplicate queries into weighted entries at
//	                  startup; answers are provably identical, the log smaller
//	-max-concurrent   solve slots (default GOMAXPROCS)
//	-max-queue        bounded wait queue; beyond it requests shed with 429
//	-greedy-budget    deadline budget below which the ladder serves the
//	                  certified-estimate rung instead of greedy (default 1ms;
//	                  25ms for the -shards coordinator)
//	-shed-estimate    answer shed solves 200 {"estimated":true, "estimate":
//	                  {"lo","hi"}} instead of 429 (DESIGN.md §16)
//	-default-timeout  per-request deadline when the request names none
//	-max-timeout      clamp on client-requested deadlines
//	-grace            shutdown grace for in-flight requests (default 5s)
//	-fault SPECS      deterministic fault injection, ";"-separated rules:
//	                  SITE[:every=N][:offset=N][:count=N][:delay=D][:jitter=D][:ACTION]
//	-fault-seed N     seed for injected delay jitter (default 1)
//	-flight N         flight-recorder ring size (default 256; < 0 disables)
//	-slow D           slow-request threshold (default 500ms)
//	-sample N         keep 1-in-N boring successes in the recorder (default 1)
//
// ^C (SIGINT), SIGTERM, or an expired -timeout drain the server gracefully:
// the listener closes, in-flight requests get -grace to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"standout/internal/compact"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/gen"
	"standout/internal/obsv"
	"standout/internal/serve"
	"standout/internal/shard"
)

func main() {
	ctx, stop := obsv.SignalContext()
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "socserve: %v\n", err)
		os.Exit(2)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("socserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (:0 picks a free port)")
	logPath := fs.String("log", "", "query log CSV (SOC-CB-QL workload)")
	doCompact := fs.Bool("compact", false, "fold exact-duplicate queries into weighted entries before serving (identical answers, smaller log)")
	dbPath := fs.String("db", "", "database CSV (rows act as the workload)")
	genN := fs.Int("gen", 0, "generate a synthetic cars workload of this many queries")
	seed := fs.Int64("seed", 1, "generator seed for -gen")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent solve slots (0 = GOMAXPROCS)")
	maxQueue := fs.Int("max-queue", 0, "bounded admission queue (0 = 4×slots); beyond it 429")
	defaultTimeout := fs.Duration("default-timeout", 0, "per-request deadline when unset (0 = 2s)")
	maxTimeout := fs.Duration("max-timeout", 0, "clamp on client deadlines (0 = 30s)")
	workers := fs.Int("workers", 0, "per-solve parallel workers for brute/ilp/mfi-exact (0 = sequential; answers identical either way)")
	grace := fs.Duration("grace", 5*time.Second, "shutdown grace for in-flight requests")
	flightSize := fs.Int("flight", 256, "flight-recorder ring size (completed-request records; < 0 disables)")
	slow := fs.Duration("slow", 500*time.Millisecond, "latency at or above which a request is logged and always recorded")
	sample := fs.Int("sample", 1, "keep 1-in-N boring successes in the flight recorder (errors and slow requests always kept)")
	faultSpec := fs.String("fault", "", `fault rules, ";"-separated (e.g. "serve.solve:every=10:panic")`)
	faultSeed := fs.Int64("fault-seed", 1, "seed for injected delay jitter")
	shards := fs.String("shards", "", "comma-separated shard base URLs; run as a scatter-gather coordinator (no workload flags)")
	shardOf := fs.String("shard-of", "", `serve only shard i of an n-way hash partition of the workload ("i/n")`)
	shardTimeout := fs.Duration("shard-timeout", 0, "coordinator: per-shard scatter attempt deadline (0 = 1s)")
	shardRetries := fs.Int("shard-retries", 0, "coordinator: scatter retries per shard call (0 = 2, negative = none)")
	hedgeAfter := fs.Duration("hedge-after", 0, "coordinator: hedge delay before latency history exists (0 = 25ms)")
	noHedge := fs.Bool("no-hedge", false, "coordinator: disable hedged shard requests")
	breakerFailures := fs.Int("breaker-failures", 0, "coordinator: consecutive failures opening a shard circuit (0 = 5)")
	breakerCooloff := fs.Duration("breaker-cooloff", 0, "coordinator: open-circuit cooloff before the half-open probe (0 = 2s)")
	greedyBudget := fs.Duration("greedy-budget", 0, "deadline budget below which the ladder degrades to the certified estimate rung (0 = 1ms; 25ms with -shards)")
	shedEstimate := fs.Bool("shed-estimate", false, "answer admission-shed solves 200 with a certified estimate instead of 429 (DESIGN.md §16)")
	var obs obsv.Flags
	obs.Register(fs)
	var runf obsv.RunFlags // -timeout bounds the whole serving run
	runf.Register(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: socserve -log queries.csv | -db cars.csv | -gen N [flags]\n")
		fs.SetOutput(stderr)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := runf.Context(ctx)
	defer cancel()
	ctx, finish, err := obs.Apply(ctx, stdout, stderr)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	var inj *fault.Injector
	if *faultSpec != "" {
		rules, err := fault.ParseRules(*faultSpec)
		if err != nil {
			return fmt.Errorf("parsing -fault: %w", err)
		}
		inj = fault.New(*faultSeed, rules...)
		fmt.Fprintf(stderr, "socserve: fault injection armed: %s (seed %d)\n", *faultSpec, *faultSeed)
	}

	// Coordinator mode: no workload of its own — shard addresses plus a
	// schema bootstrapped from the first reachable shard.
	if *shards != "" {
		if *logPath != "" || *dbPath != "" || *genN > 0 || *shardOf != "" {
			return fmt.Errorf("-shards is mutually exclusive with -log, -db, -gen and -shard-of")
		}
		return runCoordinator(ctx, coordinatorOpts{
			addr: *addr, shards: *shards, grace: *grace,
			maxConcurrent: *maxConcurrent, maxQueue: *maxQueue,
			defaultTimeout: *defaultTimeout, maxTimeout: *maxTimeout,
			shardTimeout: *shardTimeout, shardRetries: *shardRetries,
			hedgeAfter: *hedgeAfter, noHedge: *noHedge,
			breakerFailures: *breakerFailures, breakerCooloff: *breakerCooloff,
			greedyBudget: *greedyBudget,
			seed:         *seed, injector: inj,
			flightSize: *flightSize, slow: *slow, sample: *sample,
		}, stderr)
	}

	log, err := loadWorkload(*logPath, *dbPath, *genN, *seed)
	if err != nil {
		return err
	}
	if *doCompact {
		compacted, st := compact.Compact(log)
		fmt.Fprintf(stderr, "socserve: compacted %d queries to %d weighted entries (%.1f%% of raw, %d duplicates folded)\n",
			st.InputQueries, st.OutputQueries, 100*st.Ratio(), st.DuplicatesFolded)
		log = compacted
	}
	if *shardOf != "" {
		si, sn, err := parseShardOf(*shardOf)
		if err != nil {
			return err
		}
		part, err := shard.PartitionOne(ctx, log, si, sn)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "socserve: serving shard %d/%d: %d of %d queries (weight %d of %d)\n",
			si, sn, part.Size(), log.Size(), part.TotalWeight(), log.TotalWeight())
		log = part
	}

	srv, err := serve.New(serve.Config{
		Log:            log,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		SolverWorkers:  *workers,
		GreedyBudget:   *greedyBudget,
		ShedEstimate:   *shedEstimate,
		Seed:           *seed,
		Injector:       inj,
		FlightSize:     *flightSize,
		SlowThreshold:  *slow,
		SampleEvery:    *sample,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	banner := fmt.Sprintf("%d queries over %d attributes", log.Size(), log.Width())
	return serveHTTP(ctx, *addr, srv.Handler(), *grace, banner, stderr)
}

// coordinatorOpts carries the coordinator-mode flag values.
type coordinatorOpts struct {
	addr            string
	shards          string
	grace           time.Duration
	maxConcurrent   int
	maxQueue        int
	defaultTimeout  time.Duration
	maxTimeout      time.Duration
	shardTimeout    time.Duration
	shardRetries    int
	hedgeAfter      time.Duration
	noHedge         bool
	breakerFailures int
	breakerCooloff  time.Duration
	greedyBudget    time.Duration
	seed            int64
	injector        *fault.Injector
	flightSize      int
	slow            time.Duration
	sample          int
}

// runCoordinator serves scatter-gather over remote socserve shards.
func runCoordinator(ctx context.Context, o coordinatorOpts, stderr io.Writer) error {
	var backends []shard.Backend
	var https []*shard.HTTP
	for i, raw := range strings.Split(o.shards, ",") {
		u := strings.TrimSpace(raw)
		if u == "" {
			continue
		}
		h := shard.NewHTTP(fmt.Sprintf("s%d", i), strings.TrimRight(u, "/"), nil)
		backends = append(backends, h)
		https = append(https, h)
	}
	if len(backends) == 0 {
		return fmt.Errorf("-shards lists no URLs")
	}
	schema, err := bootstrapSchema(ctx, https, stderr)
	if err != nil {
		return err
	}
	srv, err := shard.NewServer(shard.Config{
		Backends:        backends,
		Schema:          schema,
		ShardTimeout:    o.shardTimeout,
		Retries:         o.shardRetries,
		HedgeAfter:      o.hedgeAfter,
		DisableHedge:    o.noHedge,
		BreakerFailures: o.breakerFailures,
		BreakerCooloff:  o.breakerCooloff,
		GreedyBudget:    o.greedyBudget,
		MaxConcurrent:   o.maxConcurrent,
		MaxQueue:        o.maxQueue,
		DefaultTimeout:  o.defaultTimeout,
		MaxTimeout:      o.maxTimeout,
		Seed:            o.seed,
		Injector:        o.injector,
		FlightSize:      o.flightSize,
		SlowThreshold:   o.slow,
		SampleEvery:     o.sample,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	banner := fmt.Sprintf("coordinator over %d shards (width %d)", len(backends), schema.Width())
	return serveHTTP(ctx, o.addr, srv.Handler(), o.grace, banner, stderr)
}

// bootstrapSchema fetches the serving schema from the first shard that
// answers GET /schema, retrying with backoff so the coordinator can start
// before (or while) its shards do.
func bootstrapSchema(ctx context.Context, shards []*shard.HTTP, stderr io.Writer) (*dataset.Schema, error) {
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		for _, h := range shards {
			actx, cancel := context.WithTimeout(ctx, 2*time.Second)
			schema, err := h.Schema(actx)
			cancel()
			if err == nil {
				return schema, nil
			}
			lastErr = err
		}
		if attempt == 0 {
			fmt.Fprintf(stderr, "socserve: waiting for a shard to answer /schema (%v)\n", lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(500 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("no shard answered /schema: %w", lastErr)
}

// parseShardOf parses "i/n".
func parseShardOf(spec string) (i, n int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil {
		return 0, 0, fmt.Errorf(`-shard-of %q: want "i/n" (e.g. 0/4)`, spec)
	}
	if n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf("-shard-of %q: shard %d of %d is out of range", spec, i, n)
	}
	return i, n, nil
}

// serveHTTP runs the listener until ctx is done, then drains gracefully.
func serveHTTP(ctx context.Context, addr string, h http.Handler, grace time.Duration, banner string, stderr io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	// Shutdown counts a connection that has sent no request yet (StateNew)
	// as busy for 5 s, so one such connection — a coordinator's abandoned
	// hedge dial, say — would hold the drain to its full grace. Close them
	// once the listener is closed, and any that arrive after.
	var connMu sync.Mutex
	silent := map[net.Conn]bool{}
	draining := false
	hs.ConnState = func(c net.Conn, s http.ConnState) {
		connMu.Lock()
		defer connMu.Unlock()
		switch {
		case s != http.StateNew:
			delete(silent, c)
		case draining:
			c.Close()
		default:
			silent[c] = true
		}
	}
	hs.RegisterOnShutdown(func() {
		connMu.Lock()
		defer connMu.Unlock()
		draining = true
		for c := range silent {
			c.Close()
		}
	})
	// The resolved address (meaningful with :0) prints before serving starts,
	// so scripts and tests can scrape the port from stderr.
	fmt.Fprintf(stderr, "socserve: %s; listening on http://%s\n", banner, ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err // bind failure or unexpected listener death
	case <-ctx.Done():
	}
	fmt.Fprintf(stderr, "socserve: draining (grace %s)\n", grace)
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		_ = hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// loadWorkload resolves exactly one of the three workload sources.
func loadWorkload(logPath, dbPath string, genN int, seed int64) (*dataset.QueryLog, error) {
	sources := 0
	for _, set := range []bool{logPath != "", dbPath != "", genN > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of -log, -db, -gen is required")
	}
	switch {
	case logPath != "":
		f, err := os.Open(logPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		log, err := dataset.ReadQueryLogCSV(f)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", logPath, err)
		}
		return log, nil
	case dbPath != "":
		f, err := os.Open(dbPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tab, err := dataset.ReadTableCSV(f)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", dbPath, err)
		}
		return dataset.LogFromTable(tab), nil
	default:
		tab := gen.Cars(seed, 2000)
		return gen.RealWorkload(tab, seed+1, genN), nil
	}
}
