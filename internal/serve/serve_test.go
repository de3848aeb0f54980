package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/fault"
	"standout/internal/gen"
	"standout/internal/obsv"
)

// testWorkload builds a small car-themed workload: a query log and candidate
// tuples to solve for.
func testWorkload(t *testing.T) (*dataset.QueryLog, []bitvec.Vector) {
	t.Helper()
	tab := gen.Cars(1, 150)
	log := gen.RealWorkload(tab, 2, 50)
	tuples := gen.PickTuples(tab, 3, 8)
	return log, tuples
}

// newTestServer builds a Server on a fresh registry plus an httptest server
// mounted on its handler. mut edits the config before New.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server, *dataset.QueryLog, []bitvec.Vector) {
	t.Helper()
	log, tuples := testWorkload(t)
	cfg := Config{Log: log, Registry: obsv.NewRegistry(), Seed: 42}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, log, tuples
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return v
}

func greedyBaseline(t *testing.T, log *dataset.QueryLog, tuple bitvec.Vector, m int) int {
	t.Helper()
	sol, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: log, Tuple: tuple, M: m})
	if err != nil {
		t.Fatalf("greedy baseline: %v", err)
	}
	return sol.Satisfied
}

func TestSolveEndpoint(t *testing.T) {
	_, ts, log, tuples := newTestServer(t, nil)
	for _, spec := range []string{tuples[0].String(), strings.Join(log.Schema.Names(tuples[0]), ",")} {
		status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: spec, M: 5})
		if status != http.StatusOK {
			t.Fatalf("spec %q: status %d, body %s", spec, status, raw)
		}
		resp := decode[solveResponse](t, raw)
		if resp.Degraded {
			t.Fatalf("unloaded solve degraded: %+v", resp)
		}
		if resp.Solver != "mfi-exact" {
			t.Fatalf("default solver = %q, want mfi-exact", resp.Solver)
		}
		if base := greedyBaseline(t, log, tuples[0], 5); resp.Satisfied < base {
			t.Fatalf("exact satisfied %d < greedy baseline %d", resp.Satisfied, base)
		}
		if len(resp.Kept) > 5 {
			t.Fatalf("kept %d attrs, budget 5", len(resp.Kept))
		}
	}
}

func TestSolveValidation(t *testing.T) {
	_, ts, _, tuples := newTestServer(t, nil)
	bit := tuples[0].String()
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"unknown algo", solveRequest{Tuple: bit, M: 2, Algo: "quantum"}, http.StatusBadRequest},
		{"bad tuple", solveRequest{Tuple: "NotAnAttr,AlsoNot", M: 2}, http.StatusBadRequest},
		{"wrong width", solveRequest{Tuple: "101", M: 2}, http.StatusBadRequest},
		{"negative m", solveRequest{Tuple: bit, M: -1}, http.StatusBadRequest},
		{"garbage body", "not json at all", http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, raw := postJSON(t, ts.URL+"/solve", tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, status, tc.want, raw)
		}
		if e := decode[errorResponse](t, raw); e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
	resp, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve = %d, want 405", resp.StatusCode)
	}
}

func TestAdmissionShedsUnderOverload(t *testing.T) {
	inj := fault.New(7, fault.Rule{Site: "serve.solve", Kind: fault.KindDelay, Delay: 300 * time.Millisecond})
	srv, ts, _, tuples := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 1
		c.Injector = inj
	})
	const n = 10
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[i%len(tuples)].String(), M: 2})
			statuses[i] = status
			if status == http.StatusTooManyRequests {
				e := decode[errorResponse](t, raw)
				if e.RetryAfterMS <= 0 {
					t.Errorf("429 without retry_after_ms: %s", raw)
				}
			}
		}(i)
	}
	wg.Wait()
	shed, ok := 0, 0
	for _, s := range statuses {
		switch s {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusOK:
			ok++
		default:
			t.Errorf("unexpected status %d under overload", s)
		}
	}
	if shed == 0 {
		t.Fatalf("no requests shed with 1 slot + 1 queue and %d concurrent callers", n)
	}
	if ok == 0 {
		t.Fatal("every request shed; admitted requests should still complete")
	}
	if got := srv.met.shed.Value(); got != int64(shed) {
		t.Fatalf("shed metric %d, want %d", got, shed)
	}
}

func TestDegradationLadder(t *testing.T) {
	_, ts, log, tuples := newTestServer(t, func(c *Config) {
		// Budget floors far above any feasible request deadline: every rung
		// above greedy is skipped and the ladder bottoms out.
		c.ExactBudget = time.Hour
		c.MFIBudget = time.Hour
	})
	status, raw := postJSON(t, ts.URL+"/solve",
		solveRequest{Tuple: tuples[1].String(), M: 5, Algo: "brute", TimeoutMS: 500})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	resp := decode[solveResponse](t, raw)
	if !resp.Degraded {
		t.Fatalf("response not degraded: %+v", resp)
	}
	if resp.Solver != "greedy" {
		t.Fatalf("solver %q, want greedy", resp.Solver)
	}
	if base := greedyBaseline(t, log, tuples[1], 5); resp.Satisfied < base {
		t.Fatalf("degraded satisfied %d < greedy baseline %d", resp.Satisfied, base)
	}
}

func TestDegradedMFIBeatsGreedy(t *testing.T) {
	_, ts, log, tuples := newTestServer(t, func(c *Config) {
		c.ExactBudget = time.Hour // exact rung always skipped
		c.MFIBudget = time.Millisecond
	})
	status, raw := postJSON(t, ts.URL+"/solve",
		solveRequest{Tuple: tuples[2].String(), M: 4, Algo: "ip", TimeoutMS: 2000})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	resp := decode[solveResponse](t, raw)
	if !resp.Degraded || resp.Solver != "mfi-exact" {
		t.Fatalf("want degraded mfi-exact, got %+v", resp)
	}
	if base := greedyBaseline(t, log, tuples[2], 4); resp.Satisfied < base {
		t.Fatalf("degraded satisfied %d < greedy baseline %d", resp.Satisfied, base)
	}
}

func TestPanicBecomesError(t *testing.T) {
	// Count=1: the first solve panics, everything after works — proving one
	// panic neither kills the process nor poisons later requests.
	inj := fault.New(11, fault.Rule{Site: "serve.solve", Kind: fault.KindPanic, Count: 1, Msg: "chaos"})
	srv, ts, _, tuples := newTestServer(t, func(c *Config) { c.Injector = inj })

	status, raw := postJSON(t, ts.URL+"/solve",
		solveRequest{Tuple: tuples[0].String(), M: 2, Algo: "greedy"})
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking solve: status %d, body %s", status, raw)
	}
	if e := decode[errorResponse](t, raw); !e.Panic {
		t.Fatalf("500 body does not mark panic: %s", raw)
	}
	if srv.met.panics.Value() == 0 {
		t.Fatal("panic metric not incremented")
	}

	status, raw = postJSON(t, ts.URL+"/solve",
		solveRequest{Tuple: tuples[0].String(), M: 2, Algo: "greedy"})
	if status != http.StatusOK {
		t.Fatalf("solve after panic: status %d, body %s", status, raw)
	}
}

func TestPanicOnUpperRungDegrades(t *testing.T) {
	// The requested rung panics once; the ladder recovers it and serves a
	// degraded answer from a lower rung instead of failing the request.
	inj := fault.New(13, fault.Rule{Site: "serve.solve", Kind: fault.KindPanic, Count: 1})
	_, ts, log, tuples := newTestServer(t, func(c *Config) { c.Injector = inj })
	status, raw := postJSON(t, ts.URL+"/solve",
		solveRequest{Tuple: tuples[3].String(), M: 5, Algo: "mfi-exact", TimeoutMS: 2000})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	resp := decode[solveResponse](t, raw)
	if !resp.Degraded || resp.Solver != "greedy" {
		t.Fatalf("want degraded greedy fallback, got %+v", resp)
	}
	if base := greedyBaseline(t, log, tuples[3], 5); resp.Satisfied < base {
		t.Fatalf("degraded satisfied %d < greedy baseline %d", resp.Satisfied, base)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts, log, tuples := newTestServer(t, nil)
	specs := []string{tuples[0].String(), "NotAnAttribute", tuples[1].String()}
	status, raw := postJSON(t, ts.URL+"/solve/batch", batchRequest{Tuples: specs, M: 5})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, raw)
	}
	resp := decode[batchResponse](t, raw)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[1].Error == "" || resp.Results[1].Result != nil {
		t.Fatalf("malformed tuple not attributed: %+v", resp.Results[1])
	}
	for _, i := range []int{0, 2} {
		r := resp.Results[i].Result
		if r == nil {
			t.Fatalf("tuple %d failed: %+v", i, resp.Results[i])
		}
		tuple, m := tuples[0], 5
		if i == 2 {
			tuple = tuples[1]
		}
		if base := greedyBaseline(t, log, tuple, m); r.Satisfied < base {
			t.Fatalf("tuple %d satisfied %d < greedy baseline %d", i, r.Satisfied, base)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	_, ts, _, tuples := newTestServer(t, func(c *Config) { c.MaxBatch = 2 })
	for name, req := range map[string]batchRequest{
		"empty":     {M: 2},
		"oversized": {Tuples: []string{tuples[0].String(), tuples[1].String(), tuples[2].String()}, M: 2},
		"bad algo":  {Tuples: []string{tuples[0].String()}, M: 2, Algo: "nope"},
	} {
		if status, raw := postJSON(t, ts.URL+"/solve/batch", req); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, status, raw)
		}
	}
}

func TestLogAppendIsCopyOnWrite(t *testing.T) {
	srv, ts, log, tuples := newTestServer(t, nil)
	before := srv.CurrentLog()
	status, raw := postJSON(t, ts.URL+"/log", appendRequest{Append: []string{tuples[0].String(), tuples[1].String()}})
	if status != http.StatusOK {
		t.Fatalf("append: status %d, body %s", status, raw)
	}
	stats := decode[logResponse](t, raw)
	if stats.Queries != log.Size()+2 {
		t.Fatalf("appended log size %d, want %d", stats.Queries, log.Size()+2)
	}
	if srv.CurrentLog() == before {
		t.Fatal("append mutated in place; want copy-on-write swap")
	}
	if before.Size() != log.Size() {
		t.Fatalf("old generation grew to %d; in-flight snapshots are no longer consistent", before.Size())
	}
	// The new generation serves solves.
	if status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[0].String(), M: 2}); status != http.StatusOK {
		t.Fatalf("solve after swap: status %d, body %s", status, raw)
	}
}

// TestLogRejectedAppendKeepsStore: a batch rejected on a bad query in its
// middle leaves the log's store untouched, so the next good append still
// extends the current generation in place, copying nothing, and a delta
// prep serves it.
func TestLogRejectedAppendKeepsStore(t *testing.T) {
	srv, ts, _, tuples := newTestServer(t, nil)
	post := func(want int, specs ...string) {
		t.Helper()
		if status, raw := postJSON(t, ts.URL+"/log", appendRequest{Append: specs}); status != want {
			t.Fatalf("append %v: status %d, want %d, body %s", specs, status, want, raw)
		}
	}
	solve := func() {
		t.Helper()
		if status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[0].String(), M: 2}); status != http.StatusOK {
			t.Fatalf("solve: status %d, body %s", status, raw)
		}
	}
	post(http.StatusOK, tuples[1].String()) // the start-up log's first Extend copies it into a store
	solve()
	gen := srv.CurrentLog()
	deltas := srv.met.prepDeltas.Value()

	post(http.StatusBadRequest, tuples[2].String(), "no-such-attribute", tuples[3].String())
	if srv.CurrentLog() != gen {
		t.Fatal("a rejected batch replaced the current generation")
	}
	post(http.StatusOK, tuples[4].String())
	next := srv.CurrentLog()
	if next.Size() != gen.Size()+1 || &next.Queries[0] != &gen.Queries[0] {
		t.Fatalf("the append after a rejected batch did not extend the store in place (size %d → %d)",
			gen.Size(), next.Size())
	}
	solve()
	if got := srv.met.prepDeltas.Value(); got <= deltas {
		t.Fatalf("no delta prep after the rejected batch (delta builds %d → %d)", deltas, got)
	}
}

func TestTouchForcesRebuild(t *testing.T) {
	srv, ts, _, tuples := newTestServer(t, nil)
	if status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[0].String(), M: 2}); status != http.StatusOK {
		t.Fatalf("warmup solve: %d %s", status, raw)
	}
	rebuilds := srv.met.prepRebuilds.Value()
	status, _ := postJSON(t, ts.URL+"/log/touch", struct{}{})
	if status != http.StatusOK {
		t.Fatalf("touch: status %d", status)
	}
	if status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[1].String(), M: 2}); status != http.StatusOK {
		t.Fatalf("solve after touch: %d %s", status, raw)
	}
	if got := srv.met.prepRebuilds.Value(); got <= rebuilds {
		t.Fatalf("no prep rebuild after touch (rebuilds %d → %d)", rebuilds, got)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	_, ts, _, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	// readyz flips to 200 once the kick it issues finishes the index build.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz = %d, want 200 or 503", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReadinessStartsOneBuild: readiness polls while the start-up build
// runs join that one build: none starts another, and none leaves a
// goroutine behind waiting on it.
func TestReadinessStartsOneBuild(t *testing.T) {
	srv, _, _, _ := newTestServer(t, func(c *Config) {
		c.Injector = fault.New(1, fault.Rule{Site: "core.prep.build", Count: 1, Kind: fault.KindDelay, Delay: time.Second})
	})
	poll := func() int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code
	}
	if code := poll(); code != http.StatusServiceUnavailable {
		t.Fatalf("first readyz = %d, want 503 while the index builds", code)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 199; i++ {
		poll()
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("200 readiness polls left %d goroutines, %d after the first", after, before)
	}
	if got := srv.met.prepRebuilds.Value(); got != 1 {
		t.Errorf("200 readiness polls started %d builds, want 1", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for poll() != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("readyz never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.met.prepRebuilds.Value(); got != 1 {
		t.Errorf("start-up took %d builds, want 1", got)
	}
}

// TestOlderGenerationSolvesWithoutIndex: a solve of the start-up log after
// an append's generation has been prepared is answered without an index.
// The cache builds nothing for the older generation and keeps the newer
// generation's prep.
func TestOlderGenerationSolvesWithoutIndex(t *testing.T) {
	srv, ts, log, tuples := newTestServer(t, nil)
	if status, raw := postJSON(t, ts.URL+"/log", appendRequest{Append: []string{tuples[1].String()}}); status != http.StatusOK {
		t.Fatalf("append: status %d body %s", status, raw)
	}
	if status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[0].String(), M: 4, Algo: "greedy"}); status != http.StatusOK {
		t.Fatalf("solve: status %d body %s", status, raw)
	}
	p1 := srv.prep.snapshot()
	if !usable(p1, srv.CurrentLog()) {
		t.Fatal("the solve did not cache the appended generation's prep")
	}
	indexBuilds := obsv.Default.Counter("standout_index_builds_total", "")
	rebuilds, builds := srv.met.prepRebuilds.Value(), indexBuilds.Value()

	sol, used, _, err := srv.solveLadder(context.Background(), "greedy", log, tuples[2], 4)
	if err != nil {
		t.Fatalf("solve of the start-up generation via %s: %v", used, err)
	}
	if got := srv.met.prepRebuilds.Value(); got != rebuilds {
		t.Errorf("prep rebuilds %d → %d for an older generation", rebuilds, got)
	}
	if got := indexBuilds.Value(); got != builds {
		t.Errorf("index builds %d → %d for an older generation", builds, got)
	}
	if srv.prep.snapshot() != p1 {
		t.Error("the older generation replaced the newer generation's prep")
	}
	want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: log, Tuple: tuples[2], M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Kept.Equal(want.Kept) || sol.Satisfied != want.Satisfied {
		t.Errorf("start-up generation: kept %s satisfying %d, ConsumeAttrCumul keeps %s satisfying %d",
			sol.Kept, sol.Satisfied, want.Kept, want.Satisfied)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts, _, tuples := newTestServer(t, nil)
	postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[0].String(), M: 2})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"standout_serve_requests_total 1",
		"# TYPE standout_serve_request_seconds histogram",
		"standout_serve_shed_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if err := obsv.LintProm(string(body)); err != nil {
		t.Errorf("metrics output fails lint: %v", err)
	}
}

func TestSwapRejectsWidthMismatch(t *testing.T) {
	srv, _, _, _ := newTestServer(t, nil)
	schema, err := dataset.NewSchema([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Swap(dataset.NewQueryLog(schema)); err == nil {
		t.Fatal("Swap accepted a log of a different width")
	}
}

func TestTimeoutClamp(t *testing.T) {
	s, _, _, _ := newTestServer(t, func(c *Config) {
		c.DefaultTimeout = 123 * time.Millisecond
		c.MaxTimeout = time.Second
	})
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{0, 123 * time.Millisecond},
		{-5, 123 * time.Millisecond},
		{500, 500 * time.Millisecond},
		{50_000, time.Second},
	} {
		if got := s.timeoutFor(tc.ms); got != tc.want {
			t.Errorf("timeoutFor(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil log")
	}
	// A fresh server derives every unset knob.
	log, _ := testWorkload(t)
	s, err := New(Config{Log: log, Registry: obsv.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, v := range map[string]int{
		"MaxConcurrent": s.cfg.MaxConcurrent,
		"MaxQueue":      s.cfg.MaxQueue,
		"MaxBatch":      s.cfg.MaxBatch,
	} {
		if v <= 0 {
			t.Errorf("default %s = %d, want > 0", name, v)
		}
	}
	if s.cfg.DefaultTimeout <= 0 || s.cfg.MaxTimeout < s.cfg.DefaultTimeout {
		t.Errorf("default timeouts %v/%v inconsistent", s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	}
}

func TestAlgoNamesSortedAndComplete(t *testing.T) {
	names := AlgoNames()
	if len(names) != len(algorithms) {
		t.Fatalf("AlgoNames lists %d of %d algorithms", len(names), len(algorithms))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("AlgoNames not sorted: %v", names)
		}
	}
	// Every name constructs a working solver.
	for _, n := range names {
		if s := algorithms[n](2); s == nil {
			t.Fatalf("algorithm %q constructs nil", n)
		}
	}
}

func ExampleAlgoNames() {
	fmt.Println(strings.Join(AlgoNames(), " "))
	// Output: brute consumeattr consumeattrcumul consumequeries estimate greedy ilp ip mfi mfi-exact
}
