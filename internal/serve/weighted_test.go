package serve

// Weighted-workload suite: the serving layer over logs whose entries carry
// multiplicities — the shape internal/compact produces and PR 8's weighted
// /log appends feed back. Every invariant the unweighted tests establish must
// hold with weights in play: the degradation ladder's greedy floor, /log's
// total-weight bookkeeping across append generations, and survival under the
// full chaos storm.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"standout/internal/bitvec"
	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/gen"
	"standout/internal/obsv"
)

// weightedWorkload builds a car-themed query log with seeded non-unit weights
// (the compacted-duplicates shape) plus candidate tuples.
func weightedWorkload(t *testing.T, seed int64) (*dataset.QueryLog, []bitvec.Vector) {
	t.Helper()
	tab := gen.Cars(seed, 150)
	base := gen.RealWorkload(tab, seed+1, 50)
	tuples := gen.PickTuples(tab, seed+2, 8)
	rng := rand.New(rand.NewSource(seed + 3))
	log := dataset.NewQueryLog(base.Schema)
	for _, q := range base.Queries {
		if err := log.AppendWeighted(q, 1+rng.Intn(7)); err != nil {
			t.Fatalf("AppendWeighted: %v", err)
		}
	}
	if log.TotalWeight() <= log.Size() {
		t.Fatalf("weighted workload degenerated to unit weights (%d entries, weight %d)",
			log.Size(), log.TotalWeight())
	}
	return log, tuples
}

// newWeightedServer is newTestServer over a weighted log.
func newWeightedServer(t *testing.T, seed int64, mut func(*Config)) (*Server, *httptest.Server, *dataset.QueryLog, []bitvec.Vector) {
	t.Helper()
	log, tuples := weightedWorkload(t, seed)
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

// TestDegradationLadderWeightedLog forces the ladder to its greedy floor on a
// weighted log: the degraded 200 must reproduce core.ConsumeAttrCumul's
// weighted answer exactly, not merely some unweighted approximation of it.
func TestDegradationLadderWeightedLog(t *testing.T) {
	_, ts, log, tuples := newWeightedServer(t, 11, func(c *Config) {
		c.ExactBudget = time.Hour // every rung above greedy is skipped
		c.MFIBudget = time.Hour
	})
	for _, tuple := range tuples[:3] {
		status, raw := postJSON(t, ts.URL+"/solve",
			solveRequest{Tuple: tuple.String(), M: 5, Algo: "brute", TimeoutMS: 500})
		if status != http.StatusOK {
			t.Fatalf("status %d, body %s", status, raw)
		}
		resp := decode[solveResponse](t, raw)
		if !resp.Degraded || resp.Solver != "greedy" {
			t.Fatalf("want degraded greedy, got %+v", resp)
		}
		want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: log, Tuple: tuple, M: 5})
		if err != nil {
			t.Fatalf("weighted greedy baseline: %v", err)
		}
		if resp.Satisfied != want.Satisfied {
			t.Errorf("tuple %s: degraded satisfied %d, weighted greedy %d", tuple, resp.Satisfied, want.Satisfied)
		}
	}
}

// TestLogTotalWeightAfterWeightedAppends walks /log through several weighted
// append generations and checks the total-weight bookkeeping at every step:
// queries grow by entries, total_weight by the weight sum, and a solve after
// the appends reflects the weighted log exactly.
func TestLogTotalWeightAfterWeightedAppends(t *testing.T) {
	srv, ts, log, tuples := newWeightedServer(t, 13, nil)
	status, raw := postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[0].String(), M: 4, Algo: "greedy"})
	if status != http.StatusOK {
		t.Fatalf("pre-append solve: status %d body %s", status, raw)
	}

	resp, err := http.Get(ts.URL + "/log")
	if err != nil {
		t.Fatal(err)
	}
	stats := decode[logResponse](t, read(t, resp))
	if stats.TotalWeight != log.TotalWeight() || stats.Queries != log.Size() {
		t.Fatalf("/log reports %d×%d, log is %d×%d",
			stats.Queries, stats.TotalWeight, log.Size(), log.TotalWeight())
	}

	// Mirror the appends locally so the post-append solve can be checked
	// bit-for-bit against a core solve over the same weighted log.
	mirror := dataset.NewQueryLog(log.Schema)
	for i, q := range log.Queries {
		if err := mirror.AppendWeighted(q, log.Weight(i)); err != nil {
			t.Fatal(err)
		}
	}
	gens := []struct {
		specs   []string
		weights []int
	}{
		{[]string{tuples[1].String(), tuples[2].String()}, []int{5, 9}},
		{[]string{tuples[3].String()}, nil}, // unweighted append: weight 1
		{[]string{tuples[1].String()}, []int{12}},
	}
	wantQ, wantW := stats.Queries, stats.TotalWeight
	for gi, g := range gens {
		status, raw := postJSON(t, ts.URL+"/log", appendRequest{Append: g.specs, Weights: g.weights})
		if status != http.StatusOK {
			t.Fatalf("gen %d append: status %d body %s", gi, status, raw)
		}
		after := decode[logResponse](t, raw)
		wantQ += len(g.specs)
		for i, spec := range g.specs {
			w := 1
			if g.weights != nil {
				w = g.weights[i]
			}
			wantW += w
			q, err := dataset.ParseTuple(log.Schema, spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := mirror.AppendWeighted(q, w); err != nil {
				t.Fatal(err)
			}
		}
		if after.Queries != wantQ || after.TotalWeight != wantW {
			t.Fatalf("gen %d: /log reports %d×%d, want %d×%d",
				gi, after.Queries, after.TotalWeight, wantQ, wantW)
		}
	}

	status, raw = postJSON(t, ts.URL+"/solve", solveRequest{Tuple: tuples[1].String(), M: 4, Algo: "greedy", TimeoutMS: 2000})
	if status != http.StatusOK {
		t.Fatalf("post-append solve: status %d body %s", status, raw)
	}
	got := decode[solveResponse](t, raw)
	want, err := core.ConsumeAttrCumul{}.Solve(core.Instance{Log: mirror, Tuple: tuples[1], M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.Satisfied != want.Satisfied {
		t.Errorf("post-append satisfied %d, weighted mirror %d", got.Satisfied, want.Satisfied)
	}

	// Validation: mismatched weight vector and sub-unit weights are 400s that
	// leave the log untouched.
	for name, req := range map[string]appendRequest{
		"length mismatch": {Append: []string{tuples[0].String()}, Weights: []int{1, 2}},
		"zero weight":     {Append: []string{tuples[0].String()}, Weights: []int{0}},
		"negative weight": {Append: []string{tuples[0].String()}, Weights: []int{-3}},
	} {
		status, raw := postJSON(t, ts.URL+"/log", req)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", name, status, raw)
		}
	}
	if cur := srv.CurrentLog(); cur.Size() != wantQ || cur.TotalWeight() != wantW {
		t.Errorf("rejected appends mutated the log: %d×%d, want %d×%d",
			cur.Size(), cur.TotalWeight(), wantQ, wantW)
	}
}

func read(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return raw
}

// TestLogRepliesMatchScratchHash checks every GET /log, POST /log and
// /log/touch reply on a weighted log against a from-scratch hash of the
// generation it reports. The replies fold the cached prep's rolling state
// when they can (appends one or several generations past a warm prep) and
// hash from scratch when they must (no prep yet, a touched lineage, a
// generation older than the prep's snapshot).
func TestLogRepliesMatchScratchHash(t *testing.T) {
	srv, ts, _, tuples := newWeightedServer(t, 29, nil)
	ctx := context.Background()
	check := func(step string, got logResponse, log *dataset.QueryLog) {
		t.Helper()
		want := logResponse{
			Queries:     log.Size(),
			TotalWeight: log.TotalWeight(),
			Width:       log.Width(),
			Version:     log.Version(),
			Fingerprint: fmt.Sprintf("%016x", log.Fingerprint()),
		}
		if got != want {
			t.Fatalf("%s: reply %+v, from scratch %+v", step, got, want)
		}
	}
	get := func(step string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/log")
		if err != nil {
			t.Fatal(err)
		}
		check(step, decode[logResponse](t, read(t, resp)), srv.CurrentLog())
	}
	post := func(step, path string, body any) {
		t.Helper()
		status, raw := postJSON(t, ts.URL+path, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", step, status, raw)
		}
		check(step, decode[logResponse](t, raw), srv.CurrentLog())
	}
	appendQueries := func(step string, weights []int, picks ...int) {
		t.Helper()
		specs := make([]string, len(picks))
		for i, k := range picks {
			specs[i] = tuples[k].String()
		}
		post(step, "/log", appendRequest{Append: specs, Weights: weights})
	}
	warm := func() {
		t.Helper()
		if _, err := srv.prep.get(ctx, srv.CurrentLog()); err != nil {
			t.Fatal(err)
		}
	}

	get("start-up log")
	warm()
	get("warm prep")
	appendQueries("append past the prep", []int{3, 1}, 0, 1)
	get("one generation past the prep")
	appendQueries("second append past the same prep", nil, 2)
	appendQueries("third append past the same prep", []int{8}, 3)
	old := srv.CurrentLog()
	warm()
	appendQueries("append past the rebuilt prep", []int{2}, 4)
	warm()
	check("generation older than the prep", srv.logStats(old), old)
	post("touch", "/log/touch", struct{}{})
	appendQueries("append past a touched prep", []int{5}, 5)
	get("after the touch")
	warm()
	appendQueries("append past the post-touch prep", nil, 6, 7)
	get("end")
}

// TestChaosStormWeightedLog runs the full fault storm over a weighted log
// with a stable generation: every 200 must clear the WEIGHTED greedy
// baseline. A weight-blind rung would undercount and fail invariant 3 here
// even where the unweighted storm passes.
func TestChaosStormWeightedLog(t *testing.T) {
	srv, ts, log, tuples := newWeightedServer(t, 17, func(c *Config) {
		c.Injector = chaosInjector(4)
		c.MaxConcurrent = 4
		c.MaxQueue = 8
		c.ExactBudget = 50 * time.Millisecond
		c.MFIBudget = 5 * time.Millisecond
		c.GreedyReserve = 2 * time.Millisecond
	})
	storm(t, ts, log, tuples, 400, 8, 25, false)
	if srv.met.requests.Value() == 0 {
		t.Fatal("weighted storm sent no requests")
	}
	t.Logf("weighted storm: requests=%d shed=%d degraded=%d panics=%d total_weight=%d",
		srv.met.requests.Value(), srv.met.shed.Value(), srv.met.degraded.Value(),
		srv.met.panics.Value(), log.TotalWeight())
}
