package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"standout/internal/core"
	"standout/internal/dataset"
	"standout/internal/gen"
)

// syncBuffer lets the test read stderr while run() is still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`listening on http://([\d.:]+)`)

// startServer runs socserve's run() on a free port and returns its base URL
// plus a shutdown func that asserts a clean exit.
func startServer(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-addr", "127.0.0.1:0", "-grace", "2s"}, args...), &stdout, stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var url string
	for url == "" {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			url = "http://" + m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before binding: %v\nstderr: %s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never reported its address\nstderr: %s", stderr.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return url, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil && err != context.Canceled {
				t.Errorf("run returned %v\nstderr: %s", err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Error("server did not drain within 10s of cancellation")
		}
	}
}

func post(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

func TestServeGenWorkloadEndToEnd(t *testing.T) {
	url, shutdown := startServer(t, "-gen", "200", "-seed", "5")
	defer shutdown()

	// The advertised car from the quick start: solve it over HTTP.
	status, raw := post(t, url+"/solve", `{"tuple": "AC,ABS,Turbo,PowerLocks", "m": 2}`)
	if status != http.StatusOK {
		t.Fatalf("solve: status %d body %s", status, raw)
	}
	var sr struct {
		Kept      []string `json:"kept"`
		Satisfied int      `json:"satisfied"`
		Solver    string   `json:"solver"`
		Degraded  bool     `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	if len(sr.Kept) > 2 || sr.Solver == "" {
		t.Fatalf("implausible solve response: %+v", sr)
	}

	if status, raw = post(t, url+"/log/touch", `{}`); status != http.StatusOK {
		t.Fatalf("touch: status %d body %s", status, raw)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "standout_serve_requests_total") {
		t.Errorf("metrics endpoint missing serve counters:\n%.400s", body)
	}
}

func TestServeLogFileWorkload(t *testing.T) {
	tab := gen.Cars(1, 100)
	log := gen.RealWorkload(tab, 2, 40)
	path := filepath.Join(t.TempDir(), "queries.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteQueryLogCSV(f, log); err != nil {
		t.Fatal(err)
	}
	f.Close()

	url, shutdown := startServer(t, "-log", path)
	defer shutdown()

	resp, err := http.Get(url + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Queries int `json:"queries"`
		Width   int `json:"width"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Queries != log.Size() || stats.Width != log.Width() {
		t.Fatalf("served log %d×%d, want %d×%d", stats.Queries, stats.Width, log.Size(), log.Width())
	}
}

func TestServeFaultFlagInjectsPanics(t *testing.T) {
	url, shutdown := startServer(t, "-gen", "100", "-fault", "serve.solve:count=1:panic=boom")
	defer shutdown()

	// greedy has no fallback rung, so the injected panic surfaces as a 500 —
	// and the server stays alive for the next request.
	status, raw := post(t, url+"/solve", `{"tuple": "AC,Turbo", "m": 1, "algo": "greedy"}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d body %s", status, raw)
	}
	var e struct {
		Panic bool `json:"panic"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || !e.Panic {
		t.Fatalf("500 body does not mark panic: %s", raw)
	}
	if status, raw = post(t, url+"/solve", `{"tuple": "AC,Turbo", "m": 1, "algo": "greedy"}`); status != http.StatusOK {
		t.Fatalf("solve after injected panic: status %d body %s", status, raw)
	}
}

func TestWorkloadSourceValidation(t *testing.T) {
	for name, args := range map[string][]string{
		"none": {},
		"two":  {"-log", "x.csv", "-gen", "10"},
	} {
		var out bytes.Buffer
		err := run(context.Background(), args, &out, &out)
		if err == nil || !strings.Contains(err.Error(), "exactly one of") {
			t.Errorf("%s: err = %v, want source-validation error", name, err)
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-gen", "10", "-fault", "not a rule"}, &out, &out); err == nil {
		t.Error("bad -fault spec accepted")
	}
}

func TestRunTimeoutDrains(t *testing.T) {
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	start := time.Now()
	err := run(context.Background(),
		[]string{"-addr", "127.0.0.1:0", "-gen", "50", "-timeout", "300ms", "-grace", "2s"},
		&stdout, stderr)
	if err != nil && err != context.DeadlineExceeded {
		t.Fatalf("run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("drain took %v; -timeout did not stop the server", elapsed)
	}
	if !strings.Contains(stderr.String(), "draining") {
		t.Errorf("stderr missing drain notice: %s", stderr.String())
	}
}

func TestServeCompactFlag(t *testing.T) {
	// A workload with guaranteed duplicates: every query appears three times.
	tab := gen.Cars(3, 100)
	base := gen.RealWorkload(tab, 4, 25)
	log := dataset.NewQueryLog(base.Schema)
	for rep := 0; rep < 3; rep++ {
		for _, q := range base.Queries {
			if err := log.Append(q); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "dups.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteQueryLogCSV(f, log); err != nil {
		t.Fatal(err)
	}
	f.Close()

	url, shutdown := startServer(t, "-log", path, "-compact")
	defer shutdown()

	resp, err := http.Get(url + "/log")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Queries     int `json:"queries"`
		TotalWeight int `json:"total_weight"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// Duplicates folded into weights: fewer entries than raw, same total
	// weight, so every solve scores exactly as over the raw log.
	if stats.Queries >= log.Size() {
		t.Errorf("compacted log has %d entries, want < %d", stats.Queries, log.Size())
	}
	if stats.TotalWeight != log.Size() {
		t.Errorf("total weight %d, want %d (weight is conserved)", stats.TotalWeight, log.Size())
	}

	status, raw := post(t, url+"/solve", `{"tuple": "AC,ABS,Turbo,PowerLocks", "m": 2, "algo": "brute"}`)
	if status != http.StatusOK {
		t.Fatalf("solve: status %d body %s", status, raw)
	}
	var sr struct {
		Satisfied int `json:"satisfied"`
	}
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	// Cross-check against an in-process exact solve over the raw, uncompacted
	// log: compaction must not change any answer.
	tuple, err := dataset.ParseTuple(log.Schema, "AC,ABS,Turbo,PowerLocks")
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.BruteForce{}.Solve(core.Instance{Log: log, Tuple: tuple, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Satisfied != want.Satisfied {
		t.Errorf("compacted server satisfied %d, raw solve %d", sr.Satisfied, want.Satisfied)
	}
}

// TestServeShardedEndToEnd stands up the full multi-shard quick start from
// the README: two -shard-of backends over the same workload file and one
// -shards coordinator over both. The coordinated answer must be bit-identical
// to a single unsharded server's greedy answer, and readyz must report both
// shard circuits closed.
func TestServeShardedEndToEnd(t *testing.T) {
	tab := gen.Cars(9, 120)
	log := gen.RealWorkload(tab, 10, 60)
	tuples := gen.PickTuples(tab, 11, 3)
	path := filepath.Join(t.TempDir(), "queries.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteQueryLogCSV(f, log); err != nil {
		t.Fatal(err)
	}
	f.Close()

	whole, stopWhole := startServer(t, "-log", path)
	defer stopWhole()
	s0, stop0 := startServer(t, "-log", path, "-shard-of", "0/2")
	defer stop0()
	s1, stop1 := startServer(t, "-log", path, "-shard-of", "1/2")
	defer stop1()
	coord, stopCoord := startServer(t, "-shards", s0+","+s1)
	defer stopCoord()

	for _, tuple := range tuples {
		body := `{"tuple": "` + tuple.String() + `", "m": 3, "algo": "greedy"}`
		wantStatus, wantRaw := post(t, whole+"/solve", body)
		gotStatus, gotRaw := post(t, coord+"/solve", body)
		if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
			t.Fatalf("solve: unsharded %d (%s), sharded %d (%s)", wantStatus, wantRaw, gotStatus, gotRaw)
		}
		type answer struct {
			KeptBits  string `json:"kept_bits"`
			Satisfied int    `json:"satisfied"`
			Partial   bool   `json:"partial"`
			Shards    int    `json:"shards"`
		}
		var want, got answer
		if err := json.Unmarshal(wantRaw, &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(gotRaw, &got); err != nil {
			t.Fatal(err)
		}
		if got.KeptBits != want.KeptBits || got.Satisfied != want.Satisfied {
			t.Errorf("tuple %s: sharded (%s, %d) != unsharded (%s, %d)",
				tuple, got.KeptBits, got.Satisfied, want.KeptBits, want.Satisfied)
		}
		if got.Partial || got.Shards != 2 {
			t.Errorf("tuple %s: partial=%v shards=%d, want full over 2", tuple, got.Partial, got.Shards)
		}
	}

	resp, err := http.Get(coord + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rz struct {
		Status string `json:"status"`
		Shards []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || rz.Status != "ready" || len(rz.Shards) != 2 {
		t.Fatalf("coordinator readyz: status %d %q with %d shards, want 200 ready over 2", resp.StatusCode, rz.Status, len(rz.Shards))
	}
	for _, sh := range rz.Shards {
		if sh.State != "closed" {
			t.Errorf("shard %s circuit %q, want closed", sh.ID, sh.State)
		}
	}
}

func TestShardFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-gen", "10", "-shard-of", "5/2"}, &out, &out); err == nil {
		t.Error("out-of-range -shard-of accepted")
	}
	if err := run(context.Background(), []string{"-gen", "10", "-shard-of", "nope"}, &out, &out); err == nil {
		t.Error("malformed -shard-of accepted")
	}
	err := run(context.Background(), []string{"-shards", "http://127.0.0.1:1", "-gen", "10"}, &out, &out)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("-shards with -gen: err = %v, want mutual-exclusion error", err)
	}
}

// TestDrainClosesSilentConnections pins the drain with a connection that
// never sends a request, such as one a coordinator dialed for a hedge it then
// abandoned. http.Server.Shutdown counts such a connection as busy for 5 s,
// so unless the server closes it the drain runs to its full -grace and run
// reports a shutdown deadline.
func TestDrainClosesSilentConnections(t *testing.T) {
	url, shutdown := startServer(t, "-gen", "50")
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The listener accepts in arrival order, so once a later connection is
	// answered the silent one has been accepted too.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	start := time.Now()
	shutdown()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("drain took %v with a silent connection open, want well under the 2s grace", elapsed)
	}
}
