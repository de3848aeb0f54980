package httpx_test

// Fuzz targets for the handler stacks built on this package: serve's
// /score, /solve, /solve/batch and /log, and the shard coordinator's
// POST /solve, each driven through its server's full Handler() — tracing
// middleware, panic boundary, method check, body decode, admission — with an
// arbitrary method and body.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/dataset"
	"standout/internal/httpx"
	"standout/internal/obsv"
	"standout/internal/serve"
	"standout/internal/shard"
)

// fuzzLog is a narrow weighted log over 8 generic attributes, so every
// solve the fuzzers trigger (brute included) stays fast.
func fuzzLog() *dataset.QueryLog {
	r := rand.New(rand.NewSource(5))
	log := dataset.NewQueryLog(dataset.GenericSchema(8))
	for i := 0; i < 48; i++ {
		q := bitvec.New(8)
		for n := 1 + r.Intn(3); q.Count() < n; {
			q.Set(r.Intn(8))
		}
		if err := log.AppendWeighted(q, 1+r.Intn(3)); err != nil {
			panic(err)
		}
	}
	return log
}

// checkResponse serves one request and checks what every answer must
// satisfy: no 500, a JSON body, and for an error a message plus the trace
// ID the X-Request-Id header reports.
func checkResponse(t *testing.T, h http.Handler, method, path string, body []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Method = method
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("%s %s %q: 500: %s", method, path, body, rec.Body)
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s %s %q: status %d, body is not JSON: %q", method, path, body, rec.Code, rec.Body)
	}
	if rec.Code < 400 {
		return
	}
	var e httpx.ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("%s %s %q: status %d, error body: %v", method, path, body, rec.Code, err)
	}
	if e.Error == "" {
		t.Fatalf("%s %s %q: status %d with an empty error: %s", method, path, body, rec.Code, rec.Body)
	}
	if id := rec.Header().Get("X-Request-Id"); id == "" || e.TraceID != id {
		t.Fatalf("%s %s %q: error trace_id %q, X-Request-Id %q", method, path, body, e.TraceID, id)
	}
}

// FuzzScoreHandler drives serve's POST /score.
func FuzzScoreHandler(f *testing.F) {
	srv, err := serve.New(serve.Config{Log: fuzzLog(), Registry: obsv.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		checkResponse(t, h, method, "/score", body)
	})
}

// FuzzCoordinatorSolve drives the coordinator's POST /solve over two
// in-process Local shards.
func FuzzCoordinatorSolve(f *testing.F) {
	log := fuzzLog()
	parts, err := shard.Partition(context.Background(), log, 2)
	if err != nil {
		f.Fatal(err)
	}
	var backends []shard.Backend
	for i, p := range parts {
		l, err := shard.NewLocal(context.Background(), fmt.Sprintf("s%d", i), p)
		if err != nil {
			f.Fatal(err)
		}
		backends = append(backends, l)
	}
	srv, err := shard.NewServer(shard.Config{Backends: backends, Schema: log.Schema, Registry: obsv.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		checkResponse(t, h, method, "/solve", body)
	})
}

// FuzzSolveHandler drives serve's POST /solve.
func FuzzSolveHandler(f *testing.F) {
	srv, err := serve.New(serve.Config{Log: fuzzLog(), Registry: obsv.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		checkResponse(t, h, method, "/solve", body)
	})
}

// FuzzSolveBatchHandler drives serve's POST /solve/batch.
func FuzzSolveBatchHandler(f *testing.F) {
	srv, err := serve.New(serve.Config{Log: fuzzLog(), Registry: obsv.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		checkResponse(t, h, method, "/solve/batch", body)
	})
}

// logStats is the body of GET and POST /log.
type logStats struct {
	Queries     int    `json:"queries"`
	TotalWeight int    `json:"total_weight"`
	Version     uint64 `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

func getLog(t *testing.T, h http.Handler) logStats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/log", nil))
	var st logStats
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("GET /log: status %d, body %s", rec.Code, rec.Body)
	}
	return st
}

// FuzzLogHandler drives serve's /log on a fresh server per input. An
// accepted append must grow the log by exactly the queries and weight sent;
// a refused one must leave it as it was. After an accepted append, an
// estimate solve — whose model the new generation derives from the
// previous one — must certify an interval containing the exact count.
func FuzzLogHandler(f *testing.F) {
	f.Fuzz(func(t *testing.T, method string, body []byte) {
		srv, err := serve.New(serve.Config{Log: fuzzLog(), Registry: obsv.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		h := srv.Handler()
		// Solve once first so the starting generation has a warm prep for
		// the append's generation to extend.
		checkResponse(t, h, http.MethodPost, "/solve", []byte(`{"tuple":"11111111","m":3,"algo":"estimate"}`))
		before := getLog(t, h)

		req := httptest.NewRequest(http.MethodPost, "/log", bytes.NewReader(body))
		req.Method = method
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		after := getLog(t, h)
		if rec.Code >= 400 || method != http.MethodPost {
			if after != before {
				t.Fatalf("%s /log %q: status %d changed the log from %+v to %+v", method, body, rec.Code, before, after)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("POST /log %q: status %d", body, rec.Code)
		}
		var sent struct {
			Append  []string `json:"append"`
			Weights []int    `json:"weights"`
		}
		if err := json.Unmarshal(body, &sent); err != nil {
			t.Fatalf("POST /log %q accepted, but the body does not decode: %v", body, err)
		}
		weight := len(sent.Append)
		if sent.Weights != nil {
			weight = 0
			for _, w := range sent.Weights {
				weight += w
			}
		}
		if after.Queries != before.Queries+len(sent.Append) || after.TotalWeight != before.TotalWeight+weight {
			t.Fatalf("POST /log %q: log went from %+v to %+v, sent %d queries of weight %d",
				body, before, after, len(sent.Append), weight)
		}

		m := len(body) % 9
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve",
			strings.NewReader(fmt.Sprintf(`{"tuple":"11111111","m":%d,"algo":"estimate"}`, m))))
		var sol struct {
			KeptBits string `json:"kept_bits"`
			Estimate *struct {
				Lo int `json:"lo"`
				Hi int `json:"hi"`
			} `json:"estimate"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sol) != nil || sol.Estimate == nil {
			t.Fatalf("estimate solve after append: status %d, body %s", rec.Code, rec.Body)
		}
		log := srv.CurrentLog()
		kept, err := dataset.ParseTuple(log.Schema, sol.KeptBits)
		if err != nil {
			t.Fatal(err)
		}
		if exact := log.Satisfied(kept); exact < sol.Estimate.Lo || exact > sol.Estimate.Hi {
			t.Fatalf("after POST /log %q: interval [%d,%d] misses exact %d", body, sol.Estimate.Lo, sol.Estimate.Hi, exact)
		}
	})
}
