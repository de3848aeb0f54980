package httpx_test

// Fuzz targets for the two handler stacks built on this package: serve's
// POST /score and the shard coordinator's POST /solve, each driven through
// its server's full Handler() — tracing middleware, panic boundary, method
// check, body decode, admission — with an arbitrary method and body.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
