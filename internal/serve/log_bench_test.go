package serve

// Benchmark of one 8-query POST /log through the full handler path —
// tracing middleware, JSON decode, query parsing, the log's Extend and
// appends, the reply's fingerprint, JSON encode — on a serve node over
// gen.RealWorkload's 200,000 raw queries over the Cars schema, compacted,
// with a warm prep. Like the append rounds of the ingest-mixed workload,
// every 34 appends start a fresh server over the start-up log (untimed), so
// the log a request extends stays near the start-up size. Run with
//
//	go test -run '^$' -bench LogAppend -benchmem -cpu 1 ./internal/serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"standout/internal/compact"
	"standout/internal/gen"
	"standout/internal/obsv"
)

func BenchmarkLogAppend(b *testing.B) {
	const (
		batch = 8  // queries per append
		round = 34 // appends per server
	)
	ctx := context.Background()
	tab := gen.Cars(1000, 2000)
	log, _ := compact.Compact(gen.RealWorkload(tab, 1001, 200000))
	extra := gen.RealWorkload(tab, 1002, batch*round)
	bodies := make([][]byte, round)
	for i := range bodies {
		specs := make([]string, batch)
		for j := range specs {
			specs[j] = extra.Queries[i*batch+j].String()
		}
		body, err := json.Marshal(appendRequest{Append: specs})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}

	var s *Server
	var h http.Handler
	start := func() {
		if s != nil {
			s.Close()
		}
		var err error
		if s, err = New(Config{Log: log, Registry: obsv.NewRegistry(), Seed: 42}); err != nil {
			b.Fatal(err)
		}
		p, err := s.prep.get(ctx, s.CurrentLog())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.EstimatorModel(ctx); err != nil {
			b.Fatal(err)
		}
		h = s.Handler()
	}
	defer func() { s.Close() }()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%round == 0 {
			b.StopTimer()
			start()
			b.StartTimer()
		}
		req := httptest.NewRequest(http.MethodPost, "/log", bytes.NewReader(bodies[i%round]))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}
