package serve

// Benchmark of one shard's /score request through the full handler path —
// tracing middleware, JSON decode, candidate parsing, admission, the count
// itself, JSON encode — on the data the sharded deployment serves: partition
// 0 of a 4-way shard.Partition of gen.RealWorkload's 200,000 raw queries over
// the Cars schema, compacted. The candidates are those of the core
// benchmarks BenchmarkCountContaining/prepared (superset) and
// BenchmarkCountSatisfied (subset), so the difference from those is the
// handler's and the codec's share. Run with
//
//	go test -run '^$' -bench ScoreHandler -benchmem -cpu 1 ./internal/serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"standout/internal/bitvec"
	"standout/internal/compact"
	"standout/internal/gen"
	"standout/internal/obsv"
	"standout/internal/shard"
)

func BenchmarkScoreHandler(b *testing.B) {
	ctx := context.Background()
	log, _ := compact.Compact(gen.RealWorkload(gen.Cars(1000, 2000), 1001, 200000))
	parts, err := shard.Partition(ctx, log, 4)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Log: parts[0], Registry: obsv.NewRegistry(), Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Warm the prep and wait for the estimator model its build starts in
	// the background, so no request pays either.
	p, err := s.prep.get(ctx, s.CurrentLog())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.EstimatorModel(ctx); err != nil {
		b.Fatal(err)
	}

	freq := log.AttrFrequencies()
	var superset, subset [][]byte
	for _, tuple := range gen.PickTuples(gen.Cars(1003, 2000), 1003, 64) {
		ones := tuple.Ones()
		// One cumulative-greedy round: the tuple's two attributes most
		// frequent in the log, plus each other attribute in turn.
		byFreq := append([]int(nil), ones...)
		sort.SliceStable(byFreq, func(i, j int) bool { return freq[byFreq[i]] > freq[byFreq[j]] })
		var round []string
		for _, j := range byFreq[2:] {
			round = append(round, bitvec.FromIndices(log.Width(), byFreq[0], byFreq[1], j).String())
		}
		// One brute batch: the first 256 three-attribute compressions in
		// lexicographic order.
		var batch []string
	enum:
		for x := range ones {
			for y := x + 1; y < len(ones); y++ {
				for z := y + 1; z < len(ones); z++ {
					if len(batch) == 256 {
						break enum
					}
					batch = append(batch, bitvec.FromIndices(log.Width(), ones[x], ones[y], ones[z]).String())
				}
			}
		}
		if len(round) > 0 {
			superset = append(superset, scoreBody(b, "superset", round))
		}
		if len(batch) == 256 {
			subset = append(subset, scoreBody(b, "subset", batch))
		}
	}

	h := s.Handler()
	for _, bc := range []struct {
		mode   string
		bodies [][]byte
	}{{"superset", superset}, {"subset", subset}} {
		b.Run(bc.mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(bc.bodies[i%len(bc.bodies)]))
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
				}
			}
		})
	}
}

func scoreBody(b *testing.B, mode string, cands []string) []byte {
	body, err := json.Marshal(scoreRequest{Mode: mode, Candidates: cands})
	if err != nil {
		b.Fatal(err)
	}
	return body
}
