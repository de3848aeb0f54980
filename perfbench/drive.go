package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"standout/internal/obsv"
)

// reply is the union of the fields the benchmark reads from /solve (serve
// or coordinator) and POST /log responses.
type reply struct {
	KeptBits  string  `json:"kept_bits"`
	Satisfied int     `json:"satisfied"`
	Degraded  bool    `json:"degraded"`
	Solver    string  `json:"solver"`
	Estimated bool    `json:"estimated"`
	Partial   bool    `json:"partial"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// serve carries an estimate's interval in estimate{lo,hi}; the
	// coordinator in est_lo/est_hi.
	Estimate *struct {
		Lo int `json:"lo"`
		Hi int `json:"hi"`
	} `json:"estimate"`
	EstLo   int    `json:"est_lo"`
	EstHi   int    `json:"est_hi"`
	Queries int    `json:"queries"` // POST /log: log size after the append
	Error   string `json:"error"`
}

func (r reply) interval() (lo, hi int) {
	if r.Estimate != nil {
		return r.Estimate.Lo, r.Estimate.Hi
	}
	return r.EstLo, r.EstHi
}

// outcome is what a client saw for one operation.
type outcome struct {
	op         int   // index into the op sequence
	start, end int64 // ns since the run's epoch
	status     int
	err        string
	rep        reply
	// genLo and genHi bound the log generation (appends applied) that
	// served a solve on a growing log: every append acknowledged before the
	// send, at most every append started before the reply.
	genLo, genHi int
}

func (o outcome) ms() float64 { return float64(o.end-o.start) / 1e6 }

// driver runs closed-loop clients against one deployment.
type driver struct {
	in     *inputs
	url    string
	client *http.Client
	epoch  time.Time
	tr     *tracer // nil when untraced

	// Generation bookkeeping of a growing log: base is the start-up log
	// size, started counts appends sent, acked the highest generation an
	// append reply reported.
	base    int
	started atomic.Int64
	acked   atomic.Int64
}

func newDriver(in *inputs, d *deployment, epoch time.Time, tr *tracer) *driver {
	return &driver{
		in:     in,
		url:    d.url,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: clientTimeout},
		epoch:  epoch,
		tr:     tr,
		base:   d.log.Size(),
	}
}

const clientTimeout = 30 * time.Second

func (dr *driver) close() { dr.client.CloseIdleConnections() }

// run executes ops [from, to) of the sequence with the closed-loop clients,
// which take operations in sequence order, and returns their outcomes in
// that order.
func (dr *driver) run(ctx context.Context, from, to int) []outcome {
	outs := make([]outcome, to-from)
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to || ctx.Err() != nil {
					return
				}
				outs[i-from] = dr.do(ctx, i)
			}
		}()
	}
	wg.Wait()
	return outs
}

// traceIDs mints operation i's W3C trace and parent-span IDs; the op index
// rides in the low bytes so spans recorded behind the servers join it.
func traceIDs(i int) (obsv.TraceID, obsv.SpanID) {
	var tid obsv.TraceID
	copy(tid[:8], "perfbnch")
	binary.BigEndian.PutUint64(tid[8:], uint64(i)+1)
	var sid obsv.SpanID
	binary.BigEndian.PutUint64(sid[:], uint64(i)+1)
	return tid, sid
}

// opOf recovers the op index from a traceparent header, -1 if foreign.
func opOf(traceparent string) int {
	tid, _, err := obsv.ParseTraceparent(traceparent)
	if err != nil {
		return -1
	}
	return opOfTrace(tid)
}

func opOfTrace(tid obsv.TraceID) int {
	if string(tid[:8]) != "perfbnch" {
		return -1
	}
	return int(binary.BigEndian.Uint64(tid[8:])) - 1
}

func (dr *driver) do(ctx context.Context, i int) outcome {
	o := dr.in.seq[i]
	out := outcome{op: i}
	var path string
	var body []byte
	switch o.kind {
	case opSolve:
		path = "/solve"
		body, _ = json.Marshal(map[string]any{
			"tuple": dr.in.tuples[o.tuple].String(), "m": o.m, "algo": o.algo,
		})
		out.genLo = int(dr.acked.Load())
	case opAppend:
		path = "/log"
		qs := dr.in.appends[o.chunk]
		specs := make([]string, len(qs))
		for j, q := range qs {
			specs[j] = q.String()
		}
		body, _ = json.Marshal(map[string]any{"append": specs})
		dr.started.Add(1)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, dr.url+path, bytes.NewReader(body))
	if err != nil {
		out.err = err.Error()
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	tid, sid := traceIDs(i)
	req.Header.Set("traceparent", obsv.FormatTraceparent(tid, sid))
	var spanID uint64
	if dr.tr != nil {
		spanID = dr.tr.newID()
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 16))
	}

	out.start = time.Since(dr.epoch).Nanoseconds()
	resp, err := dr.client.Do(req)
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&out.rep)
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out.status = resp.StatusCode
	}
	out.end = time.Since(dr.epoch).Nanoseconds()
	if dr.tr != nil {
		dr.tr.add(span{ID: spanID, Op: i, Name: "client " + path, Start: out.start, End: out.end})
	}

	switch {
	case err != nil:
		out.err = err.Error()
	case out.status != http.StatusOK:
		out.err = fmt.Sprintf("status %d: %s", out.status, out.rep.Error)
	case o.kind == opAppend:
		g := int64((out.rep.Queries - dr.base) / appendBatch)
		for {
			cur := dr.acked.Load()
			if g <= cur || dr.acked.CompareAndSwap(cur, g) {
				break
			}
		}
	}
	if o.kind == opSolve {
		out.genHi = int(dr.started.Load())
	}
	return out
}
