package shard

import (
	"strings"

	"standout/internal/obsv"
)

// metrics is the coordinator's instrument set, registered get-or-create so
// multiple coordinators in one process share counters. Per-shard breaker
// states are gauges named by shard id (the registry has no label support):
// 0 = closed, 1 = half-open, 2 = open.
type metrics struct {
	requests    *obsv.Counter
	partials    *obsv.Counter
	degraded    *obsv.Counter
	failures    *obsv.Counter
	timeouts    *obsv.Counter
	shed        *obsv.Counter
	restarts    *obsv.Counter
	shardCalls  *obsv.Counter
	shardErrors *obsv.Counter
	retries     *obsv.Counter
	hedges      *obsv.Counter
	hedgeWins   *obsv.Counter
	trips       *obsv.Counter
	fastFails   *obsv.Counter
	latency     *obsv.Histogram
	inflight    *obsv.Gauge
	queueDepth  *obsv.Gauge
}

func newMetrics(r *obsv.Registry) *metrics {
	return &metrics{
		requests: r.Counter("standout_shard_requests_total",
			"Coordinated solve requests accepted for parsing."),
		partials: r.Counter("standout_shard_partial_total",
			"Responses computed over a reduced shard set (exact lower bounds)."),
		degraded: r.Counter("standout_shard_degraded_total",
			"Responses served by a cheaper algorithm than requested (budget ladder)."),
		failures: r.Counter("standout_shard_failures_total",
			"Requests answered 5xx (every shard lost, or coordinator faults)."),
		timeouts: r.Counter("standout_shard_timeouts_total",
			"Requests whose whole deadline budget expired (504)."),
		shed: r.Counter("standout_shard_shed_total",
			"Requests rejected with 429 because the admission queue was full."),
		restarts: r.Counter("standout_shard_solve_restarts_total",
			"Solves restarted over a reduced shard set after mid-request shard loss."),
		shardCalls: r.Counter("standout_shard_calls_total",
			"Scatter attempts dispatched to shard backends (including hedges and retries)."),
		shardErrors: r.Counter("standout_shard_call_errors_total",
			"Scatter attempts that failed; the slower call of a hedged pair, cancelled once the other answered, is not a failure."),
		retries: r.Counter("standout_shard_retries_total",
			"Scatter attempts beyond a call's first (backoff retries)."),
		hedges: r.Counter("standout_shard_hedges_total",
			"Hedge requests launched after the per-shard latency quantile."),
		hedgeWins: r.Counter("standout_shard_hedge_wins_total",
			"Hedge requests that answered before the primary."),
		trips: r.Counter("standout_shard_breaker_trips_total",
			"Circuit-breaker transitions into the open state."),
		fastFails: r.Counter("standout_shard_breaker_fastfail_total",
			"Calls failed immediately because a shard's circuit was open."),
		latency: r.Histogram("standout_shard_request_seconds",
			"Wall time of one coordinated solve request.", nil),
		inflight: r.Gauge("standout_shard_inflight",
			"Requests currently holding an admission slot."),
		queueDepth: r.Gauge("standout_shard_queue_depth",
			"Requests currently waiting for an admission slot."),
	}
}

// gaugeName derives a per-shard metric name from the shard id, sanitized to
// the Prometheus name alphabet.
func gaugeName(id string) string {
	var sb strings.Builder
	sb.WriteString("standout_shard_breaker_state_")
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			sb.WriteByte(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
