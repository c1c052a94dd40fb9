package main

// units gives every reported metric its unit. The end-to-end metrics
// come from untraced runs, the others from traced ones.
var units = map[string]string{
	// End to end.
	"setup_s":          "s",
	"build_s":          "s",
	"build_alloc_mb":   "MB",
	"snapshot_heap_mb": "MB",
	"query_p50_ms":     "ms",
	"query_p90_ms":     "ms",
	"peak_rss_mb":      "MB",
	"refresh_lag_s":    "s",

	// dataset, miner, basis, lattice, closedrules snapshot.
	"dataset.parse_ms":      "ms",
	"dataset.context_ms":    "ms",
	"miner.mine_ms":         "ms",
	"miner.alloc_mb":        "MB",
	"miner.closed_sets":     "count",
	"basis.exact_ms":        "ms",
	"basis.exact_alloc_mb":  "MB",
	"basis.exact_rules":     "count",
	"basis.approx_ms":       "ms",
	"basis.approx_alloc_mb": "MB",
	"basis.approx_rules":    "count",
	"lattice.edges":         "count",
	"snapshot.build_ms":     "ms",
	"snapshot.swap_ms":      "ms",
	"incremental.update_ms": "ms",

	// refresh, from /healthz.
	"refresh.incremental_successes": "count",
	"refresh.incremental_fallbacks": "count",
	"refresh.swaps":                 "count",

	// closedrules queries, replayed in process.
	"query.support_p50_us":    "us",
	"query.support_p99_us":    "us",
	"query.confidence_p50_us": "us",
	"query.confidence_p99_us": "us",
	"query.recommend_p50_us":  "us",
	"query.recommend_p99_us":  "us",

	// server, from /metrics and /proc deltas over the window.
	"server.support_us":       "us",
	"server.confidence_us":    "us",
	"server.recommend_us":     "us",
	"server.http_overhead_us": "us",
	"server.cpu_us_per_req":   "us",
	"server.cache_hit_ratio":  "ratio",
	"tenant.route_p50_ms":     "ms",
	"legacy.route_p50_ms":     "ms",

	// Client side and tracing.
	"net.wait_us":            "us",
	"loadgen.latency_p99_ms": "ms",
	"loadgen.late_p99_ms":    "ms",
	"loadgen.sent":           "count",
	"loadgen.achieved_rps":   "1/s",
	"trace.overhead_frac":    "ratio",
	"trace.layer_sum_ms":     "ms",
	"trace.pipeline_ms":      "ms",
}
