package server

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"closedrules"
	"closedrules/refresh"
)

// endpointStats accumulates per-endpoint counters. All fields are
// atomics so the hot path never takes a lock.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64 // responses with a 4xx/5xx status
	nanos    atomic.Uint64 // cumulative handler latency
}

// metricsRegistry holds the server's operational counters. The
// endpoint map is fixed at construction and only read afterwards, so
// concurrent observe calls need no lock around it.
type metricsRegistry struct {
	start      time.Time
	order      []string
	byEndpoint map[string]*endpointStats
}

func newMetricsRegistry(endpoints []string) *metricsRegistry {
	m := &metricsRegistry{
		start:      time.Now(),
		order:      append([]string(nil), endpoints...),
		byEndpoint: make(map[string]*endpointStats, len(endpoints)),
	}
	for _, e := range endpoints {
		m.byEndpoint[e] = &endpointStats{}
	}
	return m
}

// observe records one served request. Unknown endpoints are ignored
// rather than grown into the map, which would race.
func (m *metricsRegistry) observe(endpoint string, code int, d time.Duration) {
	st, ok := m.byEndpoint[endpoint]
	if !ok {
		return
	}
	st.requests.Add(1)
	if code >= 400 {
		st.errors.Add(1)
	}
	st.nanos.Add(uint64(d.Nanoseconds()))
}

// writePrometheus renders every counter in Prometheus text exposition
// format (version 0.0.4). QPS and mean latency are derivable by the
// scraper: rate(closedrules_http_requests_total) and
// closedrules_http_request_seconds_total / ..._requests_total.
// ref is the background refresher's counters, or nil when no
// refresher is configured (the refresh metric family is then absent).
func (m *metricsRegistry) writePrometheus(w io.Writer, svc closedrules.ServiceStats, numTx, numRules int, ref *refresh.Stats) {
	fmt.Fprintf(w, "# HELP closedrules_http_requests_total Requests served, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE closedrules_http_requests_total counter\n")
	for _, e := range m.order {
		fmt.Fprintf(w, "closedrules_http_requests_total{endpoint=%q} %d\n", e, m.byEndpoint[e].requests.Load())
	}
	fmt.Fprintf(w, "# HELP closedrules_http_request_errors_total Requests answered with a 4xx/5xx status, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE closedrules_http_request_errors_total counter\n")
	for _, e := range m.order {
		fmt.Fprintf(w, "closedrules_http_request_errors_total{endpoint=%q} %d\n", e, m.byEndpoint[e].errors.Load())
	}
	fmt.Fprintf(w, "# HELP closedrules_http_request_seconds_total Cumulative request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE closedrules_http_request_seconds_total counter\n")
	for _, e := range m.order {
		fmt.Fprintf(w, "closedrules_http_request_seconds_total{endpoint=%q} %.9f\n", e, float64(m.byEndpoint[e].nanos.Load())/1e9)
	}
	fmt.Fprintf(w, "# HELP closedrules_cache_hits_total Recommend calls answered from the sharded cache.\n")
	fmt.Fprintf(w, "# TYPE closedrules_cache_hits_total counter\n")
	fmt.Fprintf(w, "closedrules_cache_hits_total %d\n", svc.CacheHits)
	fmt.Fprintf(w, "# HELP closedrules_cache_misses_total Recommend calls that computed a fresh ranking.\n")
	fmt.Fprintf(w, "# TYPE closedrules_cache_misses_total counter\n")
	fmt.Fprintf(w, "closedrules_cache_misses_total %d\n", svc.CacheMisses)
	fmt.Fprintf(w, "# HELP closedrules_snapshot_cache_hits Cache hits against the currently served snapshot (resets at every swap).\n")
	fmt.Fprintf(w, "# TYPE closedrules_snapshot_cache_hits gauge\n")
	fmt.Fprintf(w, "closedrules_snapshot_cache_hits %d\n", svc.SnapshotCacheHits)
	fmt.Fprintf(w, "# HELP closedrules_snapshot_cache_misses Cache misses against the currently served snapshot (resets at every swap).\n")
	fmt.Fprintf(w, "# TYPE closedrules_snapshot_cache_misses gauge\n")
	fmt.Fprintf(w, "closedrules_snapshot_cache_misses %d\n", svc.SnapshotCacheMisses)
	fmt.Fprintf(w, "# HELP closedrules_snapshot_cache_hit_ratio Hit ratio of the currently served snapshot's cache (0 before its first lookup).\n")
	fmt.Fprintf(w, "# TYPE closedrules_snapshot_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "closedrules_snapshot_cache_hit_ratio %.6f\n", svc.SnapshotHitRatio())
	fmt.Fprintf(w, "# HELP closedrules_cache_entries Rankings currently cached.\n")
	fmt.Fprintf(w, "# TYPE closedrules_cache_entries gauge\n")
	fmt.Fprintf(w, "closedrules_cache_entries %d\n", svc.CacheEntries)
	fmt.Fprintf(w, "# HELP closedrules_swaps_total Successful hot reloads.\n")
	fmt.Fprintf(w, "# TYPE closedrules_swaps_total counter\n")
	fmt.Fprintf(w, "closedrules_swaps_total %d\n", svc.Swaps)
	fmt.Fprintf(w, "# HELP closedrules_transactions Transactions in the served dataset.\n")
	fmt.Fprintf(w, "# TYPE closedrules_transactions gauge\n")
	fmt.Fprintf(w, "closedrules_transactions %d\n", numTx)
	fmt.Fprintf(w, "# HELP closedrules_basis_rules Basis rules available to Recommend.\n")
	fmt.Fprintf(w, "# TYPE closedrules_basis_rules gauge\n")
	fmt.Fprintf(w, "closedrules_basis_rules %d\n", numRules)
	if ref != nil {
		fmt.Fprintf(w, "# HELP closedrules_refresh_cycles_total Refresh cycles attempted (poll ticks run + manual reloads).\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_cycles_total counter\n")
		fmt.Fprintf(w, "closedrules_refresh_cycles_total %d\n", ref.Cycles)
		fmt.Fprintf(w, "# HELP closedrules_refresh_successes_total Refresh cycles that mined and swapped a new snapshot.\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_successes_total counter\n")
		fmt.Fprintf(w, "closedrules_refresh_successes_total %d\n", ref.Successes)
		fmt.Fprintf(w, "# HELP closedrules_refresh_skips_total Refresh cycles skipped because the source was unchanged.\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_skips_total counter\n")
		fmt.Fprintf(w, "closedrules_refresh_skips_total %d\n", ref.Skips)
		fmt.Fprintf(w, "# HELP closedrules_refresh_failures_total Refresh cycles that failed (source, mine, or swap error).\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_failures_total counter\n")
		fmt.Fprintf(w, "closedrules_refresh_failures_total %d\n", ref.Failures)
		fmt.Fprintf(w, "# HELP closedrules_refresh_incremental_successes_total Refresh cycles that applied an append delta to the served lattice instead of re-mining.\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_incremental_successes_total counter\n")
		fmt.Fprintf(w, "closedrules_refresh_incremental_successes_total %d\n", ref.IncrementalSuccesses)
		fmt.Fprintf(w, "# HELP closedrules_refresh_incremental_fallbacks_total Refresh cycles that saw an append delta but re-mined in full (oversized batch or engine refusal).\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_incremental_fallbacks_total counter\n")
		fmt.Fprintf(w, "closedrules_refresh_incremental_fallbacks_total %d\n", ref.IncrementalFallbacks)
		fmt.Fprintf(w, "# HELP closedrules_refresh_incremental_transactions_total Appended transactions applied through the incremental path.\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_incremental_transactions_total counter\n")
		fmt.Fprintf(w, "closedrules_refresh_incremental_transactions_total %d\n", ref.DeltaTransactions)
		fmt.Fprintf(w, "# HELP closedrules_refresh_incremental_last_update_seconds Lattice-update duration of the last successful incremental cycle.\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_incremental_last_update_seconds gauge\n")
		fmt.Fprintf(w, "closedrules_refresh_incremental_last_update_seconds %.9f\n", ref.LastIncrementalDuration.Seconds())
		fmt.Fprintf(w, "# HELP closedrules_refresh_last_mine_seconds Mining duration of the last successful refresh cycle.\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_last_mine_seconds gauge\n")
		fmt.Fprintf(w, "closedrules_refresh_last_mine_seconds %.9f\n", ref.LastMineDuration.Seconds())
		fmt.Fprintf(w, "# HELP closedrules_refresh_last_swap_timestamp_seconds Unix time of the last successful swap (0 before the first).\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_last_swap_timestamp_seconds gauge\n")
		lastSwap := 0.0
		if !ref.LastSwap.IsZero() {
			lastSwap = float64(ref.LastSwap.UnixNano()) / 1e9
		}
		fmt.Fprintf(w, "closedrules_refresh_last_swap_timestamp_seconds %.3f\n", lastSwap)
		fmt.Fprintf(w, "# HELP closedrules_refresh_running Whether the background refresh loop is active.\n")
		fmt.Fprintf(w, "# TYPE closedrules_refresh_running gauge\n")
		running := 0
		if ref.Running {
			running = 1
		}
		fmt.Fprintf(w, "closedrules_refresh_running %d\n", running)
	}
	fmt.Fprintf(w, "# HELP closedrules_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE closedrules_uptime_seconds gauge\n")
	fmt.Fprintf(w, "closedrules_uptime_seconds %.3f\n", time.Since(m.start).Seconds())
}

// writeAdmission renders the admission-control families: one shed
// counter and one in-flight gauge per gated endpoint, plus the
// configured cap. Only called when admission control is enabled.
func writeAdmission(w io.Writer, maxInFlight int, endpoints []string, limiters map[string]*limiter) {
	fmt.Fprintf(w, "# HELP closedrules_http_max_inflight Configured per-endpoint in-flight cap.\n")
	fmt.Fprintf(w, "# TYPE closedrules_http_max_inflight gauge\n")
	fmt.Fprintf(w, "closedrules_http_max_inflight %d\n", maxInFlight)
	fmt.Fprintf(w, "# HELP closedrules_http_shed_total Requests shed with 429 by admission control, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE closedrules_http_shed_total counter\n")
	for _, e := range endpoints {
		fmt.Fprintf(w, "closedrules_http_shed_total{endpoint=%q} %d\n", e, limiters[e].shedCount())
	}
	fmt.Fprintf(w, "# HELP closedrules_http_inflight Requests currently holding an admission slot, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE closedrules_http_inflight gauge\n")
	for _, e := range endpoints {
		fmt.Fprintf(w, "closedrules_http_inflight{endpoint=%q} %d\n", e, limiters[e].inFlight())
	}
}
