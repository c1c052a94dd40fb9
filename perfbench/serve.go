package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"closedrules"
)

// denseRefBuilds is how many in-process pipelines serve-dense-cold
// builds from its file: the last is the correctness reference, and all
// of them are build_s samples.
const denseRefBuilds = 2

// servingLayers are the per-layer metrics only a serve phase produces.
var servingLayers = []string{
	"server.support_us", "server.confidence_us", "server.recommend_us",
	"server.http_overhead_us", "server.cpu_us_per_req", "server.cache_hit_ratio",
	"tenant.route_p50_ms", "legacy.route_p50_ms", "net.wait_us",
	"loadgen.latency_p99_ms", "loadgen.late_p99_ms", "loadgen.sent", "loadgen.achieved_rps",
	"refresh.incremental_successes", "refresh.incremental_fallbacks", "refresh.swaps",
}

// servePlan is one serve workload: how arserve is started and what the
// answers must be.
type servePlan struct {
	args    []string                    // arserve flags
	path    string                      // the served .dat file
	rate    float64                     // offered requests per second
	refs    []*closedrules.QueryService // refs[k] answers after k appends
	counts  []int                       // transactions after k appends
	batches [][]byte                    // appended one by one, appendEvery apart, during the window
	reload  bool                        // time forced full reloads after the window
	r       *rand.Rand
	pool    *keyPool
	pick    func() int // index of the next key in pool
}

// pipelineRuns builds fresh pipelines and keeps what each cost. In a
// traced run every other build is traced, so the run itself measures
// what tracing costs.
type pipelineRuns struct {
	durs, allocs, heaps, plain, traced []float64
	layers                             map[string][]float64
}

func (pr *pipelineRuns) build(ctx context.Context, dat []byte, minSup float64, tr *tracer) (*closedrules.QueryService, error) {
	if pr.layers == nil {
		pr.layers = map[string][]float64{}
	}
	i := len(pr.durs)
	var btr *tracer
	if i%2 == 1 {
		btr = tr
	}
	heap0 := liveHeapMB()
	b, err := buildPipeline(ctx, dat, minSup, btr, i, pr.layers)
	if err != nil {
		return nil, err
	}
	pr.heaps = append(pr.heaps, liveHeapMB()-heap0)
	pr.durs = append(pr.durs, b.dur.Seconds())
	pr.allocs = append(pr.allocs, b.allocMB)
	if btr != nil {
		pr.traced = append(pr.traced, b.dur.Seconds())
	} else {
		pr.plain = append(pr.plain, b.dur.Seconds())
	}
	return b.qs, nil
}

// report adds the build figures: build_s, build_alloc_mb and
// snapshot_heap_mb, and in a traced run the per-layer split.
func (pr *pipelineRuns) report(out *outcome, tr *tracer) {
	out.e2e["build_s"] = median(pr.durs)
	out.e2e["build_alloc_mb"] = median(pr.allocs)
	out.e2e["snapshot_heap_mb"] = median(pr.heaps)
	if tr != nil {
		pipelineLayers(out, tr, pr.layers, pr.plain, pr.traced)
	}
}

// runServeDense serves MUSHROOMS* at minsup 0.1 from arserve
// -multi-tenant with default flags, under uniform traffic over far more
// baskets than the recommend cache holds.
func runServeDense(ctx context.Context, o *options, dir string, tr *tracer) (*outcome, error) {
	batchTx := appendBatch(denseObjects)
	lines, err := denseDat(o.seed, batchTx)
	if err != nil {
		return nil, err
	}
	base := joinDat(lines[:denseObjects])
	path := filepath.Join(dir, "dense.dat")
	if err := os.WriteFile(path, base, 0o644); err != nil {
		return nil, err
	}
	var rb pipelineRuns
	var ref *closedrules.QueryService
	for i := 0; i < denseRefBuilds; i++ {
		if ref, err = rb.build(ctx, base, denseMinSup, tr); err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewSource(o.seed))
	pool, err := coldPool(r, ref, 50000)
	if err != nil {
		return nil, err
	}
	plan := &servePlan{
		args:   []string{"-in", path, "-minsup", ftoa(denseMinSup), "-multi-tenant"},
		path:   path,
		rate:   denseRate,
		refs:   []*closedrules.QueryService{ref},
		counts: []int{ref.NumTransactions()},
		reload: true,
		r:      r, pool: pool,
		pick: func() int { return r.Intn(len(pool.baskets)) },
	}
	out, err := servePhase(ctx, o, plan, tr, o.seconds)
	if err != nil {
		return nil, err
	}
	rb.report(out, tr)
	if tr != nil {
		delta, err := closedrules.ReadDat(bytes.NewReader(joinDat(lines[denseObjects:])))
		if err != nil {
			return nil, err
		}
		if err := replayAppends(ctx, tr, ref, []*closedrules.Dataset{delta}, denseMinSup); err != nil {
			return nil, err
		}
		out.layers["incremental.update_ms"] = tr.medianSelfMs("incremental.update")
		out.layers["snapshot.swap_ms"] = tr.medianSelfMs("snapshot.swap")
	}
	return out, nil
}

// runServeSparse serves QUEST T10I4D10K from arserve -multi-tenant
// -refresh under Zipf traffic over a few hundred hot keys, while
// batches are appended to the watched file.
func runServeSparse(ctx context.Context, o *options, dir string, tr *tracer, seconds float64) (*outcome, error) {
	plan, rb, deltas, err := sparsePlan(ctx, o.seed, dir, tr, seconds)
	if err != nil {
		return nil, err
	}
	out, err := servePhase(ctx, o, plan, tr, seconds)
	if err != nil {
		return nil, err
	}
	rb.report(out, tr)
	if tr != nil {
		// The same batches through the library's incremental path, on a
		// snapshot no one else reads any more.
		if err := replayAppends(ctx, tr, plan.refs[0], deltas, sparseMinSup); err != nil {
			return nil, err
		}
		out.layers["incremental.update_ms"] = tr.medianSelfMs("incremental.update")
		out.layers["snapshot.swap_ms"] = tr.medianSelfMs("snapshot.swap")
	}
	return out, nil
}

// sparsePlan writes serve-sparse-append's base file and builds the
// reference for the base and after each appended batch.
func sparsePlan(ctx context.Context, seed int64, dir string, tr *tracer, seconds float64) (*servePlan, *pipelineRuns, []*closedrules.Dataset, error) {
	batchTx := appendBatch(sparseTx)
	// Appends stop one interval before the window ends, so the last
	// one is served while the load still runs.
	k := max(int(seconds/appendEvery.Seconds())-1, 1)
	lines, err := sparseDat(seed, k*batchTx)
	if err != nil {
		return nil, nil, nil, err
	}
	path := filepath.Join(dir, "sparse.dat")
	if err := os.WriteFile(path, joinDat(lines[:sparseTx]), 0o644); err != nil {
		return nil, nil, nil, err
	}
	rb := &pipelineRuns{}
	plan := &servePlan{
		args: []string{"-in", path, "-minsup", ftoa(sparseMinSup), "-multi-tenant", "-refresh", refreshEvery},
		path: path,
		rate: sparseRate,
	}
	var deltas []*closedrules.Dataset
	for i := 0; i <= k; i++ {
		n := sparseTx + i*batchTx
		ref, err := rb.build(ctx, joinDat(lines[:n]), sparseMinSup, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		plan.refs = append(plan.refs, ref)
		plan.counts = append(plan.counts, ref.NumTransactions())
		if i > 0 {
			batch := joinDat(lines[n-batchTx : n])
			plan.batches = append(plan.batches, batch)
			d, err := closedrules.ReadDat(bytes.NewReader(batch))
			if err != nil {
				return nil, nil, nil, err
			}
			deltas = append(deltas, d)
		}
	}
	plan.r = rand.New(rand.NewSource(seed))
	// Supports only grow under appends, so keys at the final threshold
	// in the base data stay frequent in every state.
	last := plan.refs[len(plan.refs)-1].ServedResult().MinSupport()
	if plan.pool, err = hotPool(plan.r, plan.refs[0], 300, last); err != nil {
		return nil, nil, nil, err
	}
	zipf := rand.NewZipf(plan.r, 1.2, 1, uint64(len(plan.pool.baskets)-1))
	plan.pick = func() int { return int(zipf.Uint64()) }
	return plan, rb, deltas, nil
}

// replayAppends applies each delta to qs through UpdateAppend and Swap,
// under incremental.update and snapshot.swap spans.
func replayAppends(ctx context.Context, tr *tracer, qs *closedrules.QueryService, deltas []*closedrules.Dataset, minSup float64) error {
	for i, d := range deltas {
		upd := tr.start(i, 0, "incremental.update")
		next, err := closedrules.UpdateAppend(ctx, qs.ServedResult(), d, closedrules.WithMinSupport(minSup))
		tr.end(upd)
		if err != nil {
			return fmt.Errorf("UpdateAppend: %w", err)
		}
		sw := tr.start(i, 0, "snapshot.swap")
		err = qs.Swap(next)
		tr.end(sw)
		if err != nil {
			return fmt.Errorf("Swap: %w", err)
		}
	}
	return nil
}

// appendLog is when each batch was written and when /healthz first
// showed it, as offsets from the window's start.
type appendLog struct {
	write, seen []time.Duration
	err         error
}

// appendLoop appends plan.batches to the served file appendEvery apart
// and waits for each to show in /healthz before the next.
func appendLoop(ctx context.Context, a *arserve, plan *servePlan, start time.Time) appendLog {
	var log appendLog
	for k, b := range plan.batches {
		if wait := time.Duration(k+1)*appendEvery - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				log.err = ctx.Err()
				return log
			}
		}
		f, err := os.OpenFile(plan.path, os.O_APPEND|os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(b)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			log.err = err
			return log
		}
		w := time.Since(start)
		log.write = append(log.write, w)
		for {
			h, err := a.health()
			if err == nil && h.Transactions == plan.counts[k+1] {
				break
			}
			if time.Since(start)-w > 30*time.Second {
				log.err = fmt.Errorf("append %d not served after 30s (last health error: %v)", k+1, err)
				return log
			}
			time.Sleep(10 * time.Millisecond)
		}
		log.seen = append(log.seen, time.Since(start))
	}
	return log
}

// servePhase starts arserve (several times, for set-up), runs a warm-up
// and then the measured open-loop window against it, and checks every
// answer against the plan's references.
func servePhase(ctx context.Context, o *options, plan *servePlan, tr *tracer, seconds float64) (out *outcome, err error) {
	out = newOutcome()
	first := drawQueries(plan.r, plan.pool, 1, plan.pick)[0]
	var setups []float64
	var srv *arserve
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		id := tr.start(-1-i, 0, "server.setup")
		start := time.Now()
		if srv, err = startArserve(ctx, o.arserve, plan.args...); err != nil {
			return nil, err
		}
		out.attempted++
		rq := first.render()
		body, err := srv.do(rq.method, rq.path, rq.body)
		if err == nil {
			_, err = checkBody(ctx, body, first, plan.refs[:1])
		}
		if err != nil {
			out.fail(fmt.Errorf("first answer: %w", err))
		}
		setups = append(setups, time.Since(start).Seconds())
		tr.end(id)
		if i < setupRepeats-1 {
			srv.stop()
			srv = nil
		}
	}
	out.e2e["setup_s"] = median(setups)

	clients := make([]*http.Client, runtime.NumCPU())
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].CloseIdleConnections()
	}
	phase := func(d time.Duration) ([]shot, []query, []request, time.Time) {
		shots := schedule(plan.r, plan.rate, d)
		qs := drawQueries(plan.r, plan.pool, len(shots), plan.pick)
		reqs := make([]request, len(qs))
		for i, q := range qs {
			reqs[i] = q.render()
		}
		return shots, qs, reqs, time.Now()
	}

	// The generator's own garbage collection must not stall dispatch:
	// start the load from a collected heap and collect rarely during it.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	wShots, wQueries, wReqs, wStart := phase(warmup)
	id := tr.start(0, 0, "load.warmup")
	openLoop(ctx, clients, srv.base, wReqs, wShots, wStart)
	tr.end(id)

	m0, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	shots, queries, reqs, start := phase(time.Duration(seconds * float64(time.Second)))
	logc := make(chan appendLog, 1)
	go func() { logc <- appendLoop(ctx, srv, plan, start) }()
	id = tr.start(0, 0, "load.window")
	openLoop(ctx, clients, srv.base, reqs, shots, start)
	tr.end(id)
	alog := <-logc
	if alog.err != nil {
		return nil, alog.err
	}
	m1, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	var lags []float64
	for k := range alog.write {
		lags = append(lags, (alog.seen[k] - alog.write[k]).Seconds())
		tr.record(k, "refresh.append", start.Add(alog.write[k]), start.Add(alog.seen[k]))
	}
	for i := 0; plan.reload && i < reloadRepeats; i++ {
		h0, err := srv.health()
		if err != nil {
			return nil, err
		}
		id := tr.start(i, 0, "server.reload")
		t := time.Now()
		if _, err := srv.do("POST", "/admin/reload", nil); err != nil {
			return nil, err
		}
		h1, err := srv.health()
		if err != nil {
			return nil, err
		}
		lags = append(lags, time.Since(t).Seconds())
		tr.end(id)
		out.attempted++
		if h1.Swaps <= h0.Swaps {
			out.fail(fmt.Errorf("reload did not swap the snapshot"))
		}
	}
	out.e2e["refresh_lag_s"] = median(lags)
	h, err := srv.health()
	if err != nil {
		return nil, err
	}
	if out.e2e["peak_rss_mb"], err = peakRSSMB(srv.cmd.Process.Pid); err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	id = tr.start(0, 0, "verify")
	verifyShots(ctx, out, plan, wShots, wQueries, nil)
	qlat := verifyShots(ctx, out, plan, shots, queries, &alog)
	tr.end(id)

	out.e2e["query_p50_ms"], out.e2e["query_p90_ms"] = windowLayers(out, shots, queries, qlat, m0, m1, cpu1-cpu0, seconds, plan.rate)
	out.layers["refresh.swaps"] = float64(h.Swaps)
	if h.Refresh != nil {
		out.layers["refresh.incremental_successes"] = float64(h.Refresh.IncrementalSuccesses)
		out.layers["refresh.incremental_fallbacks"] = float64(h.Refresh.IncrementalFallbacks)
	}
	return out, nil
}

// windowLayers computes the measured window's per-layer figures from
// the client's timings, the in-process query times qlat, and the
// server's /metrics (m0, m1) and CPU time (cpu) over the window. It
// returns the window's p50 and p90 latency in ms.
func windowLayers(out *outcome, shots []shot, queries []query, qlat [numKinds][]float64, m0, m1 map[string]float64, cpu time.Duration, seconds, rate float64) (p50, p90 float64) {
	var all, tenant, legacy, wire, late []float64
	var end time.Duration
	for i := range shots {
		s := &shots[i]
		l := ms(s.latency())
		all = append(all, l)
		if queries[s.req].tenant {
			tenant = append(tenant, l)
		} else {
			legacy = append(legacy, l)
		}
		wire = append(wire, us(s.done-s.sent))
		late = append(late, ms(s.sent-s.due))
		end = max(end, s.done)
	}
	delta := func(k string) float64 { return m1[k] - m0[k] }
	var served, secs float64
	for k := queryKind(0); k < numKinds; k++ {
		n := delta(`closedrules_http_requests_total{endpoint="` + kindNames[k] + `"}`)
		s := delta(`closedrules_http_request_seconds_total{endpoint="` + kindNames[k] + `"}`)
		if n > 0 {
			out.layers["server."+kindNames[k]+"_us"] = s / n * 1e6
		}
		served += n
		secs += s
	}
	var inproc []float64
	for _, v := range qlat {
		inproc = append(inproc, v...)
	}
	if served > 0 {
		handler := secs / served * 1e6
		out.layers["server.http_overhead_us"] = handler - mean(inproc)
		out.layers["net.wait_us"] = mean(wire) - handler
		out.layers["server.cpu_us_per_req"] = us(cpu) / served
	}
	if hits, misses := delta("closedrules_cache_hits_total"), delta("closedrules_cache_misses_total"); hits+misses > 0 {
		out.layers["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	out.layers["tenant.route_p50_ms"] = percentile(tenant, 50)
	out.layers["legacy.route_p50_ms"] = percentile(legacy, 50)
	out.layers["loadgen.late_p99_ms"] = percentile(late, 99)
	out.layers["loadgen.sent"] = float64(len(shots))
	if end > 0 {
		out.layers["loadgen.achieved_rps"] = float64(len(shots)) / end.Seconds()
	}
	queryLayers(out, qlat)
	window := time.Duration(seconds * float64(time.Second))
	out.layers["loadgen.latency_p99_ms"] = slicedPercentile(shots, window, p99Slice(rate), 99)
	return percentile(all, 50), slicedPercentile(shots, window, appendEvery, 90)
}

// p99Slice is the length of the slices of the window that the 99th
// percentile is taken over at the given rate: whole append periods,
// enough for 1,000 requests.
func p99Slice(rate float64) time.Duration {
	return time.Duration(math.Ceil(1000/rate/appendEvery.Seconds())) * appendEvery
}

// slicedPercentile is the median, over slice-long parts of the window
// by due time, of each part's p-th percentile latency in ms: a stall of
// the host moves one part instead of the whole figure. Windows shorter
// than two slices give the plain percentile.
func slicedPercentile(shots []shot, window, slice time.Duration, p float64) float64 {
	n := max(int(window/slice), 1)
	slices := make([][]float64, n)
	for i := range shots {
		k := min(int(shots[i].due/slice), n-1)
		slices[k] = append(slices[k], ms(shots[i].latency()))
	}
	var ps []float64
	for _, sl := range slices {
		ps = append(ps, percentile(sl, p))
	}
	return median(ps)
}

// verifyShots checks every response: a 200 whose answer equals the
// reference's for a snapshot the server may have served it from. With
// appends, that is any state from the last one /healthz showed before
// the request was sent to the last one written before its response
// arrived; in the quiet window after a swap, exactly one. It returns
// the in-process time of each query against the first such reference,
// by kind.
func verifyShots(ctx context.Context, out *outcome, plan *servePlan, shots []shot, queries []query, alog *appendLog) [numKinds][]float64 {
	var lat [numKinds][]float64
	for i := range shots {
		s := &shots[i]
		q := queries[s.req]
		out.attempted++
		if s.err != nil || s.status != http.StatusOK {
			out.fail(fmt.Errorf("%s: status %d, error %v: %s", q.render().path, s.status, s.err, s.body))
			continue
		}
		lo, hi := 0, 0
		if alog != nil {
			for k, t := range alog.seen {
				if t <= s.sent {
					lo = k + 1
				}
			}
			for k, t := range alog.write {
				if t <= s.done {
					hi = k + 1
				}
			}
		}
		dur, err := checkBody(ctx, s.body, q, plan.refs[lo:hi+1])
		if err != nil {
			out.fail(err)
			continue
		}
		lat[q.kind] = append(lat[q.kind], us(dur))
	}
	return lat
}

// checkBody reports whether body answers q as one of refs does, and
// how long the first reference took to answer in-process.
func checkBody(ctx context.Context, body []byte, q query, refs []*closedrules.QueryService) (time.Duration, error) {
	got, err := decodeAnswer(body)
	if err != nil {
		return 0, fmt.Errorf("%s: undecodable answer: %v", q.render().path, err)
	}
	var first time.Duration
	for i, ref := range refs {
		want, dur, err := ask(ctx, ref, q)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = dur
		}
		if sameAnswer(got, want) {
			return first, nil
		}
	}
	return 0, fmt.Errorf("%s: answer %s differs from the reference", q.render().path, body)
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
