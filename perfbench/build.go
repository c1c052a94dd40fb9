package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"closedrules"
)

// replayPerBuild is how many queries each fresh build-sparse snapshot
// answers in process.
const replayPerBuild = 500

// runBuildSparse builds fresh pipelines from the same .dat bytes for the
// whole window. Every build is checked against a genclose oracle: same
// digest of closed sets and served bases, same answers to a replayed
// query mix, and, after an appended batch goes through UpdateAppend and
// Swap, the digest of the oracle for the appended data.
func runBuildSparse(ctx context.Context, o *options, dir string, tr *tracer) (*outcome, error) {
	batchTx := appendBatch(sparseTx)
	lines, err := sparseDat(o.seed, batchTx)
	if err != nil {
		return nil, err
	}
	base, batch := joinDat(lines[:sparseTx]), joinDat(lines[sparseTx:])
	delta, err := closedrules.ReadDat(bytes.NewReader(batch))
	if err != nil {
		return nil, err
	}
	oracle, err := referenceService(ctx, base, sparseMinSup)
	if err != nil {
		return nil, fmt.Errorf("genclose oracle: %w", err)
	}
	want, err := digest(ctx, oracle)
	if err != nil {
		return nil, err
	}
	nextOracle, err := referenceService(ctx, append(append([]byte{}, base...), batch...), sparseMinSup)
	if err != nil {
		return nil, fmt.Errorf("genclose oracle after append: %w", err)
	}
	wantNext, err := digest(ctx, nextOracle)
	if err != nil {
		return nil, err
	}
	// Distinct baskets, so every query does the snapshot's real work
	// (a closure lookup or a rule scan) instead of a cache hit.
	r := rand.New(rand.NewSource(o.seed))
	pool, err := coldPool(r, oracle, 50000)
	if err != nil {
		return nil, err
	}
	pick := func() int { return r.Intn(len(pool.baskets)) }

	out := newOutcome()
	check := func(qs *closedrules.QueryService, q query) (time.Duration, error) {
		got, dur, err := ask(ctx, qs, q)
		if err != nil {
			return 0, err
		}
		exp, _, err := ask(ctx, oracle, q)
		if err != nil {
			return 0, err
		}
		if !sameAnswer(got, exp) {
			return 0, fmt.Errorf("%s %v: answer differs from the genclose oracle", kindNames[q.kind], q.a)
		}
		return dur, nil
	}

	// Set-up: a fresh pipeline to its first verified answer, several
	// times; the first query of the mix is the first answer.
	first := drawQueries(r, pool, 1, pick)[0]
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		id := tr.start(-1-i, 0, "setup")
		start := time.Now()
		b, err := buildPipeline(ctx, base, sparseMinSup, nil, 0, nil)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if _, err := check(b.qs, first); err != nil {
			out.fail(err)
		}
		setups = append(setups, time.Since(start).Seconds())
		tr.end(id)
	}

	var runs pipelineRuns
	var lags []float64
	var lat [numKinds][]float64
	var all []float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(deadline) || len(runs.durs) < 3; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		qs, err := runs.build(ctx, base, sparseMinSup, tr)
		if err != nil {
			return nil, err
		}
		out.attempted++
		if got, err := digest(ctx, qs); err != nil || got != want {
			out.fail(fmt.Errorf("build %d: digest %s differs from the genclose oracle's %s (%v)", i, got, want, err))
		}
		runtime.GC() // the replay is timed per call; keep the build's garbage out of it
		for _, q := range drawQueries(r, pool, replayPerBuild, pick) {
			out.attempted++
			dur, err := check(qs, q)
			if err != nil {
				out.fail(err)
				continue
			}
			lat[q.kind] = append(lat[q.kind], us(dur))
			all = append(all, ms(dur))
		}
		// The library-side refresh: extend the served result by the
		// appended batch and swap it in.
		res := qs.ServedResult()
		start := time.Now()
		upd := tr.start(i, 0, "incremental.update")
		next, err := closedrules.UpdateAppend(ctx, res, delta, closedrules.WithMinSupport(sparseMinSup))
		tr.end(upd)
		if err != nil {
			return nil, fmt.Errorf("UpdateAppend: %w", err)
		}
		sw := tr.start(i, 0, "snapshot.swap")
		err = qs.Swap(next)
		tr.end(sw)
		if err != nil {
			return nil, fmt.Errorf("Swap: %w", err)
		}
		lags = append(lags, time.Since(start).Seconds())
		out.attempted++
		if got, err := digest(ctx, qs); err != nil || got != wantNext {
			out.fail(fmt.Errorf("build %d: digest after append differs from the genclose oracle's (%v)", i, err))
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["query_p50_ms"] = percentile(all, 50)
	out.e2e["query_p90_ms"] = percentile(all, 90)
	out.e2e["peak_rss_mb"] = rss
	out.e2e["refresh_lag_s"] = median(lags)
	runs.report(out, tr)
	if tr != nil {
		queryLayers(out, lat)
		out.layers["incremental.update_ms"] = tr.medianSelfMs("incremental.update")
		out.layers["snapshot.swap_ms"] = tr.medianSelfMs("snapshot.swap")
		// build-sparse has no server of its own; the serving layers come
		// from a short serve-sparse-append run on the same seed.
		probe, err := runServeSparse(ctx, o, dir, newTracer(true), probeSeconds)
		if err != nil {
			return nil, fmt.Errorf("serving probe: %w", err)
		}
		for _, name := range servingLayers {
			out.layers[name] = probe.layers[name]
		}
		out.attempted += probe.attempted
		out.failed += probe.failed
		if out.gateErr == nil {
			out.gateErr = probe.gateErr
		}
	}
	return out, nil
}

// probeSeconds is the window of build-sparse's serving probe.
const probeSeconds = 3

// pipelineLayers summarizes the traced builds: the median self time of
// each layer's span, the per-layer counts, and the tracing overhead as
// traced over untraced median build time.
func pipelineLayers(out *outcome, tr *tracer, layers map[string][]float64, plain, traced []float64) {
	sum := 0.0
	for _, name := range []string{"dataset.parse", "dataset.context", "miner.mine", "basis.exact", "basis.approx", "snapshot.build"} {
		out.layers[name+"_ms"] = tr.medianSelfMs(name)
		sum += out.layers[name+"_ms"]
	}
	for name, vals := range layers {
		out.layers[name] = median(vals)
	}
	out.layers["trace.layer_sum_ms"] = sum
	out.layers["trace.pipeline_ms"] = tr.medianMs("pipeline")
	if p := median(plain); p > 0 && len(traced) > 0 {
		out.layers["trace.overhead_frac"] = median(traced)/p - 1
	}
}

// queryLayers reports the in-process query latencies by kind.
func queryLayers(out *outcome, lat [numKinds][]float64) {
	for k, vals := range lat {
		out.layers["query."+kindNames[k]+"_p50_us"] = percentile(vals, 50)
		out.layers["query."+kindNames[k]+"_p99_us"] = percentile(vals, 99)
	}
}
