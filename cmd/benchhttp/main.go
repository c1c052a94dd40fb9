// Command benchhttp load-tests the HTTP serving layer and emits a
// machine-readable benchmark report, so the read path's latency and
// overload behavior are tracked across PRs (BENCH_serving.json) the
// same way cmd/benchjson tracks the miners.
//
// Usage:
//
//	benchhttp -c 16 -duration 3s -out /tmp/serving.json
//	benchhttp -c 64 -max-inflight 32 -append -out BENCH_serving.json
//
// It mines a QUEST-style T10I4 dataset once, serves it through a real
// server.Server on a loopback listener, and drives the configured
// endpoints with closed-loop workers for the configured duration.
// Every (endpoint × concurrency) cell records p50/p99 latency of
// admitted responses, total RPS, and the 200/429/failed split — so a
// gated run and an ungated run are directly comparable, and
// admission-control sheds are first-class numbers instead of noise.
// The emitted file is re-read and validated before the command exits
// 0; malformed output is a non-zero exit (the CI smoke contract).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"closedrules"
	"closedrules/internal/bench"
	"closedrules/internal/gen"
	"closedrules/server"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchhttp:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	scale       string
	minsup      float64
	minconf     float64
	concurrency int
	duration    time.Duration
	warmup      time.Duration
	endpoints   []string
	k           int
	baskets     int
	maxInflight int
	label       string
	out         string
	appendRun   bool
	tenants     int
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("benchhttp", flag.ContinueOnError)
	var (
		scale       = fs.String("scale", "small", "dataset scale: small (2k tx) | medium (10k tx)")
		minsup      = fs.Float64("minsup", 0.01, "relative minimum support for the one-time mine")
		minconf     = fs.Float64("minconf", 0.5, "confidence threshold of the served approximate basis")
		concurrency = fs.Int("c", 16, "closed-loop client workers per endpoint")
		duration    = fs.Duration("duration", 3*time.Second, "measured window per endpoint cell")
		warmup      = fs.Duration("warmup", 0, "untimed warmup before each cell (default duration/5, capped at 500ms)")
		endpoints   = fs.String("endpoints", "recommend,support", "comma-separated endpoints to drive (recommend, support)")
		k           = fs.Int("k", 5, "recommend ranking size")
		baskets     = fs.Int("baskets", 64, "distinct request basket pool size (smaller = warmer cache)")
		maxInflight = fs.Int("max-inflight", 0, "per-endpoint admission cap (0 = admission off)")
		label       = fs.String("label", "", "run label recorded in the report (default: knobs + date)")
		out         = fs.String("out", "BENCH_serving.json", "output report path")
		appendF     = fs.Bool("append", false, "append the run to an existing report instead of overwriting")
		tenants     = fs.Int("tenants", 0, "register this many datasets and drive the /datasets/{id} routes round-robin instead of the legacy single-tenant path")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	cfg := &config{
		scale: *scale, minsup: *minsup, minconf: *minconf,
		concurrency: *concurrency, duration: *duration, warmup: *warmup,
		k: *k, baskets: *baskets, maxInflight: *maxInflight,
		label: *label, out: *out, appendRun: *appendF, tenants: *tenants,
	}
	if cfg.concurrency < 1 {
		return nil, fmt.Errorf("-c must be at least 1")
	}
	if cfg.tenants < 0 {
		return nil, fmt.Errorf("-tenants must be non-negative")
	}
	if cfg.duration <= 0 {
		return nil, fmt.Errorf("-duration must be positive")
	}
	if cfg.baskets < 1 {
		return nil, fmt.Errorf("-baskets must be at least 1")
	}
	if _, _, _, err := workloadDims(cfg.scale); err != nil {
		return nil, err
	}
	if cfg.warmup == 0 {
		cfg.warmup = cfg.duration / 5
		if cfg.warmup > 500*time.Millisecond {
			cfg.warmup = 500 * time.Millisecond
		}
	}
	for _, e := range strings.Split(*endpoints, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if e != "recommend" && e != "support" {
			return nil, fmt.Errorf("unknown endpoint %q (want recommend or support)", e)
		}
		cfg.endpoints = append(cfg.endpoints, e)
	}
	if len(cfg.endpoints) == 0 {
		return nil, fmt.Errorf("no endpoints to drive")
	}
	if cfg.label == "" {
		mode := "plain"
		if cfg.maxInflight > 0 {
			mode = fmt.Sprintf("inflight=%d", cfg.maxInflight)
		}
		if cfg.tenants > 0 {
			mode += fmt.Sprintf(" tenants=%d", cfg.tenants)
		}
		cfg.label = fmt.Sprintf("%s c=%d %s %s", cfg.scale, cfg.concurrency, mode, time.Now().UTC().Format("2006-01-02"))
	}
	return cfg, nil
}

// workloadDims maps the scale flag onto QUEST generator dimensions.
func workloadDims(scale string) (tx, items int, name string, err error) {
	switch scale {
	case "small":
		return 2000, 200, "T10I4D2K", nil
	case "medium":
		return 10000, 500, "T10I4D10K", nil
	}
	return 0, 0, "", fmt.Errorf("unknown scale %q (want small or medium)", scale)
}

// buildServer mines the workload and wires a server with the
// configured serving knobs.
func buildServer(ctx context.Context, cfg *config) (*server.Server, string, error) {
	numTx, numItems, name, err := workloadDims(cfg.scale)
	if err != nil {
		return nil, "", err
	}
	d, err := gen.Quest(gen.T10I4(numTx, numItems, 1))
	if err != nil {
		return nil, "", err
	}
	res, err := closedrules.MineContext(ctx, d, closedrules.WithMinSupport(cfg.minsup))
	if err != nil {
		return nil, "", err
	}
	qs, err := closedrules.NewQueryService(res, cfg.minconf)
	if err != nil {
		return nil, "", err
	}
	srv, err := server.New(qs, server.Config{
		MaxInFlight:  cfg.maxInflight,
		MaxRecommend: cfg.k,
		MultiTenant:  cfg.tenants > 0,
	})
	if err != nil {
		return nil, "", err
	}
	return srv, name, nil
}

// registerTenants uploads n distinct datasets through the real POST
// /datasets route — the registration cost is part of what the mode
// measures being possible at all — and pre-materializes each with one
// query so the measured window drives resident tenants, not first-
// touch mining.
func registerTenants(baseURL string, cfg *config) ([]string, error) {
	numTx, numItems, _, err := workloadDims(cfg.scale)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	ids := make([]string, 0, cfg.tenants)
	for t := 0; t < cfg.tenants; t++ {
		// Distinct seeds per tenant: different datasets, so isolation
		// bugs would surface as wrong answers rather than cancel out.
		d, err := gen.Quest(gen.T10I4(numTx, numItems, int64(t)+2))
		if err != nil {
			return nil, err
		}
		txs := make([][]int, d.NumTransactions())
		for i := range txs {
			txs[i] = append([]int{}, d.Transaction(i)...)
		}
		body, err := json.Marshal(map[string]any{
			"id":           fmt.Sprintf("bench-%d", t),
			"transactions": txs,
			"params": map[string]any{
				"minSupport":    cfg.minsup,
				"minConfidence": cfg.minconf,
			},
		})
		if err != nil {
			return nil, err
		}
		resp, err := client.Post(baseURL+"/datasets", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return nil, fmt.Errorf("register tenant %d: %d %s", t, resp.StatusCode, raw)
		}
		var reg struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &reg); err != nil {
			return nil, fmt.Errorf("register tenant %d: %w", t, err)
		}
		ids = append(ids, reg.ID)
	}
	// First touch mines; retry while the shared flight outlasts one
	// request deadline.
	for _, id := range ids {
		var last string
		ok := false
		for attempt := 0; attempt < 60 && !ok; attempt++ {
			resp, err := client.Get(baseURL + "/datasets/" + id + "/support?items=0")
			if err != nil {
				return nil, err
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ok = true
				break
			}
			last = fmt.Sprintf("%d %s", resp.StatusCode, raw)
			time.Sleep(100 * time.Millisecond)
		}
		if !ok {
			return nil, fmt.Errorf("materialize tenant %s: %s", id, last)
		}
	}
	return ids, nil
}

// basketPool derives the request pool from the mined representation:
// baskets of one or two frequent items, so requests exercise the real
// ranking path instead of degenerate empty answers.
func basketPool(srv *server.Server, n, seed int) [][]int {
	// Frequent single items are exactly the 1-item derivable supports.
	qs := srv.Service()
	ctx := context.Background()
	var freq []int
	for it := 0; it < 10000 && len(freq) < 256; it++ {
		if _, ok, err := qs.Support(ctx, closedrules.Items(it)); err == nil && ok {
			freq = append(freq, it)
		}
	}
	if len(freq) == 0 {
		freq = []int{0}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	pool := make([][]int, n)
	for i := range pool {
		a := freq[rng.Intn(len(freq))]
		if rng.Intn(2) == 0 {
			b := freq[rng.Intn(len(freq))]
			if b != a {
				pool[i] = []int{a, b}
				continue
			}
		}
		pool[i] = []int{a}
	}
	return pool
}

// cellCounters aggregates one worker's observations.
type cellCounters struct {
	requests int64
	ok       int64
	shed     int64
	failed   int64
	lat      []time.Duration // latencies of 200s only
}

// driveCell runs one (endpoint × concurrency) load test against the
// live server and returns the measured cell. With tenant IDs the
// requests spread round-robin over the /datasets/{id} routes instead
// of the legacy path.
func driveCell(baseURL, endpoint string, cfg *config, pool [][]int, tenantIDs []string) (bench.ServingResult, error) {
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.concurrency * 2,
			MaxIdleConnsPerHost: cfg.concurrency * 2,
		},
		Timeout: 30 * time.Second,
	}
	defer client.CloseIdleConnections()

	// Pre-render the request pool once (per tenant prefix): workers
	// must spend their time on the wire, not in encoding/json.
	prefixes := []string{""}
	if len(tenantIDs) > 0 {
		prefixes = make([]string, len(tenantIDs))
		for i, id := range tenantIDs {
			prefixes[i] = "/datasets/" + id
		}
	}
	bodies := make([][]byte, 0, len(prefixes)*len(pool))
	urls := make([]string, 0, len(prefixes)*len(pool))
	for _, prefix := range prefixes {
		for _, basket := range pool {
			items := make([]string, len(basket))
			for j, it := range basket {
				items[j] = fmt.Sprint(it)
			}
			switch endpoint {
			case "recommend":
				bodies = append(bodies, []byte(fmt.Sprintf(`{"observed":[%s],"k":%d}`, strings.Join(items, ","), cfg.k)))
				urls = append(urls, baseURL+prefix+"/recommend")
			case "support":
				bodies = append(bodies, nil)
				urls = append(urls, baseURL+prefix+"/support?items="+strings.Join(items, ","))
			}
		}
	}
	fire := func(i int) (int, error) {
		var resp *http.Response
		var err error
		if bodies[i] != nil {
			resp, err = client.Post(urls[i], "application/json", bytes.NewReader(bodies[i]))
		} else {
			resp, err = client.Get(urls[i])
		}
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Warmup: page in code paths and fill the recommendation cache the
	// way a steady-state deployment would see it.
	warmEnd := time.Now().Add(cfg.warmup)
	for i := 0; time.Now().Before(warmEnd); i++ {
		if _, err := fire(i % len(urls)); err != nil {
			return bench.ServingResult{}, fmt.Errorf("warmup: %w", err)
		}
	}

	counters := make([]cellCounters, cfg.concurrency)
	start := make(chan struct{})
	var wg sync.WaitGroup
	deadline := time.Now().Add(cfg.duration)
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			c := &counters[w]
			<-start
			for time.Now().Before(deadline) {
				i := rng.Intn(len(urls))
				began := time.Now()
				code, err := fire(i)
				took := time.Since(began)
				c.requests++
				switch {
				case err != nil:
					c.failed++
				case code == http.StatusOK:
					c.ok++
					c.lat = append(c.lat, took)
				case code == http.StatusTooManyRequests:
					c.shed++
				default:
					c.failed++
				}
			}
		}(w)
	}
	measureStart := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(measureStart)

	cell := bench.ServingResult{
		Endpoint:    endpoint,
		Concurrency: cfg.concurrency,
		DurationMs:  elapsed.Milliseconds(),
	}
	var lat []time.Duration
	for w := range counters {
		c := &counters[w]
		cell.Requests += c.requests
		cell.OK += c.ok
		cell.Shed += c.shed
		cell.Failed += c.failed
		lat = append(lat, c.lat...)
	}
	if cell.Requests == 0 {
		return cell, fmt.Errorf("cell %s/c%d measured no requests", endpoint, cfg.concurrency)
	}
	cell.RPS = float64(cell.Requests) / elapsed.Seconds()
	p50, p99 := bench.Percentiles(lat)
	cell.P50Micros = p50.Microseconds()
	cell.P99Micros = p99.Microseconds()
	return cell, nil
}

func run(args []string, w io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	srv, workload, err := buildServer(ctx, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	baseURL := "http://" + ln.Addr().String()
	fmt.Fprintf(w, "benchhttp: serving %s on %s (max-inflight=%d)\n",
		workload, baseURL, cfg.maxInflight)

	var tenantIDs []string
	if cfg.tenants > 0 {
		tenantIDs, err = registerTenants(baseURL, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "benchhttp: registered and materialized %d tenants\n", len(tenantIDs))
	}

	pool := basketPool(srv, cfg.baskets, 1)
	newRun := bench.ServingRun{
		Label:       cfg.label,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Date:        time.Now().UTC().Format(time.RFC3339),
		Workload:    workload,
		MinSup:      cfg.minsup,
		MinConf:     cfg.minconf,
		MaxInFlight: cfg.maxInflight,
		Baskets:     cfg.baskets,
		Tenants:     cfg.tenants,
	}
	// Endpoint order is deterministic, and cells run back to back so
	// each one gets the whole machine.
	sorted := append([]string(nil), cfg.endpoints...)
	sort.Strings(sorted)
	for _, endpoint := range sorted {
		cell, err := driveCell(baseURL, endpoint, cfg, pool, tenantIDs)
		if err != nil {
			return err
		}
		newRun.Results = append(newRun.Results, cell)
		fmt.Fprintf(w, "  %s c=%d: %.0f rps, p50 %dus, p99 %dus, %d ok / %d shed / %d failed\n",
			endpoint, cell.Concurrency, cell.RPS, cell.P50Micros, cell.P99Micros, cell.OK, cell.Shed, cell.Failed)
	}
	cancel()
	if err := <-serveDone; err != nil {
		return fmt.Errorf("server: %w", err)
	}

	rep := bench.ServingReport{Schema: bench.ServingSchema}
	if cfg.appendRun {
		if f, err := os.Open(cfg.out); err == nil {
			prev, rerr := bench.ReadServingReport(f)
			f.Close()
			if rerr != nil {
				return fmt.Errorf("cannot append to %s: %w", cfg.out, rerr)
			}
			rep = prev
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	rep.Runs = append(rep.Runs, newRun)

	f, err := os.Create(cfg.out)
	if err != nil {
		return err
	}
	if err := bench.WriteServingReport(f, rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// Re-read and validate what was written: a malformed report must
	// be a non-zero exit, never a silently committed artifact.
	rf, err := os.Open(cfg.out)
	if err != nil {
		return err
	}
	defer rf.Close()
	if _, err := bench.ReadServingReport(rf); err != nil {
		return fmt.Errorf("emitted report is invalid: %w", err)
	}
	fmt.Fprintf(w, "wrote %s: %d run(s), %d cell(s) in run %q\n",
		cfg.out, len(rep.Runs), len(newRun.Results), newRun.Label)
	return nil
}
