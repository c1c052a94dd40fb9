// Command arserve mines a transaction dataset once and serves the
// condensed representation (closed itemsets + rule bases) over
// HTTP/JSON — the network front end of the library's QueryService.
//
// Usage:
//
//	arserve -in data.dat -minsup 0.3 [-minconf 0.5] [-addr :8080]
//	        [-algo close] [-exact-basis duquenne-guigues] [-approx-basis luxenburger]
//	        [-table -sep , -header]
//	        [-refresh 30s] [-refresh-timeout 1m]
//	        [-incremental=true] [-incremental-max-ratio 0.25]
//	        [-request-timeout 5s] [-mine-timeout 0] [-max-k 100]
//	        [-max-inflight 0]
//	        [-multi-tenant] [-max-tenants 64]
//	        [-tenant-memory-budget 268435456] [-mine-workers 2]
//	        [-tenant-data-dir /srv/datasets]
//
// Endpoints (see the server package for wire formats):
//
//	GET  /support?items=1,2
//	GET  /confidence?antecedent=2&consequent=0
//	GET  /rules?antecedent=2&consequent=0
//	POST /recommend        {"observed":[1],"k":3}
//	GET  /healthz
//	GET  /metrics          Prometheus text format
//	POST /admin/reload     force one refresh cycle now
//
// With -multi-tenant the server additionally exposes the dataset
// registry and per-tenant routes: POST/GET /datasets,
// GET/DELETE /datasets/{id}, async re-mines via
// POST /datasets/{id}/mine + GET /jobs/{id}, and the query family
// under /datasets/{id}/... The -in dataset becomes the pinned
// "default" tenant, so the legacy routes above keep answering from
// it. Tenant services live in an LRU pool bounded by
// -tenant-memory-budget: cold tenants are evicted past the budget and
// transparently re-mined on their next query. -mine-workers bounds
// concurrent async mine jobs; each runs under -mine-timeout.
// Registrations by server-side "path" are disabled unless
// -tenant-data-dir names a directory; paths then resolve inside it
// and nothing outside is ever readable through the registry.
//
// Data freshness is a refresh.Refresher over the input file: with
// -refresh set, the file is watched (mtime, size, checksum) and a
// change re-mines and hot-swaps the served snapshot with zero
// downtime — append transactions to -in and the served rules update
// without a restart. When the change is a pure append (the old bytes
// are an unmodified prefix of the new file) the refresher skips the
// re-mine entirely and updates the served closed sets in place (see
// the incremental package); -incremental=false forces full re-mines
// and -incremental-max-ratio bounds how large an append batch the
// incremental path accepts relative to the served dataset. Without
// -refresh nothing polls, but POST /admin/reload still runs the same
// cycle logic on demand (always as a full re-mine). Failed cycles
// keep the old snapshot serving and back off exponentially; /healthz
// and /metrics report the cycle counters, including the
// closedrules_refresh_incremental_* families. SIGINT/SIGTERM trigger
// a graceful shutdown.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"closedrules"
	"closedrules/refresh"
	"closedrules/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "arserve:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	in             string
	table          bool
	sep            rune
	header         bool
	minsup         float64
	abssup         int
	minconf        float64
	algo           string
	exactBasis     string
	approxBasis    string
	addr           string
	reqTimeout     time.Duration
	mineTimeout    time.Duration
	refresh        time.Duration
	refreshTimeout time.Duration
	maxK           int
	maxInflight    int
	incremental    bool
	incrementalMax float64
	multiTenant    bool
	maxTenants     int
	tenantBudget   int64
	mineWorkers    int
	tenantDataDir  string
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("arserve", flag.ContinueOnError)
	var (
		in             = fs.String("in", "", "input file (.dat basket format unless -table); watched when -refresh is set")
		table          = fs.Bool("table", false, "input is a nominal table (one attribute per column)")
		sep            = fs.String("sep", ",", "table column separator")
		header         = fs.Bool("header", false, "table has a header row")
		minsup         = fs.Float64("minsup", 0.5, "relative minimum support (0,1]")
		abssup         = fs.Int("abssup", 0, "absolute minimum support (overrides -minsup when ≥1)")
		minconf        = fs.Float64("minconf", 0.5, "minimum confidence [0,1] for the served approximate basis")
		algo           = fs.String("algo", "", "closed-miner registry name (default close)")
		exactBasis     = fs.String("exact-basis", "", "basis registry name served for exact rules (default duquenne-guigues)")
		approxBasis    = fs.String("approx-basis", "", "basis registry name served for approximate rules (default luxenburger)")
		addr           = fs.String("addr", ":8080", "listen address")
		reqTimeout     = fs.Duration("request-timeout", server.DefaultRequestTimeout, "per-query deadline (negative = none)")
		mineTimeout    = fs.Duration("mine-timeout", 0, "deadline for the initial mine (0 = none)")
		refreshEvery   = fs.Duration("refresh", 0, "poll the input file and re-mine on change at this interval (0 = manual /admin/reload only)")
		refreshTimeout = fs.Duration("refresh-timeout", 0, "deadline per refresh cycle (0 = same as -mine-timeout)")
		maxK           = fs.Int("max-k", server.DefaultMaxRecommend, "cap on the k of a recommend request")
		maxInflight    = fs.Int("max-inflight", 0, "per-endpoint admission cap; excess requests get a fast 429 (0 = off)")
		incremental    = fs.Bool("incremental", true, "update the served snapshot in place when the input file grows by appended transactions, instead of re-mining")
		incrementalMax = fs.Float64("incremental-max-ratio", 0, "largest append batch, as a fraction of the committed transaction count, still handled incrementally (0 = default 0.25)")
		multiTenant    = fs.Bool("multi-tenant", false, "serve the dataset registry and per-tenant routes (/datasets, /jobs); -in becomes the pinned default tenant")
		maxTenants     = fs.Int("max-tenants", 0, "cap on registered datasets in multi-tenant mode (0 = server default)")
		tenantBudget   = fs.Int64("tenant-memory-budget", 0, "total resident-bytes budget across tenant services; least-recently-used tenants are evicted past it (0 = server default)")
		mineWorkers    = fs.Int("mine-workers", 0, "async mine job worker count (0 = server default)")
		tenantDataDir  = fs.String("tenant-data-dir", "", "directory POST /datasets \"path\" registrations may read from (empty = path registrations disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *in == "" {
		return nil, fmt.Errorf("missing -in")
	}
	if *refreshEvery < 0 || *refreshTimeout < 0 {
		return nil, fmt.Errorf("-refresh and -refresh-timeout must be non-negative")
	}
	if *maxInflight < 0 {
		return nil, fmt.Errorf("-max-inflight must be non-negative")
	}
	if *incrementalMax < 0 {
		return nil, fmt.Errorf("-incremental-max-ratio must be non-negative")
	}
	r := []rune(*sep)
	if len(r) != 1 {
		return nil, fmt.Errorf("-sep must be a single character")
	}
	cfg := &config{
		in: *in, table: *table, sep: r[0], header: *header,
		minsup: *minsup, abssup: *abssup, minconf: *minconf, algo: *algo,
		exactBasis: *exactBasis, approxBasis: *approxBasis,
		addr: *addr, reqTimeout: *reqTimeout, mineTimeout: *mineTimeout,
		refresh: *refreshEvery, refreshTimeout: *refreshTimeout, maxK: *maxK,
		maxInflight: *maxInflight,
		incremental: *incremental, incrementalMax: *incrementalMax,
		multiTenant: *multiTenant, maxTenants: *maxTenants,
		tenantBudget: *tenantBudget, mineWorkers: *mineWorkers,
		tenantDataDir: *tenantDataDir,
	}
	if cfg.refreshTimeout == 0 {
		cfg.refreshTimeout = cfg.mineTimeout
	}
	return cfg, nil
}

// mineOptions are the registry options shared by the initial mine and
// every refresh cycle.
func (c *config) mineOptions() []closedrules.MineOption {
	opts := []closedrules.MineOption{closedrules.WithMinSupport(c.minsup)}
	if c.abssup >= 1 {
		opts = []closedrules.MineOption{closedrules.WithAbsoluteMinSupport(c.abssup)}
	}
	if c.algo != "" {
		opts = append(opts, closedrules.WithAlgorithm(c.algo))
	}
	return opts
}

// source builds the file watcher the refresher polls.
func (c *config) source() *refresh.FileSource {
	if c.table {
		return refresh.NewTableFileSource(c.in, c.sep, c.header)
	}
	return refresh.NewFileSource(c.in)
}

// mine loads the input file and mines it once, under the configured
// initial-mine deadline. Subsequent re-mines go through the Refresher.
func (c *config) mine(ctx context.Context, src *refresh.FileSource) (*closedrules.Result, error) {
	if c.mineTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.mineTimeout)
		defer cancel()
	}
	d, err := src.Load(ctx)
	if err != nil {
		return nil, err
	}
	return closedrules.MineContext(ctx, d, c.mineOptions()...)
}

// setup mines the initial representation and builds the HTTP server
// plus the refresher that keeps it fresh. The refresher is returned
// unstarted; run starts its poll loop when -refresh is set.
func setup(ctx context.Context, args []string) (*server.Server, *refresh.Refresher, *config, error) {
	cfg, err := parseFlags(args)
	if err != nil {
		return nil, nil, nil, err
	}
	src := cfg.source()
	res, err := cfg.mine(ctx, src)
	if err != nil {
		return nil, nil, nil, err
	}
	qs, err := closedrules.NewQueryServiceWithBases(res, cfg.minconf, closedrules.BasisSelection{
		Exact:       cfg.exactBasis,
		Approximate: cfg.approxBasis,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// The startup mine is now serving: commit its fingerprint so the
	// first poll does not re-mine identical data.
	src.Commit()
	ref, err := refresh.New(qs, refresh.Config{
		Source:              src,
		Interval:            cfg.refresh,
		MineTimeout:         cfg.refreshTimeout,
		MineOptions:         cfg.mineOptions(),
		DisableIncremental:  !cfg.incremental,
		IncrementalMaxRatio: cfg.incrementalMax,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := server.New(qs, server.Config{
		RequestTimeout:     cfg.reqTimeout,
		MaxRecommend:       cfg.maxK,
		Refresher:          ref,
		MaxInFlight:        cfg.maxInflight,
		MultiTenant:        cfg.multiTenant,
		MaxTenants:         cfg.maxTenants,
		TenantMemoryBudget: cfg.tenantBudget,
		MineWorkers:        cfg.mineWorkers,
		MineTimeout:        cfg.mineTimeout,
		TenantDataDir:      cfg.tenantDataDir,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return srv, ref, cfg, nil
}

func run(ctx context.Context, args []string, w io.Writer) error {
	srv, ref, cfg, err := setup(ctx, args)
	if err != nil {
		return err
	}
	if cfg.refresh > 0 {
		if err := ref.Start(); err != nil {
			return err
		}
		defer ref.Stop()
		fmt.Fprintf(w, "arserve: watching %s every %s\n", cfg.in, cfg.refresh)
	}
	qs := srv.Service()
	bases := qs.ServedBases()
	fmt.Fprintf(w, "arserve: mined %s (%d transactions, %d basis rules from %s + %s); serving on %s\n",
		cfg.in, qs.NumTransactions(), qs.NumRules(), bases.Exact, bases.Approximate, cfg.addr)
	return srv.ListenAndServe(ctx, cfg.addr)
}
