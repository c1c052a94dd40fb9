// Package server exposes a closedrules.QueryService over HTTP/JSON —
// the network serving layer of the library. The condensed
// representation the paper mines (frequent closed itemsets plus the
// Duquenne–Guigues and Luxenburger bases) is small enough to hold in
// memory and answer from at network speed; this package puts an HTTP
// front end on that idea.
//
// Endpoints:
//
//	GET  /support?items=1,2            supp(X) from the closed itemsets
//	GET  /confidence?antecedent=2&consequent=0
//	GET  /rules?antecedent=2&consequent=0   the fully measured rule
//	GET  /rules?basis=luxenburger[&minconf=0.5]  a full basis by registry name
//	POST /recommend                    {"observed":[1],"k":3} → ranked rules
//	GET  /bases                        registered bases + the served pair
//	GET  /healthz                      liveness + serving snapshot summary
//	GET  /metrics                      Prometheus text format
//	POST /admin/reload                 one forced Config.Refresher cycle
//
// In multi-tenant mode (Config.MultiTenant) every query verb is also
// served at /datasets/{id}/X by the same handler; the legacy /X routes
// answer from the pinned "default" tenant.
//
// When Config.Refresher is set (see the refresh package), the server
// becomes the observation surface of a continuously self-updating
// service: /healthz and /metrics report the refresher's cycle
// counters and POST /admin/reload runs one forced refresh cycle,
// sharing the background loop's single-flight guard (a concurrent
// cycle answers 409). Without a Refresher, /admin/reload answers 501.
//
// Queries run under a per-request deadline (Config.RequestTimeout)
// wired into the library's context plumbing; a deadline that expires
// surfaces as 503, a client disconnect as 499. Unparseable parameters
// are 400, underivable queries (e.g. a rule over an infrequent
// itemset) are 422. Shutdown is graceful: cancel the context passed
// to Serve or ListenAndServe and in-flight requests get
// Config.ShutdownGrace to finish.
//
// Admission control (Config.MaxInFlight) hardens the server under
// heavy traffic: it puts a fixed pool of in-flight slots in front of
// every gated query endpoint, a request over the cap is shed
// immediately with 429 Too Many Requests and a Retry-After hint
// instead of queueing into collapse, and the shed and in-flight counts
// surface in /metrics and /healthz. cmd/benchhttp load-tests it and
// tracks the results in BENCH_serving.json.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"closedrules"
	"closedrules/internal/tenant"
	"closedrules/refresh"
)

// Default configuration values applied by Config.validate.
const (
	DefaultRequestTimeout = 5 * time.Second
	DefaultShutdownGrace  = 5 * time.Second
	DefaultMaxRecommend   = 100
	// DefaultMaxTenants caps registered datasets in multi-tenant mode.
	DefaultMaxTenants = 64
	// DefaultTenantMemoryBudget bounds the summed resident-bytes
	// estimate of materialized tenants (256 MiB).
	DefaultTenantMemoryBudget = 256 << 20
	// DefaultMineWorkers runs async mine jobs.
	DefaultMineWorkers = 2
)

// maxBodyBytes bounds request bodies; recommend observations are tiny.
const maxBodyBytes = 1 << 20

// Config tunes a Server. The zero value is usable: every field has a
// default applied by New, and a nil Refresher simply disables the
// /admin/reload endpoint (it answers 501).
type Config struct {
	// RequestTimeout is the per-query deadline. 0 means
	// DefaultRequestTimeout; negative disables the deadline. It is one
	// deadline per request: on a /datasets/{id} route it covers both
	// resolving the tenant (including the wait for a re-mine of an
	// evicted one) and answering the query.
	RequestTimeout time.Duration
	// ShutdownGrace is how long in-flight requests may finish after
	// the serve context is cancelled. 0 means DefaultShutdownGrace.
	ShutdownGrace time.Duration
	// MaxRecommend caps the k of a recommend request; larger values
	// are clamped. 0 means DefaultMaxRecommend.
	MaxRecommend int
	// Refresher, when set, enables the data-freshness surface:
	// POST /admin/reload delegates to Refresher.Refresh (the same
	// cycle logic the background poll loop runs, so manual and
	// automatic reloads share single-flight and stats), and /healthz
	// and /metrics expose the refresher's cycle counters. The server
	// does not Start or Stop the refresher — its lifecycle belongs to
	// the caller (see cmd/arserve).
	Refresher *refresh.Refresher
	// MaxInFlight caps concurrently executing requests per query
	// endpoint (support, confidence, rules, recommend — each gets its
	// own gate, so a rules storm cannot starve recommend). A request
	// over the cap is shed immediately with 429 + Retry-After instead
	// of queued into collapse; sheds surface in /metrics
	// (closedrules_http_shed_total) and /healthz. 0 disables
	// admission control. Observability endpoints are never gated.
	MaxInFlight int
	// MultiTenant turns the server into a mining service: the dataset
	// registry routes (POST/GET /datasets, DELETE /datasets/{id}),
	// async mine jobs (POST /datasets/{id}/mine, GET /jobs/{id}) and
	// per-tenant query routes (/datasets/{id}/support|confidence|
	// rules|bases, POST /datasets/{id}/recommend) are mounted, backed
	// by a tenant pool with LRU eviction under TenantMemoryBudget. The
	// legacy single-dataset routes stay up, served by a pinned
	// "default" tenant that is the qs passed to New.
	MultiTenant bool
	// MaxTenants caps registered datasets in multi-tenant mode. 0
	// means DefaultMaxTenants; negative is a validation error.
	MaxTenants int
	// TenantMemoryBudget bounds the summed MemoryEstimate of resident
	// tenant services, in bytes; least-recently-queried tenants are
	// evicted past it and transparently re-mined on their next query.
	// 0 means DefaultTenantMemoryBudget; negative is a validation
	// error.
	TenantMemoryBudget int64
	// MineWorkers is the async mine job worker count. 0 means
	// DefaultMineWorkers; negative is a validation error.
	MineWorkers int
	// MineTimeout bounds one tenant materialization or mine job. 0
	// means no deadline; negative is a validation error.
	MineTimeout time.Duration
	// TenantDataDir, when set, allows POST /datasets registrations by
	// server-side "path": paths are resolved inside this directory
	// (symlinks cannot tunnel out) and anything else is rejected.
	// Empty — the default — disables path registrations entirely, so an
	// untrusted HTTP client can never point the miner at arbitrary
	// server-readable files. validate requires an existing directory
	// and stores the absolute form.
	TenantDataDir string
}

// validate applies defaults and rejects configurations no server
// should run with. New calls it; the explicit errors (rather than
// silent clamping) are what let arserve report a bad flag instead of
// starting with a surprise value. Tenant knobs are validated even
// when MultiTenant is off, so a negative budget cannot hide behind a
// disabled mode flag.
func (c *Config) validate() error {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = DefaultRequestTimeout
	}
	if c.ShutdownGrace < 0 {
		return fmt.Errorf("server: negative ShutdownGrace %v", c.ShutdownGrace)
	}
	if c.ShutdownGrace == 0 {
		c.ShutdownGrace = DefaultShutdownGrace
	}
	if c.MaxRecommend < 0 {
		return fmt.Errorf("server: negative MaxRecommend %d", c.MaxRecommend)
	}
	if c.MaxRecommend == 0 {
		c.MaxRecommend = DefaultMaxRecommend
	}
	if c.MaxInFlight < 0 {
		return fmt.Errorf("server: negative MaxInFlight %d", c.MaxInFlight)
	}
	if c.MaxTenants < 0 {
		return fmt.Errorf("server: negative MaxTenants %d", c.MaxTenants)
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = DefaultMaxTenants
	}
	if c.TenantMemoryBudget < 0 {
		return fmt.Errorf("server: negative TenantMemoryBudget %d", c.TenantMemoryBudget)
	}
	if c.TenantMemoryBudget == 0 {
		c.TenantMemoryBudget = DefaultTenantMemoryBudget
	}
	if c.MineWorkers < 0 {
		return fmt.Errorf("server: negative MineWorkers %d", c.MineWorkers)
	}
	if c.MineWorkers == 0 {
		c.MineWorkers = DefaultMineWorkers
	}
	if c.MineTimeout < 0 {
		return fmt.Errorf("server: negative MineTimeout %v", c.MineTimeout)
	}
	if c.TenantDataDir != "" {
		abs, err := filepath.Abs(c.TenantDataDir)
		if err != nil {
			return fmt.Errorf("server: TenantDataDir: %w", err)
		}
		fi, err := os.Stat(abs)
		if err != nil {
			return fmt.Errorf("server: TenantDataDir: %w", err)
		}
		if !fi.IsDir() {
			return fmt.Errorf("server: TenantDataDir %s is not a directory", abs)
		}
		c.TenantDataDir = abs
	}
	return nil
}

// Server serves a QueryService over HTTP. Create one with New; it is
// safe for concurrent use and a single instance handles all traffic.
// A multi-tenant Server owns a tenant pool and its mine workers: Serve
// and ListenAndServe release them on shutdown, while Handler-only
// users (tests mounting the mux) should call Close themselves.
type Server struct {
	qs        *closedrules.QueryService
	cfg       Config
	metrics   *metricsRegistry
	pool      *tenant.Pool   // nil unless Config.MultiTenant
	tmetrics  *tenantMetrics // nil unless Config.MultiTenant
	handler   http.Handler
	limiters  map[string]*limiter // per-endpoint admission gates (nil entries when disabled)
	closeOnce sync.Once
}

// endpointNames are the metric label values, in exposition order.
// datasets and jobs only receive traffic in multi-tenant mode; their
// series sit at zero otherwise.
var endpointNames = []string{
	"support", "confidence", "rules", "recommend", "bases", "healthz", "metrics", "reload",
	"datasets", "jobs",
}

// queryEndpoints are the endpoints admission control gates; the
// observability and admin endpoints stay reachable under overload.
// Tenant query routes share these gates under the same endpoint name,
// so the cap bounds total load per verb across all tenants.
var queryEndpoints = []string{"support", "confidence", "rules", "recommend"}

// queryFunc is one query verb's core: it answers r from qs under ctx,
// the request's single deadline, writing parameter errors itself.
type queryFunc func(ctx context.Context, qs *closedrules.QueryService, w http.ResponseWriter, r *http.Request)

// New builds a Server around the service, validating and defaulting
// the Config (see Config.validate). With Config.MultiTenant the qs
// becomes the pinned "default" tenant of a tenant pool and the
// /datasets and /jobs route families are mounted alongside the legacy
// single-dataset routes.
func New(qs *closedrules.QueryService, cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{qs: qs, cfg: cfg, metrics: newMetricsRegistry(endpointNames)}
	s.limiters = make(map[string]*limiter, len(queryEndpoints))
	if cfg.MaxInFlight > 0 {
		for _, e := range queryEndpoints {
			s.limiters[e] = newLimiter(cfg.MaxInFlight)
		}
	}
	if cfg.MultiTenant {
		pool, err := tenant.NewPool(tenant.Config{
			MaxTenants:   cfg.MaxTenants,
			MemoryBudget: cfg.TenantMemoryBudget,
			MineWorkers:  cfg.MineWorkers,
			MineTimeout:  cfg.MineTimeout,
		})
		if err != nil {
			return nil, err
		}
		// The qs handed to New becomes the pinned default tenant: the
		// legacy routes and /datasets/default serve the same snapshots,
		// and being pinned it is never evicted or deletable. It has no
		// source, so mine jobs on it fail with ErrNoSource.
		if _, err := pool.Register(tenant.Spec{
			ID:      DefaultTenantID,
			Pinned:  true,
			Service: qs,
			Params:  tenant.Params{MinConfidence: qs.MinConfidence()},
		}); err != nil {
			pool.Close()
			return nil, err
		}
		s.pool = pool
		s.tmetrics = newTenantMetrics()
	}
	mux := http.NewServeMux()
	// One handler per query verb, mounted at /name and, in multi-tenant
	// mode, at /datasets/{id}/name; query picks the service from the
	// path. bases has no admission gate (its limiter entry is nil).
	for _, rt := range []struct {
		method, name string
		serve        queryFunc
	}{
		{"GET", "support", s.serveSupport},
		{"GET", "confidence", s.serveConfidence},
		{"GET", "rules", s.serveRules},
		{"POST", "recommend", s.serveRecommend},
		{"GET", "bases", s.serveBases},
	} {
		h := s.instrument(rt.name, s.admit(s.limiters[rt.name], s.query(rt.serve)))
		mux.HandleFunc(rt.method+" /"+rt.name, h)
		if s.pool != nil {
			mux.HandleFunc(rt.method+" /datasets/{id}/"+rt.name, h)
		}
	}
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("POST /admin/reload", s.instrument("reload", s.handleReload))
	if s.pool != nil {
		s.registerTenantRoutes(mux)
	}
	s.handler = mux
	return s, nil
}

// Close releases the server's background resources: in multi-tenant
// mode, the tenant pool's mine workers and per-tenant refreshers.
// Serve and ListenAndServe call it on the way out; Handler-only users
// should call it when done. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.pool != nil {
			s.pool.Close()
		}
	})
}

// Handler returns the server's routing handler, for mounting under a
// larger mux or an httptest server.
func (s *Server) Handler() http.Handler { return s.handler }

// Service returns the underlying QueryService.
func (s *Server) Service() *closedrules.QueryService { return s.qs }

// ListenAndServe listens on addr and serves until the context is
// cancelled, then shuts down gracefully.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve serves on the listener until the context is cancelled, then
// shuts down gracefully: in-flight requests get ShutdownGrace to
// finish. A nil error means a clean shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	defer s.Close()
	srv := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.ShutdownGrace)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		<-errc // always http.ErrServerClosed once Shutdown has begun
		return err
	}
}

// instrument wraps a handler with per-endpoint request, error and
// latency accounting. A request on a /datasets/{id} query route is
// also counted under its tenant label, but only for an ID actually in
// the registry: keying off the response status is not enough, because
// admission-control 429s fire before tenant resolution, so a scanner
// probing random IDs during overload would otherwise mint unbounded
// metric series. Only the query routes name their wildcard {id}; the
// registry and job routes use {dataset} and {job}, so their traffic
// is never tenant-labelled.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.metrics.observe(name, rec.code, time.Since(start))
		if id := r.PathValue("id"); id != "" && s.pool.Has(id) {
			s.tmetrics.observe(id, name, rec.code)
		}
	}
}

// statusRecorder captures the response status for metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// query turns a verb's core into its route handler. It derives the
// request's one deadline, resolves the service to answer from — s.qs
// on a legacy route, the {id} tenant through the pool otherwise,
// re-mining an evicted tenant within that same deadline — and runs the
// verb. A timed-out wait for a shared re-mine leaves the mine running
// for later callers.
func (s *Server) query(serve queryFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		qs := s.qs
		if id := r.PathValue("id"); id != "" {
			var err error
			if qs, err = s.pool.Service(ctx, id); err != nil {
				writeTenantError(w, err)
				return
			}
		}
		serve(ctx, qs, w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

type errorJSON struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorJSON{Error: msg})
}

// statusClientClosedRequest is the nginx-conventional status for a
// request whose client went away before the response; it keeps client
// cancellations out of the 5xx rate an operator alerts on.
const statusClientClosedRequest = 499

// writeQueryError maps a QueryService error onto a status: an expired
// deadline is 503 (the server ran out of its per-request budget), a
// cancelled context is 499 (the client disconnected — nobody reads
// the response, but metrics attribute it correctly), anything else is
// 422 (the query is well-formed but not derivable from the served
// representation).
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "client closed request")
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// parseItems parses a comma-separated list of non-negative item ids
// ("1,2,4") into an Itemset.
func parseItems(s string) (closedrules.Itemset, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty itemset")
	}
	parts := strings.Split(s, ",")
	items := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad item %q: want a non-negative integer", p)
		}
		items = append(items, n)
	}
	return closedrules.Items(items...), nil
}

// itemsParam reads and parses a required itemset query parameter,
// answering 400 itself when the parameter is missing or malformed.
func itemsParam(w http.ResponseWriter, r *http.Request, name string) (closedrules.Itemset, bool) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		writeError(w, http.StatusBadRequest, "missing ?"+name+"= parameter")
		return nil, false
	}
	items, err := parseItems(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, name+": "+err.Error())
		return nil, false
	}
	return items, true
}

// ruleJSON is the wire form of a measured rule, matching the
// closedrules JSON rule format plus a derived lift.
type ruleJSON struct {
	Antecedent        []int   `json:"antecedent"`
	Consequent        []int   `json:"consequent"`
	Support           int     `json:"support"`
	AntecedentSupport int     `json:"antecedentSupport"`
	ConsequentSupport int     `json:"consequentSupport,omitempty"`
	Confidence        float64 `json:"confidence"`
	Lift              float64 `json:"lift,omitempty"`
}

// ruleToJSON renders a rule with its derived lift. numTx must be the
// transaction count of the snapshot that measured the rule (the *WithN
// query variants report it), not a separate NumTransactions read —
// a hot reload between the two would skew the lift.
func ruleToJSON(r closedrules.Rule, numTx int) ruleJSON {
	out := ruleJSON{
		Antecedent:        append([]int{}, r.Antecedent...),
		Consequent:        append([]int{}, r.Consequent...),
		Support:           r.Support,
		AntecedentSupport: r.AntecedentSupport,
		ConsequentSupport: r.ConsequentSupport,
		Confidence:        r.Confidence(),
	}
	if m, err := closedrules.RuleMetrics(r, numTx); err == nil {
		out.Lift = m.Lift
	}
	return out
}

type supportJSON struct {
	Items    []int `json:"items"`
	Support  int   `json:"support"`
	Frequent bool  `json:"frequent"`
}

func (s *Server) serveSupport(ctx context.Context, qs *closedrules.QueryService, w http.ResponseWriter, r *http.Request) {
	items, ok := itemsParam(w, r, "items")
	if !ok {
		return
	}
	sup, frequent, err := qs.Support(ctx, items)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, supportJSON{Items: append([]int{}, items...), Support: sup, Frequent: frequent})
}

type confidenceJSON struct {
	Antecedent []int   `json:"antecedent"`
	Consequent []int   `json:"consequent"`
	Confidence float64 `json:"confidence"`
}

func (s *Server) serveConfidence(ctx context.Context, qs *closedrules.QueryService, w http.ResponseWriter, r *http.Request) {
	ant, ok := itemsParam(w, r, "antecedent")
	if !ok {
		return
	}
	cons, ok := itemsParam(w, r, "consequent")
	if !ok {
		return
	}
	conf, err := qs.Confidence(ctx, ant, cons)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, confidenceJSON{
		Antecedent: append([]int{}, ant...),
		Consequent: append([]int{}, cons...),
		Confidence: conf,
	})
}

// basisRulesJSON is the wire form of a full basis listing.
type basisRulesJSON struct {
	Basis         string     `json:"basis"`
	MinConfidence float64    `json:"minConfidence"`
	Count         int        `json:"count"`
	Rules         []ruleJSON `json:"rules"`
}

// serveBasisRules answers /rules?basis=NAME[&minconf=C]: the complete
// rule list of the named basis, built from the served snapshot.
// minconf defaults to the service's confidence threshold.
func (s *Server) serveBasisRules(ctx context.Context, qs *closedrules.QueryService, w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("basis")
	if _, err := closedrules.LookupBasis(name); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	minConf := qs.MinConfidence()
	if raw := r.URL.Query().Get("minconf"); raw != "" {
		c, err := strconv.ParseFloat(raw, 64)
		// The negated-AND form also rejects NaN ("minconf=NaN" parses
		// without error but passes every ordered comparison).
		if err != nil || !(c >= 0 && c <= 1) {
			writeError(w, http.StatusBadRequest, "minconf: want a number in [0,1]")
			return
		}
		minConf = c
	}
	rs, numTx, err := qs.BasisRulesWithN(ctx, name, minConf)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	out := basisRulesJSON{
		Basis:         rs.Basis,
		MinConfidence: rs.MinConfidence,
		Count:         rs.Len(),
		Rules:         make([]ruleJSON, rs.Len()),
	}
	for i, rule := range rs.Rules {
		out.Rules[i] = ruleToJSON(rule, numTx)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) serveRules(ctx context.Context, qs *closedrules.QueryService, w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Has("basis") {
		s.serveBasisRules(ctx, qs, w, r)
		return
	}
	ant, ok := itemsParam(w, r, "antecedent")
	if !ok {
		return
	}
	cons, ok := itemsParam(w, r, "consequent")
	if !ok {
		return
	}
	rule, numTx, err := qs.RuleWithN(ctx, ant, cons)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ruleToJSON(rule, numTx))
}

type recommendRequest struct {
	Observed []int `json:"observed"`
	K        int   `json:"k"`
}

type recommendJSON struct {
	Observed []int      `json:"observed"`
	K        int        `json:"k"`
	Rules    []ruleJSON `json:"rules"`
}

func (s *Server) serveRecommend(ctx context.Context, qs *closedrules.QueryService, w http.ResponseWriter, r *http.Request) {
	var req recommendRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	for _, it := range req.Observed {
		if it < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad item %d: want a non-negative integer", it))
			return
		}
	}
	if req.K < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad k %d: want a positive integer", req.K))
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k > s.cfg.MaxRecommend {
		k = s.cfg.MaxRecommend
	}
	recs, numTx, err := qs.RecommendWithN(ctx, closedrules.Items(req.Observed...), k)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	out := recommendJSON{Observed: req.Observed, K: k, Rules: make([]ruleJSON, len(recs))}
	for i, rec := range recs {
		out.Rules[i] = ruleToJSON(rec, numTx)
	}
	writeJSON(w, http.StatusOK, out)
}

// servingJSON names the basis pair the snapshot serves queries from.
type servingJSON struct {
	Exact       string `json:"exact,omitempty"`
	Approximate string `json:"approximate"`
}

// basesJSON is the wire form of GET /bases: what is registered and
// what this service is serving.
type basesJSON struct {
	Registered    []string    `json:"registered"`
	Serving       servingJSON `json:"serving"`
	MinConfidence float64     `json:"minConfidence"`
}

// serveBases answers GET /bases with the registered basis names and
// the pair the current snapshot serves Recommend from.
func (s *Server) serveBases(_ context.Context, qs *closedrules.QueryService, w http.ResponseWriter, _ *http.Request) {
	served := qs.ServedBases()
	writeJSON(w, http.StatusOK, basesJSON{
		Registered:    closedrules.Bases(),
		Serving:       servingJSON{Exact: served.Exact, Approximate: served.Approximate},
		MinConfidence: qs.MinConfidence(),
	})
}

type healthJSON struct {
	Status        string         `json:"status"`
	Transactions  int            `json:"transactions"`
	BasisRules    int            `json:"basisRules"`
	Serving       servingJSON    `json:"serving"`
	MinConfidence float64        `json:"minConfidence"`
	Swaps         uint64         `json:"swaps"`
	Cache         cacheJSON      `json:"cache"`
	Admission     *admissionJSON `json:"admission,omitempty"`
	Refresh       *refreshJSON   `json:"refresh,omitempty"`
	Tenants       *tenantsJSON   `json:"tenants,omitempty"`
}

// tenantsJSON is the healthz view of the tenant pool; present only in
// multi-tenant mode.
type tenantsJSON struct {
	Registered  int          `json:"registered"`
	Resident    int          `json:"resident"`
	MaxTenants  int          `json:"maxTenants"`
	BudgetBytes int64        `json:"budgetBytes"`
	PoolBytes   int64        `json:"poolBytes"`
	Evictions   uint64       `json:"evictions"`
	Mines       uint64       `json:"mines"`
	Jobs        jobStatsJSON `json:"jobs"`
}

type jobStatsJSON struct {
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Done    uint64 `json:"done"`
	Failed  uint64 `json:"failed"`
}

// cacheJSON is the healthz view of the recommendation cache serving
// the CURRENT snapshot: the hit/miss pair resets at every Swap, so
// HitRatio describes how warm the cache answering requests right now
// actually is instead of conflating every snapshot since boot.
type cacheJSON struct {
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hitRatio"`
	Entries  int     `json:"entries"`
}

// admissionJSON is the healthz view of the per-endpoint admission
// gates; present only when Config.MaxInFlight is set.
type admissionJSON struct {
	MaxInFlight int               `json:"maxInFlight"`
	InFlight    map[string]int    `json:"inFlight"`
	Shed        map[string]uint64 `json:"shed"`
}

// refreshJSON is the healthz view of the background refresher's cycle
// counters; present only when a Refresher is configured.
type refreshJSON struct {
	Running             bool   `json:"running"`
	Cycles              uint64 `json:"cycles"`
	Successes           uint64 `json:"successes"`
	Skips               uint64 `json:"skips"`
	Failures            uint64 `json:"failures"`
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	LastError           string `json:"lastError,omitempty"`
	LastSwap            string `json:"lastSwap,omitempty"`
	LastMineMs          int64  `json:"lastMineMs"`
	// Incremental-path counters: successful delta applications (a
	// subset of successes), cycles that fell back to a full re-mine,
	// total appended transactions applied, and the lattice-update
	// duration of the last incremental cycle.
	IncrementalSuccesses uint64 `json:"incrementalSuccesses"`
	IncrementalFallbacks uint64 `json:"incrementalFallbacks"`
	DeltaTransactions    uint64 `json:"deltaTransactions"`
	LastIncrementalMs    int64  `json:"lastIncrementalMs"`
}

// refreshStats snapshots the configured refresher's counters, or nil.
func (s *Server) refreshStats() *refresh.Stats {
	if s.cfg.Refresher == nil {
		return nil
	}
	st := s.cfg.Refresher.Stats()
	return &st
}

// refreshToJSON renders refresher counters for healthz and the
// per-dataset registry views.
func refreshToJSON(st *refresh.Stats) *refreshJSON {
	out := &refreshJSON{
		Running:              st.Running,
		Cycles:               st.Cycles,
		Successes:            st.Successes,
		Skips:                st.Skips,
		Failures:             st.Failures,
		ConsecutiveFailures:  st.ConsecutiveFailures,
		LastError:            st.LastError,
		LastMineMs:           st.LastMineDuration.Milliseconds(),
		IncrementalSuccesses: st.IncrementalSuccesses,
		IncrementalFallbacks: st.IncrementalFallbacks,
		DeltaTransactions:    st.DeltaTransactions,
		LastIncrementalMs:    st.LastIncrementalDuration.Milliseconds(),
	}
	if !st.LastSwap.IsZero() {
		out.LastSwap = st.LastSwap.UTC().Format(time.RFC3339)
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	served := s.qs.ServedBases()
	svc := s.qs.Stats()
	out := healthJSON{
		Status:        "ok",
		Transactions:  s.qs.NumTransactions(),
		BasisRules:    s.qs.NumRules(),
		Serving:       servingJSON{Exact: served.Exact, Approximate: served.Approximate},
		MinConfidence: s.qs.MinConfidence(),
		Swaps:         svc.Swaps,
		Cache: cacheJSON{
			Hits:     svc.SnapshotCacheHits,
			Misses:   svc.SnapshotCacheMisses,
			HitRatio: svc.SnapshotHitRatio(),
			Entries:  svc.CacheEntries,
		},
	}
	if s.cfg.MaxInFlight > 0 {
		adm := &admissionJSON{
			MaxInFlight: s.cfg.MaxInFlight,
			InFlight:    make(map[string]int, len(queryEndpoints)),
			Shed:        make(map[string]uint64, len(queryEndpoints)),
		}
		for _, e := range queryEndpoints {
			l := s.limiters[e]
			adm.InFlight[e] = l.inFlight()
			adm.Shed[e] = l.shedCount()
		}
		out.Admission = adm
	}
	if st := s.refreshStats(); st != nil {
		out.Refresh = refreshToJSON(st)
	}
	if s.pool != nil {
		st := s.pool.Stats()
		out.Tenants = &tenantsJSON{
			Registered:  st.Registered,
			Resident:    st.Resident,
			MaxTenants:  st.MaxTenants,
			BudgetBytes: st.BudgetBytes,
			PoolBytes:   st.Bytes,
			Evictions:   st.Evictions,
			Mines:       st.Mines,
			Jobs: jobStatsJSON{
				Queued:  st.Jobs.Queued,
				Running: st.Jobs.Running,
				Done:    st.Jobs.Done,
				Failed:  st.Jobs.Failed,
			},
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writePrometheus(w, s.qs.Stats(), s.qs.NumTransactions(), s.qs.NumRules(), s.refreshStats())
	if s.cfg.MaxInFlight > 0 {
		writeAdmission(w, s.cfg.MaxInFlight, queryEndpoints, s.limiters)
	}
	if s.pool != nil {
		writeTenantMetrics(w, s.pool.Stats(), s.tmetrics)
	}
}

// reloadJSON is the wire form of a successful reload. Transactions
// and BasisRules describe the snapshot being served as the response
// is written; under a polling refresher a subsequent cycle's swap can
// land between this request's swap and the read, so automation should
// treat them as "now serving", not "what this call mined".
type reloadJSON struct {
	Status       string `json:"status"`
	Transactions int    `json:"transactions"`
	BasisRules   int    `json:"basisRules"`
	ElapsedMs    int64  `json:"elapsedMs"`
}

// handleReload answers POST /admin/reload: one forced refresh cycle —
// the exact logic the background poll loop runs, sharing its
// single-flight guard and stats, so an operator POST and an interval
// tick can never mine concurrently; a cycle already in flight answers
// 409. The Refresher's MineTimeout bounds the cycle.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Refresher == nil {
		writeError(w, http.StatusNotImplemented, "no reload source configured")
		return
	}
	start := time.Now()
	if err := s.cfg.Refresher.Refresh(r.Context()); err != nil {
		if errors.Is(err, refresh.ErrBusy) {
			writeError(w, http.StatusConflict, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, "reload: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, reloadJSON{
		Status:       "reloaded",
		Transactions: s.qs.NumTransactions(),
		BasisRules:   s.qs.NumRules(),
		ElapsedMs:    time.Since(start).Milliseconds(),
	})
}
