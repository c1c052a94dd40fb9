package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"closedrules"
	"closedrules/internal/tenant"
	"closedrules/refresh"
)

// DefaultTenantID names the pinned tenant backing the legacy
// single-dataset routes in multi-tenant mode: /support and
// /datasets/default/support answer from the same snapshots.
const DefaultTenantID = "default"

// maxRegisterBytes bounds POST /datasets bodies: inline uploads carry
// whole datasets, so the cap is far above the query-body cap.
const maxRegisterBytes = 32 << 20

// registerTenantRoutes mounts the dataset registry and job routes.
// The per-tenant query routes are mounted by New from the same table
// as the legacy ones. The wildcards here are {dataset} and {job}, not
// {id}: instrument tenant-labels exactly the routes with an {id}.
func (s *Server) registerTenantRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /datasets", s.instrument("datasets", s.handleRegisterDataset))
	mux.HandleFunc("GET /datasets", s.instrument("datasets", s.handleListDatasets))
	mux.HandleFunc("GET /datasets/{dataset}", s.instrument("datasets", s.handleGetDataset))
	mux.HandleFunc("DELETE /datasets/{dataset}", s.instrument("datasets", s.handleDeleteDataset))
	mux.HandleFunc("POST /datasets/{dataset}/mine", s.instrument("datasets", s.handleMineDataset))
	mux.HandleFunc("GET /jobs/{job}", s.instrument("jobs", s.handleGetJob))
}

// writeTenantError maps pool errors onto statuses: unknown IDs 404,
// duplicates 409, pinned-tenant mutations 403, capacity and fairness
// limits 429 (with a Retry-After hint, like admission control), bad
// input 400, shutdown 503, and anything the mine itself rejected 422.
func writeTenantError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, tenant.ErrExists):
		writeError(w, http.StatusConflict, err.Error())
	case errors.Is(err, tenant.ErrPinned):
		writeError(w, http.StatusForbidden, err.Error())
	case errors.Is(err, tenant.ErrPoolFull),
		errors.Is(err, tenant.ErrTenantBusy),
		errors.Is(err, tenant.ErrQueueFull):
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, tenant.ErrBadID):
		writeError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, tenant.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosedRequest, "client closed request")
	default:
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	}
}

// paramsJSON is the wire form of mining parameters, shared by the
// register body, the mine-job body, and dataset/job responses. The
// pointer confidence distinguishes "not sent" from an explicit 0.
type paramsJSON struct {
	MinSupport    float64  `json:"minSupport,omitempty"`
	AbsSupport    int      `json:"absSupport,omitempty"`
	MinConfidence *float64 `json:"minConfidence,omitempty"`
	Algorithm     string   `json:"algorithm,omitempty"`
	ExactBasis    string   `json:"exactBasis,omitempty"`
	ApproxBasis   string   `json:"approxBasis,omitempty"`
}

// merge overlays the fields the request actually sent onto base. A
// non-zero MinSupport clears an inherited absolute threshold (the
// sender chose relative), and vice versa the explicit AbsSupport
// wins over an inherited relative one.
func (p paramsJSON) merge(base tenant.Params) tenant.Params {
	out := base
	if p.MinSupport != 0 {
		out.MinSupport = p.MinSupport
		out.AbsSupport = 0
	}
	if p.AbsSupport != 0 {
		out.AbsSupport = p.AbsSupport
		out.MinSupport = 0
	}
	if p.MinConfidence != nil {
		out.MinConfidence = *p.MinConfidence
	}
	if p.Algorithm != "" {
		out.Algorithm = p.Algorithm
	}
	if p.ExactBasis != "" {
		out.ExactBasis = p.ExactBasis
	}
	if p.ApproxBasis != "" {
		out.ApproxBasis = p.ApproxBasis
	}
	return out
}

func paramsToJSON(p tenant.Params) paramsJSON {
	mc := p.MinConfidence
	return paramsJSON{
		MinSupport:    p.MinSupport,
		AbsSupport:    p.AbsSupport,
		MinConfidence: &mc,
		Algorithm:     p.Algorithm,
		ExactBasis:    p.ExactBasis,
		ApproxBasis:   p.ApproxBasis,
	}
}

// registerRequest is the POST /datasets body. Exactly one of
// Transactions (inline itemset lists), Dat (inline .dat text) or Path
// (a server-side file inside Config.TenantDataDir; rejected with 403
// when the operator has not configured one) must be set.
type registerRequest struct {
	ID           string     `json:"id"`
	Name         string     `json:"name"`
	Transactions [][]int    `json:"transactions"`
	Dat          string     `json:"dat"`
	Path         string     `json:"path"`
	Table        bool       `json:"table"`
	Sep          string     `json:"sep"`
	Header       bool       `json:"header"`
	Refresh      string     `json:"refresh"`
	Mine         bool       `json:"mine"`
	Params       paramsJSON `json:"params"`
}

// datasetJSON is the wire form of one tenant's registry entry.
type datasetJSON struct {
	ID        string       `json:"id"`
	Name      string       `json:"name"`
	CreatedAt string       `json:"createdAt"`
	Pinned    bool         `json:"pinned,omitempty"`
	Resident  bool         `json:"resident"`
	Bytes     int64        `json:"bytes"`
	Mines     uint64       `json:"mines"`
	Params    paramsJSON   `json:"params"`
	Refresh   string       `json:"refresh,omitempty"`
	RefreshST *refreshJSON `json:"refreshStats,omitempty"`
}

func datasetToJSON(info tenant.Info) datasetJSON {
	out := datasetJSON{
		ID:        info.ID,
		Name:      info.Name,
		CreatedAt: info.CreatedAt.UTC().Format(time.RFC3339),
		Pinned:    info.Pinned,
		Resident:  info.Resident,
		Bytes:     info.Bytes,
		Mines:     info.Mines,
		Params:    paramsToJSON(info.Params),
	}
	if info.Refresh > 0 {
		out.Refresh = info.Refresh.String()
	}
	if info.RefreshStats != nil {
		out.RefreshST = refreshToJSON(info.RefreshStats)
	}
	return out
}

// registerResponse is the 201 body: the new registry entry plus, with
// "mine": true, the initial mine job's ID (or why it could not be
// enqueued — the registration itself still stands).
type registerResponse struct {
	datasetJSON
	Job      string `json:"job,omitempty"`
	JobError string `json:"jobError,omitempty"`
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	body := http.MaxBytesReader(w, r.Body, maxRegisterBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	sources := 0
	for _, set := range []bool{req.Transactions != nil, req.Dat != "", req.Path != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		writeError(w, http.StatusBadRequest, "exactly one of transactions, dat or path must be set")
		return
	}
	var refreshIval time.Duration
	if req.Refresh != "" {
		d, err := time.ParseDuration(req.Refresh)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "refresh: want a positive duration like \"30s\"")
			return
		}
		if req.Path == "" {
			writeError(w, http.StatusBadRequest, "refresh requires a path-backed dataset")
			return
		}
		refreshIval = d
	}
	src, ok := s.registerSource(w, &req)
	if !ok {
		return
	}
	params := req.Params.merge(tenant.Params{MinConfidence: tenant.DefaultMinConfidence})
	info, err := s.pool.Register(tenant.Spec{
		ID:      req.ID,
		Name:    req.Name,
		Source:  src,
		Params:  params,
		Refresh: refreshIval,
	})
	if err != nil {
		writeTenantError(w, err)
		return
	}
	resp := registerResponse{datasetJSON: datasetToJSON(info)}
	if req.Mine {
		// The registered params (defaults already applied) drive the
		// initial mine, so the tenant serves exactly what the 201 body
		// reported — a zero Params here would re-default everything.
		job, err := s.pool.Enqueue(info.ID, info.Params)
		if err != nil {
			resp.JobError = err.Error()
		} else {
			resp.Job = job.ID
		}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// registerSource builds the tenant's Source from whichever upload
// form the body used, answering 400 itself on malformed input. Path
// registrations name server-side files, so they are only honored when
// the operator opted in with Config.TenantDataDir (403 otherwise) and
// never outside that directory — without the gate any HTTP client
// could register arbitrary server-readable files and leak their
// contents through the query routes.
func (s *Server) registerSource(w http.ResponseWriter, req *registerRequest) (tenant.Source, bool) {
	switch {
	case req.Transactions != nil:
		d, err := closedrules.NewDataset(req.Transactions)
		if err != nil {
			writeError(w, http.StatusBadRequest, "transactions: "+err.Error())
			return nil, false
		}
		return tenant.NewInlineSource(d), true
	case req.Dat != "":
		d, err := closedrules.ReadDat(strings.NewReader(req.Dat))
		if err != nil {
			writeError(w, http.StatusBadRequest, "dat: "+err.Error())
			return nil, false
		}
		return tenant.NewInlineSource(d), true
	default:
		if s.cfg.TenantDataDir == "" {
			writeError(w, http.StatusForbidden,
				"path: server-side path registrations are disabled; start the server with a tenant data directory (arserve -tenant-data-dir)")
			return nil, false
		}
		path, err := resolveUnder(s.cfg.TenantDataDir, req.Path)
		if err != nil {
			writeError(w, http.StatusBadRequest, "path: "+err.Error())
			return nil, false
		}
		if fi, err := os.Stat(path); err != nil {
			writeError(w, http.StatusBadRequest, "path: "+err.Error())
			return nil, false
		} else if fi.IsDir() {
			writeError(w, http.StatusBadRequest, "path: is a directory")
			return nil, false
		}
		if req.Table {
			sep := req.Sep
			if sep == "" {
				sep = ","
			}
			runes := []rune(sep)
			if len(runes) != 1 {
				writeError(w, http.StatusBadRequest, "sep: want a single character")
				return nil, false
			}
			return refresh.NewTableFileSource(path, runes[0], req.Header), true
		}
		return refresh.NewFileSource(path), true
	}
}

// resolveUnder maps a client-supplied path into dir: relative paths
// are joined onto it, absolute ones must already point inside it, and
// the result — after symlink resolution, so a link cannot tunnel out —
// must not escape. dir is absolute (Config.validate made it so).
func resolveUnder(dir, raw string) (string, error) {
	joined := raw
	if !filepath.IsAbs(raw) {
		joined = filepath.Join(dir, raw)
	}
	if !within(dir, joined) {
		return "", errors.New("escapes the tenant data directory")
	}
	// EvalSymlinks also fails on a missing file, which double-checks
	// existence before the containment re-check.
	resolved, err := filepath.EvalSymlinks(joined)
	if err != nil {
		return "", err
	}
	resolvedDir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		return "", err
	}
	if !within(resolvedDir, resolved) {
		return "", errors.New("escapes the tenant data directory")
	}
	return resolved, nil
}

// within reports whether path (cleaned) sits at or below dir.
func within(dir, path string) bool {
	rel, err := filepath.Rel(dir, filepath.Clean(path))
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// listJSON is the GET /datasets body.
type listJSON struct {
	Count    int           `json:"count"`
	Datasets []datasetJSON `json:"datasets"`
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	infos := s.pool.List()
	out := listJSON{Count: len(infos), Datasets: make([]datasetJSON, len(infos))}
	for i, info := range infos {
		out.Datasets[i] = datasetToJSON(info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	info, err := s.pool.Get(r.PathValue("dataset"))
	if err != nil {
		writeTenantError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, datasetToJSON(info))
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("dataset")
	if err := s.pool.Delete(id); err != nil {
		writeTenantError(w, err)
		return
	}
	// The tenant's labeled series go with it, so a churned pool does
	// not grow the exposition without bound.
	s.tmetrics.drop(id)
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		ID     string `json:"id"`
	}{Status: "deleted", ID: id})
}

// mineRequest is the optional POST /datasets/{id}/mine body: any
// field sent overrides the tenant's current parameters for this job
// (and, on success, becomes the tenant's new parameter set).
type mineRequest struct {
	Params paramsJSON `json:"params"`
}

// jobJSON is the wire form of one mine job.
type jobJSON struct {
	Job        string     `json:"job"`
	Tenant     string     `json:"tenant"`
	State      string     `json:"state"`
	Error      string     `json:"error,omitempty"`
	Params     paramsJSON `json:"params"`
	EnqueuedAt string     `json:"enqueuedAt"`
	StartedAt  string     `json:"startedAt,omitempty"`
	FinishedAt string     `json:"finishedAt,omitempty"`
	MineMillis int64      `json:"mineMillis,omitempty"`
}

func jobToJSON(j tenant.JobInfo) jobJSON {
	out := jobJSON{
		Job:        j.ID,
		Tenant:     j.Tenant,
		State:      string(j.State),
		Error:      j.Error,
		Params:     paramsToJSON(j.Params),
		EnqueuedAt: j.EnqueuedAt.UTC().Format(time.RFC3339),
		MineMillis: j.MineMillis,
	}
	if !j.StartedAt.IsZero() {
		out.StartedAt = j.StartedAt.UTC().Format(time.RFC3339)
	}
	if !j.FinishedAt.IsZero() {
		out.FinishedAt = j.FinishedAt.UTC().Format(time.RFC3339)
	}
	return out
}

// handleMineDataset enqueues an async re-mine and answers 202 with
// the job ID immediately: a huge upload never holds the request open.
// Progress is polled at GET /jobs/{id}; on success the job's result
// is hot-swapped in as the tenant's served snapshot.
func (s *Server) handleMineDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("dataset")
	var req mineRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	info, err := s.pool.Get(id)
	if err != nil {
		writeTenantError(w, err)
		return
	}
	job, err := s.pool.Enqueue(id, req.Params.merge(info.Params))
	if err != nil {
		writeTenantError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobToJSON(job))
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.pool.Job(r.PathValue("job"))
	if err != nil {
		writeTenantError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobToJSON(job))
}

// tenantMetrics is the tenant-labeled request accounting. Unlike the
// fixed endpoint registry, the tenant set changes at runtime, so the
// map is mutex-guarded; the lock is uncontended in practice (one
// short critical section per request).
type tenantMetrics struct {
	mu       sync.Mutex
	byTenant map[string]map[string]*tenantCounters
}

type tenantCounters struct {
	requests uint64
	errors   uint64
}

func newTenantMetrics() *tenantMetrics {
	return &tenantMetrics{byTenant: make(map[string]map[string]*tenantCounters)}
}

func (m *tenantMetrics) observe(id, endpoint string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byEndpoint := m.byTenant[id]
	if byEndpoint == nil {
		byEndpoint = make(map[string]*tenantCounters)
		m.byTenant[id] = byEndpoint
	}
	c := byEndpoint[endpoint]
	if c == nil {
		c = &tenantCounters{}
		byEndpoint[endpoint] = c
	}
	c.requests++
	if code >= 400 {
		c.errors++
	}
}

func (m *tenantMetrics) drop(id string) {
	m.mu.Lock()
	delete(m.byTenant, id)
	m.mu.Unlock()
}

// snapshot returns the labeled counters in deterministic order.
func (m *tenantMetrics) snapshot() []tenantSeries {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []tenantSeries
	for id, byEndpoint := range m.byTenant {
		for endpoint, c := range byEndpoint {
			out = append(out, tenantSeries{tenant: id, endpoint: endpoint, requests: c.requests, errors: c.errors})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].tenant != out[j].tenant {
			return out[i].tenant < out[j].tenant
		}
		return out[i].endpoint < out[j].endpoint
	})
	return out
}

type tenantSeries struct {
	tenant, endpoint string
	requests, errors uint64
}

// writeTenantMetrics renders the tenant pool gauges and the
// tenant-labeled request families. Only called in multi-tenant mode.
func writeTenantMetrics(w io.Writer, st tenant.Stats, tm *tenantMetrics) {
	fmt.Fprintf(w, "# HELP closedrules_tenants_registered Datasets currently registered in the tenant pool.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenants_registered gauge\n")
	fmt.Fprintf(w, "closedrules_tenants_registered %d\n", st.Registered)
	fmt.Fprintf(w, "# HELP closedrules_tenants_resident Tenants whose mined representation is currently in memory.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenants_resident gauge\n")
	fmt.Fprintf(w, "closedrules_tenants_resident %d\n", st.Resident)
	fmt.Fprintf(w, "# HELP closedrules_tenant_pool_bytes Estimated resident bytes across all materialized tenants.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_pool_bytes gauge\n")
	fmt.Fprintf(w, "closedrules_tenant_pool_bytes %d\n", st.Bytes)
	fmt.Fprintf(w, "# HELP closedrules_tenant_pool_budget_bytes Configured tenant memory budget.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_pool_budget_bytes gauge\n")
	fmt.Fprintf(w, "closedrules_tenant_pool_budget_bytes %d\n", st.BudgetBytes)
	fmt.Fprintf(w, "# HELP closedrules_tenant_evictions_total Tenant services evicted to fit the memory budget.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_evictions_total counter\n")
	fmt.Fprintf(w, "closedrules_tenant_evictions_total %d\n", st.Evictions)
	fmt.Fprintf(w, "# HELP closedrules_tenant_mines_total Materializations and completed mine jobs across all tenants.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_mines_total counter\n")
	fmt.Fprintf(w, "closedrules_tenant_mines_total %d\n", st.Mines)
	fmt.Fprintf(w, "# HELP closedrules_tenant_jobs_queued Mine jobs waiting for a worker.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_jobs_queued gauge\n")
	fmt.Fprintf(w, "closedrules_tenant_jobs_queued %d\n", st.Jobs.Queued)
	fmt.Fprintf(w, "# HELP closedrules_tenant_jobs_running Mine jobs currently executing.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_jobs_running gauge\n")
	fmt.Fprintf(w, "closedrules_tenant_jobs_running %d\n", st.Jobs.Running)
	fmt.Fprintf(w, "# HELP closedrules_tenant_jobs_done_total Mine jobs completed successfully.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_jobs_done_total counter\n")
	fmt.Fprintf(w, "closedrules_tenant_jobs_done_total %d\n", st.Jobs.Done)
	fmt.Fprintf(w, "# HELP closedrules_tenant_jobs_failed_total Mine jobs that errored.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_jobs_failed_total counter\n")
	fmt.Fprintf(w, "closedrules_tenant_jobs_failed_total %d\n", st.Jobs.Failed)
	series := tm.snapshot()
	fmt.Fprintf(w, "# HELP closedrules_tenant_http_requests_total Tenant-route requests served, by tenant and endpoint.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_http_requests_total counter\n")
	for _, sr := range series {
		fmt.Fprintf(w, "closedrules_tenant_http_requests_total{tenant=%q,endpoint=%q} %d\n", sr.tenant, sr.endpoint, sr.requests)
	}
	fmt.Fprintf(w, "# HELP closedrules_tenant_http_request_errors_total Tenant-route requests answered 4xx/5xx, by tenant and endpoint.\n")
	fmt.Fprintf(w, "# TYPE closedrules_tenant_http_request_errors_total counter\n")
	for _, sr := range series {
		fmt.Fprintf(w, "closedrules_tenant_http_request_errors_total{tenant=%q,endpoint=%q} %d\n", sr.tenant, sr.endpoint, sr.errors)
	}
}
