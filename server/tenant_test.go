package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"closedrules"
	"closedrules/internal/tenant"
)

// betaTx is a second, deliberately different context: {0,1} co-occur
// in 3 of 4 objects, item 2 rides along once.
var betaTx = [][]int{{0, 1}, {0, 1, 2}, {0, 1}, {3}}

// newTenantServer builds a multi-tenant test server whose pinned
// default tenant serves the classic context.
func newTenantServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.MultiTenant = true
	return newTestServer(t, cfg)
}

// registerTenant uploads tx inline and returns the assigned ID.
func registerTenant(t *testing.T, baseURL, id string, tx [][]int, params map[string]any) string {
	t.Helper()
	body := map[string]any{"transactions": tx}
	if id != "" {
		body["id"] = id
	}
	if params != nil {
		body["params"] = params
	}
	var out struct {
		ID string `json:"id"`
	}
	postJSON(t, baseURL+"/datasets", body, http.StatusCreated, &out)
	if out.ID == "" {
		t.Fatal("register returned no id")
	}
	return out.ID
}

// libraryService mines tx directly with the library — the oracle the
// HTTP answers are compared against.
func libraryService(t *testing.T, tx [][]int, minsup, minconf float64) *closedrules.QueryService {
	t.Helper()
	d, err := closedrules.NewDataset(tx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := closedrules.MineContext(context.Background(), d, closedrules.WithMinSupport(minsup))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := closedrules.NewQueryService(res, minconf)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func doDelete(t *testing.T, url string, wantCode int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("DELETE %s = %d, want %d", url, resp.StatusCode, wantCode)
	}
}

// TestTenantIsolation pins the core acceptance criterion: two tenants
// with different datasets and thresholds answer from their own
// snapshots, each matching a direct library computation.
func TestTenantIsolation(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	alpha := registerTenant(t, ts.URL, "alpha", classicTx,
		map[string]any{"minSupport": 0.4, "minConfidence": 0.5})
	beta := registerTenant(t, ts.URL, "beta", betaTx,
		map[string]any{"minSupport": 0.5, "minConfidence": 0.7})

	oracles := map[string]*closedrules.QueryService{
		alpha: libraryService(t, classicTx, 0.4, 0.5),
		beta:  libraryService(t, betaTx, 0.5, 0.7),
	}

	// Same itemset, different datasets: the counts must disagree and
	// each must match its oracle.
	for id, oracle := range oracles {
		var out supportJSON
		getJSON(t, ts.URL+"/datasets/"+id+"/support?items=0,1", http.StatusOK, &out)
		want, _, err := oracle.Support(context.Background(), closedrules.Items(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if out.Support != want {
			t.Errorf("tenant %s: supp({0,1}) = %d, want %d", id, out.Support, want)
		}
	}

	// Full basis listings at each tenant's own confidence threshold.
	for id, oracle := range oracles {
		for _, basis := range []string{"duquenne-guigues", "luxenburger"} {
			var out basisRulesJSON
			getJSON(t, ts.URL+"/datasets/"+id+"/rules?basis="+basis, http.StatusOK, &out)
			rs, err := oracle.BasisRules(context.Background(), basis, oracle.MinConfidence())
			if err != nil {
				t.Fatal(err)
			}
			if out.Count != rs.Len() {
				t.Errorf("tenant %s: %s basis has %d rules over HTTP, %d in the library",
					id, basis, out.Count, rs.Len())
			}
		}
	}

	// Recommendations come from the tenant's own rules.
	for id, oracle := range oracles {
		var out recommendJSON
		postJSON(t, ts.URL+"/datasets/"+id+"/recommend",
			map[string]any{"observed": []int{0}, "k": 5}, http.StatusOK, &out)
		want, err := oracle.Recommend(context.Background(), closedrules.Items(0), 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Rules) != len(want) {
			t.Fatalf("tenant %s: recommend returned %d rules, want %d", id, len(out.Rules), len(want))
		}
		for i := range want {
			if out.Rules[i].Support != want[i].Support ||
				out.Rules[i].Confidence != want[i].Confidence() {
				t.Errorf("tenant %s: recommendation %d = %+v, want %+v", id, i, out.Rules[i], want[i])
			}
		}
	}

	// The legacy routes and /datasets/default/... are the same tenant.
	var legacy, def supportJSON
	getJSON(t, ts.URL+"/support?items=1,4", http.StatusOK, &legacy)
	getJSON(t, ts.URL+"/datasets/"+DefaultTenantID+"/support?items=1,4", http.StatusOK, &def)
	if legacy.Support != def.Support || legacy.Frequent != def.Frequent {
		t.Errorf("legacy %+v != default tenant %+v", legacy, def)
	}
}

// rawRequest sends one request and returns its status and body as sent.
func rawRequest(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestLegacyMatchesDefaultTenant pins that in multi-tenant mode every
// query verb answers byte-for-byte the same on /X and on
// /datasets/default/X — successes, a 400 and a 422 alike — and that
// both route families count under one endpoint series while only the
// /datasets/default calls carry the tenant label.
func TestLegacyMatchesDefaultTenant(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/support?items=1,4", "", http.StatusOK}, // BE is closed
		{"GET", "/support?items=0", "", http.StatusOK},   // A closes to AC
		{"GET", "/support?items=a", "", http.StatusBadRequest},
		{"GET", "/confidence?antecedent=2&consequent=0", "", http.StatusOK},
		{"GET", "/confidence?antecedent=3&consequent=0", "", http.StatusUnprocessableEntity},
		{"GET", "/rules?antecedent=2&consequent=0", "", http.StatusOK},
		{"GET", "/rules?basis=duquenne-guigues", "", http.StatusOK},
		{"GET", "/rules?basis=luxenburger&minconf=0.7", "", http.StatusOK},
		{"POST", "/recommend", `{"observed":[1],"k":3}`, http.StatusOK},
		{"GET", "/bases", "", http.StatusOK},
	}
	for _, tc := range cases {
		legacyCode, legacyBody := rawRequest(t, tc.method, ts.URL+tc.path, tc.body)
		tenantCode, tenantBody := rawRequest(t, tc.method, ts.URL+"/datasets/"+DefaultTenantID+tc.path, tc.body)
		if legacyCode != tc.want {
			t.Errorf("%s %s = %d, want %d; body: %s", tc.method, tc.path, legacyCode, tc.want, legacyBody)
		}
		if tenantCode != legacyCode || tenantBody != legacyBody {
			t.Errorf("%s %s: legacy %d %q, default tenant %d %q",
				tc.method, tc.path, legacyCode, legacyBody, tenantCode, tenantBody)
		}
	}

	_, metrics := rawRequest(t, "GET", ts.URL+"/metrics", "")
	for endpoint, n := range map[string]int{"support": 3, "confidence": 2, "rules": 3, "recommend": 1, "bases": 1} {
		for _, want := range []string{
			fmt.Sprintf("closedrules_http_requests_total{endpoint=%q} %d\n", endpoint, 2*n),
			fmt.Sprintf("closedrules_tenant_http_requests_total{tenant=%q,endpoint=%q} %d\n", DefaultTenantID, endpoint, n),
		} {
			if !strings.Contains(metrics, want) {
				t.Errorf("metrics missing %q", strings.TrimSpace(want))
			}
		}
	}
	if got := strings.Count(metrics, "closedrules_tenant_http_requests_total{"); got != 5 {
		t.Errorf("%d tenant-labelled request series, want 5 (default tenant only)", got)
	}
}

func TestTenantRegistryCRUD(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	id := registerTenant(t, ts.URL, "crud", classicTx, nil)

	var got datasetJSON
	getJSON(t, ts.URL+"/datasets/"+id, http.StatusOK, &got)
	if got.ID != id || got.Resident {
		t.Errorf("fresh dataset = %+v, want unmaterialized %q", got, id)
	}
	if got.Params.MinConfidence == nil || *got.Params.MinConfidence != tenant.DefaultMinConfidence {
		t.Errorf("default confidence not applied: %+v", got.Params)
	}

	var list listJSON
	getJSON(t, ts.URL+"/datasets", http.StatusOK, &list)
	if list.Count != 2 { // default + crud
		t.Errorf("list count = %d, want 2", list.Count)
	}

	// Duplicate ID conflicts; the pinned default cannot be deleted.
	postJSON(t, ts.URL+"/datasets", map[string]any{"id": id, "transactions": classicTx}, http.StatusConflict, nil)
	doDelete(t, ts.URL+"/datasets/"+DefaultTenantID, http.StatusForbidden)

	doDelete(t, ts.URL+"/datasets/"+id, http.StatusOK)
	getJSON(t, ts.URL+"/datasets/"+id, http.StatusNotFound, nil)
	doDelete(t, ts.URL+"/datasets/"+id, http.StatusNotFound)
	getJSON(t, ts.URL+"/datasets/"+id+"/support?items=0", http.StatusNotFound, nil)
}

func TestTenantRegisterRejections(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"no source", map[string]any{"id": "x"}, http.StatusBadRequest},
		{"two sources", map[string]any{"transactions": classicTx, "dat": "0 1"}, http.StatusBadRequest},
		{"transactions wrong type", map[string]any{"transactions": "nope"}, http.StatusBadRequest},
		{"negative item", map[string]any{"transactions": [][]int{{-1}}}, http.StatusBadRequest},
		{"bad id", map[string]any{"id": "../etc", "transactions": classicTx}, http.StatusBadRequest},
		{"bad refresh", map[string]any{"transactions": classicTx, "refresh": "nope"}, http.StatusBadRequest},
		{"refresh without path", map[string]any{"transactions": classicTx, "refresh": "30s"}, http.StatusBadRequest},
		{"path without data dir", map[string]any{"path": "/no/such/file.dat"}, http.StatusForbidden},
		{"support out of range", map[string]any{"transactions": classicTx,
			"params": map[string]any{"minSupport": 1.5}}, http.StatusUnprocessableEntity},
		{"unknown algorithm", map[string]any{"transactions": classicTx,
			"params": map[string]any{"algorithm": "no-such-miner"}}, http.StatusUnprocessableEntity},
		{"retired parallel twin", map[string]any{"transactions": classicTx,
			"params": map[string]any{"algorithm": "pcharm"}}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			postJSON(t, ts.URL+"/datasets", tc.body, tc.want, nil)
		})
	}
}

// TestTenantRegisterAlgorithmSpellings: POST /datasets accepts every
// miner spelling the library's WithAlgorithm accepts, and the tenant
// then serves.
func TestTenantRegisterAlgorithmSpellings(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	for i, algo := range []string{"a-close", "CHARM", "GenClose"} {
		id := registerTenant(t, ts.URL, fmt.Sprintf("spell%d", i), classicTx, map[string]any{"algorithm": algo})
		getJSON(t, ts.URL+"/datasets/"+id+"/support?items=1,4", http.StatusOK, nil)
	}
}

// TestTenantPathRegistration pins the -tenant-data-dir gate: with a
// data directory configured, only files inside it are registrable —
// relative paths resolve under it, absolute paths must already point
// into it, and neither ".." nor a symlink can tunnel out.
func TestTenantPathRegistration(t *testing.T) {
	dir := t.TempDir()
	datBody := []byte("0 2 3\n1 2 4\n0 1 2 4\n1 4\n0 1 2 4\n")
	if err := os.WriteFile(filepath.Join(dir, "ok.dat"), datBody, 0o644); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(t.TempDir(), "outside.dat")
	if err := os.WriteFile(outside, datBody, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(outside, filepath.Join(dir, "link.dat")); err != nil {
		t.Fatal(err)
	}
	_, ts := newTenantServer(t, Config{TenantDataDir: dir})
	cases := []struct {
		name, path string
		want       int
	}{
		{"relative inside", "ok.dat", http.StatusCreated},
		{"absolute inside", filepath.Join(dir, "ok.dat"), http.StatusCreated},
		{"dotdot escape", "../outside.dat", http.StatusBadRequest},
		{"absolute outside", outside, http.StatusBadRequest},
		{"symlink escape", "link.dat", http.StatusBadRequest},
		{"missing file", "nope.dat", http.StatusBadRequest},
		{"directory", ".", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			postJSON(t, ts.URL+"/datasets", map[string]any{"path": tc.path}, tc.want, nil)
		})
	}
}

// waitJobDone polls GET /jobs/{id} until the job lands, failing the
// test on job failure or timeout, and returns the terminal record.
func waitJobDone(t *testing.T, baseURL, jobID string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var got jobJSON
		getJSON(t, baseURL+"/jobs/"+jobID, http.StatusOK, &got)
		switch got.State {
		case string(tenant.JobDone):
			return got
		case string(tenant.JobFailed):
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRegisterWithInitialMine pins the initial-mine params fix:
// "mine": true must enqueue the job with the registered parameters —
// a zero Params would silently re-default the thresholds the 201
// response just reported.
func TestRegisterWithInitialMine(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	var out struct {
		ID  string `json:"id"`
		Job string `json:"job"`
	}
	postJSON(t, ts.URL+"/datasets", map[string]any{
		"id":           "eager",
		"transactions": classicTx,
		"mine":         true,
		"params":       map[string]any{"minSupport": 0.4, "minConfidence": 0.7},
	}, http.StatusCreated, &out)
	if out.Job == "" {
		t.Fatal("mine:true returned no job id")
	}
	job := waitJobDone(t, ts.URL, out.Job)
	if job.Params.MinSupport != 0.4 || job.Params.MinConfidence == nil || *job.Params.MinConfidence != 0.7 {
		t.Errorf("initial job params = %+v, want the registered 0.4/0.7", job.Params)
	}
	var ds datasetJSON
	getJSON(t, ts.URL+"/datasets/eager", http.StatusOK, &ds)
	if !ds.Resident || ds.Params.MinSupport != 0.4 || *ds.Params.MinConfidence != 0.7 {
		t.Errorf("dataset after initial mine = %+v, want resident at 0.4/0.7", ds)
	}
	// At minsup 0.4 the one-object itemset {0,2,3} is infrequent; had
	// the job re-defaulted to 0.1 it would be served as frequent.
	var sup supportJSON
	getJSON(t, ts.URL+"/datasets/eager/support?items=0,2,3", http.StatusOK, &sup)
	if sup.Frequent {
		t.Errorf("supp({0,2,3}) = %+v: served snapshot ignored the registered threshold", sup)
	}
}

// TestTenantMetricsUnknownIDNotMinted: IDs absent from the registry
// never mint tenant-labeled series, whatever the response status —
// admission-control 429s in particular are written before tenant
// resolution, so status-based filtering alone would let a scanner
// grow the exposition without bound during overload.
func TestTenantMetricsUnknownIDNotMinted(t *testing.T) {
	s, _ := newTenantServer(t, Config{})
	shed := s.instrument("support", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusTooManyRequests, "shed")
	})
	probe := func(id string) {
		req := httptest.NewRequest(http.MethodGet, "/datasets/"+id+"/support", nil)
		req.SetPathValue("id", id)
		shed(httptest.NewRecorder(), req)
	}
	probe("ghost")
	if got := s.tmetrics.snapshot(); len(got) != 0 {
		t.Errorf("unknown tenant minted series: %+v", got)
	}
	// A registered tenant's 429 is still labeled: the series set is
	// bounded by the registry, not by what scanners probe.
	probe(DefaultTenantID)
	got := s.tmetrics.snapshot()
	if len(got) != 1 || got[0].tenant != DefaultTenantID || got[0].errors != 1 {
		t.Errorf("registered tenant series = %+v, want one default-tenant error", got)
	}
}

// TestTenantMineJob pins the async-job acceptance criterion: the mine
// request returns 202 immediately and the job completes via
// GET /jobs/{id}, after which the tenant serves the new parameters.
func TestTenantMineJob(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	id := registerTenant(t, ts.URL, "jobs", classicTx,
		map[string]any{"minSupport": 0.4, "minConfidence": 0.5})

	var job jobJSON
	resp, err := http.Post(ts.URL+"/datasets/"+id+"/mine", "application/json",
		strings.NewReader(`{"params":{"minSupport":0.2,"minConfidence":0.3}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mine = %d, want 202", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.Job == "" || job.Tenant != id {
		t.Fatalf("202 body = %+v", job)
	}

	if done := waitJobDone(t, ts.URL, job.Job); done.FinishedAt == "" {
		t.Errorf("done job missing finishedAt: %+v", done)
	}

	// The new thresholds are now the served configuration: at minsup
	// 0.2 the itemset {0,2,3} (a single object) becomes frequent.
	var sup supportJSON
	getJSON(t, ts.URL+"/datasets/"+id+"/support?items=0,2,3", http.StatusOK, &sup)
	if !sup.Frequent || sup.Support != 1 {
		t.Errorf("after re-mine at 0.2: supp({0,2,3}) = %+v, want frequent/1", sup)
	}
	var ds datasetJSON
	getJSON(t, ts.URL+"/datasets/"+id, http.StatusOK, &ds)
	if ds.Params.MinSupport != 0.2 {
		t.Errorf("params after job = %+v, want minSupport 0.2", ds.Params)
	}

	getJSON(t, ts.URL+"/jobs/j-doesnotexist", http.StatusNotFound, nil)
	postJSON(t, ts.URL+"/datasets/nope/mine", map[string]any{}, http.StatusNotFound, nil)
}

// TestTenantEvictionTransparent pins the tight-budget acceptance
// criterion: with a budget that holds only one tenant, alternating
// queries evict and transparently re-materialize — correct answers,
// no 5xx, and exactly one re-mine for the evicted tenant.
func TestTenantEvictionTransparent(t *testing.T) {
	_, ts := newTenantServer(t, Config{TenantMemoryBudget: 1})
	a := registerTenant(t, ts.URL, "evict-a", classicTx,
		map[string]any{"minSupport": 0.4, "minConfidence": 0.5})
	b := registerTenant(t, ts.URL, "evict-b", betaTx,
		map[string]any{"minSupport": 0.5, "minConfidence": 0.5})

	querySupport := func(id string, want int, items string) {
		t.Helper()
		var out supportJSON
		getJSON(t, ts.URL+"/datasets/"+id+"/support?items="+items, http.StatusOK, &out)
		if out.Support != want {
			t.Errorf("tenant %s: supp({%s}) = %d, want %d", id, items, out.Support, want)
		}
	}
	querySupport(a, 4, "1,4") // materializes a
	querySupport(b, 3, "0,1") // evicts a, materializes b
	querySupport(a, 4, "1,4") // re-mines a exactly once, evicts b

	var ds datasetJSON
	getJSON(t, ts.URL+"/datasets/"+a, http.StatusOK, &ds)
	if ds.Mines != 2 {
		t.Errorf("tenant a mines = %d, want 2 (initial + one re-mine)", ds.Mines)
	}
	var health healthJSON
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Tenants == nil {
		t.Fatal("healthz has no tenants block in multi-tenant mode")
	}
	if health.Tenants.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", health.Tenants.Evictions)
	}
	if health.Tenants.Registered != 3 || health.Tenants.Resident != 2 {
		// default (pinned, resident) + the just-mined tenant resident.
		t.Errorf("tenants block = %+v, want registered 3, resident 2", health.Tenants)
	}
}

func TestTenantMetricsExposition(t *testing.T) {
	_, ts := newTenantServer(t, Config{})
	id := registerTenant(t, ts.URL, "metrics", classicTx, nil)
	getJSON(t, ts.URL+"/datasets/"+id+"/support?items=2", http.StatusOK, nil)

	fetch := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	body := fetch()
	for _, want := range []string{
		"closedrules_tenants_registered 2",
		"closedrules_tenants_resident",
		"closedrules_tenant_pool_bytes",
		"closedrules_tenant_evictions_total 0",
		fmt.Sprintf("closedrules_tenant_http_requests_total{tenant=%q,endpoint=\"support\"} 1", id),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Deleting the tenant drops its labeled series.
	doDelete(t, ts.URL+"/datasets/"+id, http.StatusOK)
	if body = fetch(); strings.Contains(body, "tenant=\""+id+"\"") {
		t.Errorf("metrics still carry deleted tenant %s", id)
	}
}

// TestConfigValidate is the table test for the consolidated Config
// validation: every tenant knob rejects negatives explicitly, and
// defaults land where zero was passed.
func TestConfigValidate(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
	}{
		{"negative shutdown grace", Config{ShutdownGrace: -time.Second}},
		{"negative max recommend", Config{MaxRecommend: -1}},
		{"negative max inflight", Config{MaxInFlight: -1}},
		{"negative max tenants", Config{MaxTenants: -1}},
		{"negative tenant budget", Config{TenantMemoryBudget: -1}},
		{"negative mine workers", Config{MineWorkers: -1}},
		{"negative mine timeout", Config{MineTimeout: -time.Second}},
		// Tenant knobs are validated even with MultiTenant off, so a
		// typo does not surface only when the mode is later enabled.
		{"negative budget single-tenant", Config{MultiTenant: false, TenantMemoryBudget: -5}},
		{"tenant data dir missing", Config{TenantDataDir: "/no/such/closedrules-data-dir"}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if err := cfg.validate(); err == nil {
				t.Errorf("validate(%+v) = nil, want error", tc.cfg)
			}
		})
	}

	var cfg Config
	if err := cfg.validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if cfg.RequestTimeout != DefaultRequestTimeout ||
		cfg.ShutdownGrace != DefaultShutdownGrace ||
		cfg.MaxRecommend != DefaultMaxRecommend ||
		cfg.MaxTenants != DefaultMaxTenants ||
		cfg.TenantMemoryBudget != DefaultTenantMemoryBudget ||
		cfg.MineWorkers != DefaultMineWorkers {
		t.Errorf("defaults not applied: %+v", cfg)
	}

	// TenantDataDir must name an existing directory; a regular file is
	// rejected and a relative path is stored absolute.
	dir := t.TempDir()
	file := filepath.Join(dir, "f")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	fileCfg := Config{TenantDataDir: file}
	if err := fileCfg.validate(); err == nil {
		t.Error("TenantDataDir pointing at a file accepted")
	}
	dirCfg := Config{TenantDataDir: dir}
	if err := dirCfg.validate(); err != nil {
		t.Fatalf("TenantDataDir %s rejected: %v", dir, err)
	}
	if !filepath.IsAbs(dirCfg.TenantDataDir) {
		t.Errorf("TenantDataDir not stored absolute: %s", dirCfg.TenantDataDir)
	}
}

// TestSingleTenantNoRegistry: without MultiTenant the registry routes
// and the healthz tenants block simply do not exist.
func TestSingleTenantNoRegistry(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	getJSON(t, ts.URL+"/datasets", http.StatusNotFound, nil)
	var health healthJSON
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Tenants != nil {
		t.Errorf("single-tenant healthz has a tenants block: %+v", health.Tenants)
	}
}
