package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"closedrules"
	"closedrules/refresh"
)

// classicTx is the running example of the Close paper: five objects
// over items A=0, B=1, C=2, D=3, E=4.
var classicTx = [][]int{
	{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
}

func mineClassic(t *testing.T, repeat int) *closedrules.Result {
	t.Helper()
	var tx [][]int
	for i := 0; i < repeat; i++ {
		tx = append(tx, classicTx...)
	}
	d, err := closedrules.NewDataset(tx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := closedrules.MineContext(context.Background(), d, closedrules.WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	qs, err := closedrules.NewQueryService(mineClassic(t, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(qs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantCode int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d; body: %s", url, resp.StatusCode, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
	}
}

func postJSON(t *testing.T, url string, reqBody any, wantCode int, out any) {
	t.Helper()
	buf, err := json.Marshal(reqBody)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s = %d, want %d; body: %s", url, resp.StatusCode, wantCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, body, err)
		}
	}
}

func TestSupportEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out supportJSON
	getJSON(t, ts.URL+"/support?items=1,4", http.StatusOK, &out)
	if out.Support != 4 || !out.Frequent {
		t.Errorf("support(BE) = %+v, want 4/frequent", out)
	}
	// D = item 3 is infrequent at the mining threshold.
	getJSON(t, ts.URL+"/support?items=3", http.StatusOK, &out)
	if out.Frequent {
		t.Errorf("support(D) = %+v, want infrequent", out)
	}
}

func TestConfidenceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out confidenceJSON
	getJSON(t, ts.URL+"/confidence?antecedent=2&consequent=0", http.StatusOK, &out)
	if out.Confidence != 0.75 {
		t.Errorf("conf(C→A) = %v, want 0.75", out.Confidence)
	}
}

func TestRulesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out ruleJSON
	getJSON(t, ts.URL+"/rules?antecedent=2&consequent=0", http.StatusOK, &out)
	if out.Support != 3 || out.AntecedentSupport != 4 || out.ConsequentSupport != 3 {
		t.Errorf("rule(C→A) = %+v", out)
	}
	if out.Confidence != 0.75 || out.Lift == 0 {
		t.Errorf("rule(C→A) measures = %+v", out)
	}
}

func TestRecommendEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out recommendJSON
	postJSON(t, ts.URL+"/recommend", recommendRequest{Observed: []int{1}, K: 3}, http.StatusOK, &out)
	if len(out.Rules) == 0 {
		t.Fatal("no recommendations for {B}")
	}
	for _, r := range out.Rules {
		for _, it := range r.Antecedent {
			if it != 1 {
				t.Errorf("rule %+v not applicable to {B}", r)
			}
		}
	}
	// k defaults to 10 and clamps to MaxRecommend.
	postJSON(t, ts.URL+"/recommend", recommendRequest{Observed: []int{1}}, http.StatusOK, &out)
	if out.K != 10 {
		t.Errorf("default k = %d, want 10", out.K)
	}
	postJSON(t, ts.URL+"/recommend", recommendRequest{Observed: []int{1}, K: 10_000}, http.StatusOK, &out)
	if out.K != DefaultMaxRecommend {
		t.Errorf("clamped k = %d, want %d", out.K, DefaultMaxRecommend)
	}
}

func TestBadParams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{
		"/support",                         // missing items
		"/support?items=",                  // empty
		"/support?items=a,b",               // non-integer
		"/support?items=-1",                // negative
		"/confidence?antecedent=1",         // missing consequent
		"/rules?antecedent=x&consequent=0", // malformed antecedent
	} {
		getJSON(t, ts.URL+url, http.StatusBadRequest, nil)
	}
	// Malformed and oversized-k recommend bodies.
	resp, err := http.Post(ts.URL+"/recommend", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d, want 400", resp.StatusCode)
	}
	postJSON(t, ts.URL+"/recommend", recommendRequest{Observed: []int{-2}, K: 1}, http.StatusBadRequest, nil)
	postJSON(t, ts.URL+"/recommend", recommendRequest{Observed: []int{1}, K: -1}, http.StatusBadRequest, nil)
}

func TestUnderivableQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Rules over the infrequent item D are not derivable: 422.
	getJSON(t, ts.URL+"/confidence?antecedent=3&consequent=0", http.StatusUnprocessableEntity, nil)
	// Overlapping sides are rejected the same way.
	getJSON(t, ts.URL+"/confidence?antecedent=1&consequent=1,4", http.StatusUnprocessableEntity, nil)
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/support?items=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /support = %d, want 405", resp.StatusCode)
	}
}

// TestTimeout503 proves an expired per-request deadline surfaces as
// 503: the 1ns budget is spent before the query starts.
func TestTimeout503(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	getJSON(t, ts.URL+"/support?items=2", http.StatusServiceUnavailable, nil)
}

// TestClientCancel499 proves a client disconnect (cancelled request
// context) is attributed as 499, not a server-side 5xx.
func TestClientCancel499(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodGet, "/support?items=2", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Errorf("cancelled request = %d, want %d", rec.Code, statusClientClosedRequest)
	}
}

func TestNegativeTimeoutDisablesDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: -1})
	var out supportJSON
	getJSON(t, ts.URL+"/support?items=2", http.StatusOK, &out)
	if out.Support != 4 {
		t.Errorf("support(C) = %+v", out)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var out healthJSON
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &out)
	if out.Status != "ok" || out.Transactions != 5 || out.BasisRules == 0 || out.MinConfidence != 0.5 {
		t.Errorf("healthz = %+v", out)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var sup supportJSON
	getJSON(t, ts.URL+"/support?items=2", http.StatusOK, &sup)
	var rec recommendJSON
	postJSON(t, ts.URL+"/recommend", recommendRequest{Observed: []int{1}, K: 2}, http.StatusOK, &rec)
	postJSON(t, ts.URL+"/recommend", recommendRequest{Observed: []int{1}, K: 2}, http.StatusOK, &rec)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`closedrules_http_requests_total{endpoint="support"} 1`,
		`closedrules_http_requests_total{endpoint="recommend"} 2`,
		`closedrules_cache_hits_total 1`,
		`closedrules_cache_misses_total 1`,
		`closedrules_swaps_total 0`,
		`closedrules_transactions 5`,
		"closedrules_http_request_seconds_total",
		"closedrules_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestReloadEndpoint(t *testing.T) {
	calls := 0
	_, ts := newRefreshedServer(t, refresh.SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		calls++ // serialized by the refresher's single-flight guard
		if calls > 1 {
			return nil, fmt.Errorf("source gone")
		}
		return closedrules.NewDataset(append(append([][]int{}, classicTx...), classicTx...))
	}))

	var out reloadJSON
	postJSON(t, ts.URL+"/admin/reload", struct{}{}, http.StatusOK, &out)
	if out.Status != "reloaded" || out.Transactions != 10 {
		t.Errorf("reload = %+v", out)
	}
	var h healthJSON
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Transactions != 10 || h.Swaps != 1 {
		t.Errorf("healthz after reload = %+v", h)
	}
	// A failing reload keeps the served snapshot and reports 500.
	postJSON(t, ts.URL+"/admin/reload", struct{}{}, http.StatusInternalServerError, nil)
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Transactions != 10 {
		t.Errorf("snapshot lost on failed reload: %+v", h)
	}
}

func TestReloadNotConfigured(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/admin/reload", struct{}{}, http.StatusNotImplemented, nil)
}

// TestShardedCacheConcurrent hammers Recommend through the HTTP layer
// with many distinct baskets from 8 goroutines — under -race this is
// the sharded-cache safety proof at the serving boundary.
func TestShardedCacheConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body, _ := json.Marshal(recommendRequest{Observed: []int{i % 5}, K: 1 + (g+i)%4})
				resp, err := http.Post(ts.URL+"/recommend", "application/json", bytes.NewReader(body))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("recommend = %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestSwapUnderLoad keeps querying while /admin/reload hot-swaps
// snapshots underneath — queries must never observe an inconsistent
// state or fail.
func TestSwapUnderLoad(t *testing.T) {
	repeat := 1
	r, ts := newRefreshedServer(t, refresh.SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		repeat++ // serialized by the refresher's single-flight guard
		var tx [][]int
		for i := 0; i < 1+repeat%2; i++ {
			tx = append(tx, classicTx...)
		}
		return closedrules.NewDataset(tx)
	}))

	const goroutines = 6
	var wg sync.WaitGroup
	errc := make(chan error, goroutines+1)
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 80; i++ {
				var out supportJSON
				resp, err := http.Get(ts.URL + "/support?items=2")
				if err != nil {
					errc <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("support = %d: %s", resp.StatusCode, body)
					return
				}
				if err := json.Unmarshal(body, &out); err != nil {
					errc <- err
					return
				}
				// supp(C) is 4 per copy of the classic context: any
				// served snapshot must report a multiple of 4.
				if !out.Frequent || out.Support%4 != 0 || out.Support == 0 {
					errc <- fmt.Errorf("inconsistent snapshot: %+v", out)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 20; i++ {
			resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				errc <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errc <- fmt.Errorf("reload = %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := r.Service().Stats().Swaps; got != 20 {
		t.Errorf("swaps = %d, want 20", got)
	}
}

// TestServeGracefulShutdown proves cancel → clean exit with in-flight
// requests drained.
func TestServeGracefulShutdown(t *testing.T) {
	qs, err := closedrules.NewQueryService(mineClassic(t, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(qs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	var out healthJSON
	getJSON(t, url+"/healthz", http.StatusOK, &out)

	cancel()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
}
