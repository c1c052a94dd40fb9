package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const classicDat = "0 2 3\n1 2 4\n0 1 2 4\n1 4\n0 1 2 4\n"

// writeClassic writes the classic 5-object context to a temp .dat file.
func writeClassic(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "classic.dat")
	if err := os.WriteFile(path, []byte(classicDat), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// testServer builds the arserve HTTP stack from CLI args and mounts it
// on an httptest server.
func testServer(t *testing.T, args ...string) (*httptest.Server, string) {
	t.Helper()
	path := writeClassic(t)
	srv, _, _, err := setup(context.Background(), append([]string{"-in", path, "-minsup", "0.4"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, path
}

func TestServeEndpoints(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status       string `json:"status"`
		Transactions int    `json:"transactions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Transactions != 5 {
		t.Errorf("healthz = %+v", h)
	}

	resp2, err := http.Get(ts.URL + "/support?items=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var s struct {
		Support int `json:"support"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Support != 4 {
		t.Errorf("support(C) = %+v", s)
	}
}

func TestReloadFromFile(t *testing.T) {
	ts, path := testServer(t)
	// Replace the file on disk with a doubled dataset, then hot-reload.
	if err := os.WriteFile(path, []byte(classicDat+classicDat), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Status       string `json:"status"`
		Transactions int    `json:"transactions"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "reloaded" || out.Transactions != 10 {
		t.Errorf("reload = %+v, want 10 transactions", out)
	}
}

func TestBasisFlags(t *testing.T) {
	ts, _ := testServer(t, "-exact-basis", "generic", "-approx-basis", "informative")
	resp, err := http.Get(ts.URL + "/bases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Registered []string `json:"registered"`
		Serving    struct {
			Exact       string `json:"exact"`
			Approximate string `json:"approximate"`
		} `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Serving.Exact != "generic" || out.Serving.Approximate != "informative" {
		t.Errorf("serving = %+v, want generic/informative", out.Serving)
	}
	if len(out.Registered) < 4 {
		t.Errorf("registered = %v, want at least the 4 built-ins", out.Registered)
	}
}

func TestBasisFlagUnknownName(t *testing.T) {
	path := writeClassic(t)
	if _, _, _, err := setup(context.Background(),
		[]string{"-in", path, "-minsup", "0.4", "-exact-basis", "bogus"}); err == nil {
		t.Error("unknown -exact-basis accepted")
	}
}

func TestTableInput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	data := "color,size\nred,big\nred,big\nblue,small\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, _, _, err := setup(context.Background(), []string{"-in", path, "-table", "-header", "-minsup", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Service().NumTransactions(); got != 3 {
		t.Errorf("NumTransactions = %d, want 3", got)
	}
}

func TestSetupErrors(t *testing.T) {
	ctx := context.Background()
	cases := [][]string{
		{},                               // missing -in
		{"-in", "/nonexistent/file.dat"}, // missing file
		{"-in", writeClassic(t), "-sep", "ab", "-table"},
		{"-in", writeClassic(t), "-minsup", "7"},
		{"-in", writeClassic(t), "-algo", "bogus"},
		{"-in", writeClassic(t), "-minconf", "2"},
	}
	for i, args := range cases {
		if _, _, _, err := setup(ctx, args); err == nil {
			t.Errorf("case %d (%v): no error", i, args)
		}
	}
}

func TestMineTimeout(t *testing.T) {
	_, _, _, err := setup(context.Background(),
		[]string{"-in", writeClassic(t), "-minsup", "0.4", "-mine-timeout", "1ns"})
	if err == nil {
		t.Error("expired mine deadline accepted")
	}
}

func TestRunGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var sb strings.Builder
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-in", writeClassic(t), "-minsup", "0.4", "-addr", "127.0.0.1:0"}, &sb)
	}()
	// Give the server a moment to come up, then trigger shutdown.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	if !strings.Contains(sb.String(), "serving on") {
		t.Errorf("startup log missing: %q", sb.String())
	}
}

func TestRunSetupError(t *testing.T) {
	err := run(context.Background(), []string{}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "missing -in") {
		t.Errorf("run with no args = %v", err)
	}
}

// TestRefreshFlagPicksUpAppendedTransactions is the live-reload
// acceptance path: with -refresh the served snapshot follows the
// input file. A transaction appended to the file shows up in the
// served measures without a restart, and not a single request fails
// while the swap lands.
func TestRefreshFlagPicksUpAppendedTransactions(t *testing.T) {
	path := writeClassic(t)
	srv, ref, _, err := setup(context.Background(),
		[]string{"-in", path, "-minsup", "0.4", "-refresh", "3ms"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Start(); err != nil {
		t.Fatal(err)
	}
	defer ref.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Hammer the query endpoints for the whole life of the test; every
	// response must be 200 — the swap is invisible to clients.
	stop := make(chan struct{})
	errc := make(chan error, 32)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/support?items=2")
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("support = %d during refresh", resp.StatusCode)
					return
				}
				resp, err = http.Post(ts.URL+"/recommend", "application/json",
					strings.NewReader(`{"observed":[1],"k":3}`))
				if err != nil {
					errc <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("recommend = %d during refresh", resp.StatusCode)
					return
				}
			}
		}()
	}

	// Append one transaction; supp(C)=supp({2}) must go 4 → 5 without
	// any restart or reload call.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0 1 2 4\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("appended transaction never served; refresher stats: %+v", ref.Stats())
		}
		resp, err := http.Get(ts.URL + "/support?items=2")
		if err != nil {
			t.Fatal(err)
		}
		var s struct {
			Support int `json:"support"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if s.Support == 5 {
			break
		}
		time.Sleep(3 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("request failed during live refresh: %v", err)
	}
	if st := ref.Stats(); st.Failures != 0 || st.Successes < 1 {
		t.Errorf("refresher stats after pickup = %+v", st)
	}

	// healthz reflects the new snapshot and the refresh counters.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Transactions int `json:"transactions"`
		Refresh      *struct {
			Running              bool   `json:"running"`
			IncrementalSuccesses uint64 `json:"incrementalSuccesses"`
			DeltaTransactions    uint64 `json:"deltaTransactions"`
		} `json:"refresh"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Transactions != 6 {
		t.Errorf("healthz transactions = %d, want 6", h.Transactions)
	}
	if h.Refresh == nil || !h.Refresh.Running {
		t.Errorf("healthz refresh block = %+v, want running", h.Refresh)
	}
	// A one-row append onto five committed rows is well under the
	// default batch ratio, so the pickup must have been incremental.
	if h.Refresh != nil && (h.Refresh.IncrementalSuccesses < 1 || h.Refresh.DeltaTransactions != 1) {
		t.Errorf("healthz incremental counters = %+v, want ≥1 success over 1 delta transaction", h.Refresh)
	}
}

// TestServingKnobFlags pins that -max-inflight reaches the server
// config: with a one-slot gate every request of a concurrent burst is
// answered with a 200 or a 429, and healthz reports the admission
// block.
func TestServingKnobFlags(t *testing.T) {
	path := writeClassic(t)
	srv, _, cfg, err := setup(context.Background(), []string{
		"-in", path, "-minsup", "0.4",
		"-max-inflight", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if cfg.maxInflight != 1 {
		t.Fatalf("parsed knobs = %+v", cfg)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const clients = 4
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/recommend", "application/json",
				strings.NewReader(`{"observed":[1],"k":3}`))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	var ok, shed int
	for i := 0; i < clients; i++ {
		switch code := <-codes; code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if ok < 1 || ok+shed != clients {
		t.Errorf("ok=%d shed=%d, want every request answered and ≥1 admitted", ok, shed)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Admission *struct {
			MaxInFlight int `json:"maxInFlight"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Admission == nil || h.Admission.MaxInFlight != 1 {
		t.Errorf("healthz admission = %+v, want maxInFlight 1", h.Admission)
	}

	if _, err := parseFlags([]string{"-in", "x.dat", "-max-inflight", "-1"}); err == nil {
		t.Error("negative -max-inflight accepted")
	}
}

// TestIncrementalFlags pins the incremental-refresh knobs: on by
// default, switchable off, ratio validated.
func TestIncrementalFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-in", "x.dat"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.incremental || cfg.incrementalMax != 0 {
		t.Errorf("defaults = incremental %v max %v, want true / 0 (refresh default)", cfg.incremental, cfg.incrementalMax)
	}
	cfg, err = parseFlags([]string{"-in", "x.dat", "-incremental=false", "-incremental-max-ratio", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.incremental || cfg.incrementalMax != 0.5 {
		t.Errorf("parsed = incremental %v max %v, want false / 0.5", cfg.incremental, cfg.incrementalMax)
	}
	if _, err := parseFlags([]string{"-in", "x.dat", "-incremental-max-ratio", "-0.1"}); err == nil {
		t.Error("negative -incremental-max-ratio accepted")
	}
}

// TestRefreshTimeoutDefaultsToMineTimeout pins the flag fallback.
func TestRefreshTimeoutDefaultsToMineTimeout(t *testing.T) {
	cfg, err := parseFlags([]string{"-in", "x.dat", "-mine-timeout", "7s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.refreshTimeout != 7*time.Second {
		t.Errorf("refreshTimeout = %v, want the -mine-timeout fallback", cfg.refreshTimeout)
	}
	cfg, err = parseFlags([]string{"-in", "x.dat", "-mine-timeout", "7s", "-refresh-timeout", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.refreshTimeout != 2*time.Second {
		t.Errorf("refreshTimeout = %v, want the explicit 2s", cfg.refreshTimeout)
	}
	if _, err := parseFlags([]string{"-in", "x.dat", "-refresh", "-1s"}); err == nil {
		t.Error("negative -refresh accepted")
	}
}
