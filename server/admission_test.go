package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	if !cond() {
		t.Fatal("condition never held")
	}
}

// holdingServer serves s's routes, except that POST /recommend — still
// instrumented and behind the recommend admission gate — holds its
// slot until release is called, then answers through the real
// recommend handler. It is how the admission tests keep slots occupied
// deterministically. release is idempotent and also runs at cleanup,
// before the test server closes.
func holdingServer(t *testing.T, s *Server) (ts *httptest.Server, release func()) {
	t.Helper()
	held := make(chan struct{})
	release = sync.OnceFunc(func() { close(held) })
	recommend := s.query(s.serveRecommend)
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("POST /recommend", s.instrument("recommend", s.admit(s.limiters["recommend"],
		func(w http.ResponseWriter, r *http.Request) {
			<-held
			recommend(w, r)
		})))
	ts = httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(release)
	return ts, release
}

// getBody fetches a URL and returns its body, failing on any error.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d; body: %s", url, resp.StatusCode, buf.String())
	}
	return buf.String()
}

// postRecommend fires one POST /recommend and returns the status code;
// transport-level failures are reported as code 0 (a dropped response).
func postRecommend(ts string, body string) int {
	resp, err := http.Post(ts+"/recommend", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// TestAdmissionShedsUnderOverload is the overload contract, table-
// driven over gate sizes: 2× MaxInFlight simultaneous recommend calls
// must observe a mix of 200s and fast 429s, every request must get a
// response (zero 5xx, zero transport drops), admitted-request latency
// must stay bounded, and the in-flight gauges must return to zero
// once the burst drains. Admitted requests hold their slots until
// every other client has been shed, so the overload window is
// deterministic.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	const shedBound = 150 * time.Millisecond // slowest acceptable 429
	for _, limit := range []int{2, 4, 8} {
		limit := limit
		t.Run(fmt.Sprintf("maxInFlight=%d", limit), func(t *testing.T) {
			s, _ := newTestServer(t, Config{MaxInFlight: limit})
			ts, release := holdingServer(t, s)

			clients := 2 * limit
			start := make(chan struct{})
			codes := make([]int, clients)
			lat := make([]time.Duration, clients)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					began := time.Now()
					codes[i] = postRecommend(ts.URL, `{"observed":[1],"k":3}`)
					lat[i] = time.Since(began)
				}(i)
			}
			close(start)
			waitFor(t, 5*time.Second, func() bool {
				return s.limiters["recommend"].shedCount() == uint64(clients-limit)
			})
			release()
			wg.Wait()

			var ok, shed int
			for i, code := range codes {
				switch code {
				case http.StatusOK:
					ok++
					if lat[i] > 5*time.Second {
						t.Errorf("admitted request %d took %v — latency not bounded", i, lat[i])
					}
				case http.StatusTooManyRequests:
					shed++
					// Shedding must be fast — that is its entire point.
					if lat[i] > shedBound {
						t.Errorf("shed request %d took %v, want well under %v", i, lat[i], shedBound)
					}
				default:
					t.Errorf("request %d got status %d, want 200 or 429 (0 means dropped)", i, code)
				}
			}
			if ok+shed != clients {
				t.Fatalf("%d responses accounted for, want %d — responses dropped", ok+shed, clients)
			}
			if ok < limit {
				t.Errorf("only %d requests admitted, want at least the gate size %d", ok, limit)
			}
			if shed == 0 {
				t.Error("no requests shed at 2x the in-flight limit")
			}

			// The gauges drain back to zero and the shed counter agrees
			// with what the clients observed.
			waitFor(t, 5*time.Second, func() bool { return s.limiters["recommend"].inFlight() == 0 })
			if got := s.limiters["recommend"].shedCount(); got != uint64(shed) {
				t.Errorf("shed counter = %d, clients saw %d", got, shed)
			}
		})
	}
}

// TestAdmissionRetryAfterAndHealthz pins the 429 wire contract
// (Retry-After header + JSON error body) and the healthz admission
// block: shed and in-flight counts surface per endpoint, and in-flight
// counts read zero after drain.
func TestAdmissionRetryAfterAndHealthz(t *testing.T) {
	const limit = 1
	s, _ := newTestServer(t, Config{MaxInFlight: limit})
	ts, release := holdingServer(t, s)

	// Occupy the single slot, then overflow it.
	occupied := make(chan int, 1)
	go func() { occupied <- postRecommend(ts.URL, `{"observed":[1],"k":3}`) }()
	waitFor(t, 5*time.Second, func() bool { return s.limiters["recommend"].inFlight() == 1 })

	resp, err := http.Post(ts.URL+"/recommend", "application/json", bytes.NewReader([]byte(`{"observed":[1],"k":3}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != retryAfterSeconds {
		t.Errorf("Retry-After = %q, want %q", got, retryAfterSeconds)
	}
	var e errorJSON
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("429 body = %+v, %v; want a JSON error", e, err)
	}
	release()
	if got := <-occupied; got != http.StatusOK {
		t.Fatalf("slot-holding request got %d, want 200", got)
	}

	waitFor(t, 5*time.Second, func() bool { return s.limiters["recommend"].inFlight() == 0 })
	var h healthJSON
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if h.Admission == nil {
		t.Fatal("healthz has no admission block")
	}
	if h.Admission.MaxInFlight != limit {
		t.Errorf("healthz maxInFlight = %d, want %d", h.Admission.MaxInFlight, limit)
	}
	if h.Admission.Shed["recommend"] != 1 {
		t.Errorf("healthz shed[recommend] = %d, want 1", h.Admission.Shed["recommend"])
	}
	for e, n := range h.Admission.InFlight {
		if n != 0 {
			t.Errorf("healthz inFlight[%s] = %d after drain, want 0", e, n)
		}
	}

	// The Prometheus families agree.
	body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`closedrules_http_shed_total{endpoint="recommend"} 1`,
		`closedrules_http_inflight{endpoint="recommend"} 0`,
		"closedrules_http_max_inflight 1",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestAdmissionDoesNotGateObservability pins that healthz and metrics
// stay reachable while every query slot is taken.
func TestAdmissionDoesNotGateObservability(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1})
	ts, release := holdingServer(t, s)
	done := make(chan int, 1)
	go func() { done <- postRecommend(ts.URL, `{"observed":[1],"k":3}`) }()
	waitFor(t, 5*time.Second, func() bool { return s.limiters["recommend"].inFlight() == 1 })
	var h healthJSON
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &h)
	if body := getBody(t, ts.URL+"/metrics"); body == "" {
		t.Error("metrics unreachable under full query gates")
	}
	release()
	if got := <-done; got != http.StatusOK {
		t.Fatalf("gated request got %d", got)
	}
}
