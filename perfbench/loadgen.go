package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// shot is one scheduled request and what happened to it. Times are
// offsets from the start of the load phase.
type shot struct {
	req    int           // index into the phase's queries
	due    time.Duration // when the Poisson schedule says to send it
	sent   time.Duration // when the generator handed it to a connection
	done   time.Duration // when its response body was read
	status int
	body   []byte
	err    error
}

// latency is the time from when the request was due, so a stall also
// charges the requests queued behind it.
func (s *shot) latency() time.Duration { return s.done - s.due }

// schedule draws a Poisson arrival process at rate per second over d;
// arrival i sends the phase's request i.
func schedule(r *rand.Rand, rate float64, d time.Duration) []shot {
	var out []shot
	for t := r.ExpFloat64() / rate; t < d.Seconds(); t += r.ExpFloat64() / rate {
		out = append(out, shot{req: len(out), due: time.Duration(t * float64(time.Second))})
	}
	return out
}

// newClient returns an HTTP client holding at most one connection, so a
// load phase with c clients opens at most c connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// openLoop sends each shot at its due time, from one process over
// len(clients) connections, and returns once every response is in.
// A shot that is due while every connection is busy waits for one, and
// that wait counts in its latency. start is the phase's time origin.
func openLoop(ctx context.Context, clients []*http.Client, base string, reqs []request, shots []shot, start time.Time) {
	work := make(chan int, len(shots)) // one slot per send: the generator never blocks
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range work {
				s := &shots[i]
				rq := reqs[s.req]
				var body io.Reader
				if rq.body != nil {
					body = bytes.NewReader(rq.body)
				}
				hr, err := http.NewRequestWithContext(ctx, rq.method, base+rq.path, body)
				if err == nil {
					var resp *http.Response
					if resp, err = c.Do(hr); err == nil {
						s.status = resp.StatusCode
						s.body, err = io.ReadAll(resp.Body)
						resp.Body.Close()
					}
				}
				s.err = err
				s.done = time.Since(start)
			}
		}(c)
	}
	for i := range shots {
		if wait := shots[i].due - time.Since(start); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		shots[i].sent = time.Since(start)
		work <- i
	}
	close(work)
	wg.Wait()
}
