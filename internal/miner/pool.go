package miner

import "sync"

// RunPool runs fn(0) … fn(n-1) on up to workers goroutines and returns
// the first error any call produced (after all started work drained).
// It is the bounded fan-out charm, eclat and declat share over their
// first-level classes: jobs are fed by index, a failing worker stops
// the feed, and the caller's fn is responsible for observing ctx —
// RunPool itself adds no cancellation points beyond the feed/fail
// handshake. One worker runs every job inline.
func RunPool(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	feed := make(chan int)
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if err := fn(i); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	var failed error
feedLoop:
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case failed = <-errc:
			break feedLoop
		}
	}
	close(feed)
	wg.Wait()
	if failed != nil {
		return failed
	}
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}
