package refresh

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"closedrules"
)

const classicDat = "0 2 3\n1 2 4\n0 1 2 4\n1 4\n0 1 2 4\n"

// classicService mines the classic 5-object context and wraps it in a
// QueryService ready to be refreshed.
func classicService(t *testing.T) *closedrules.QueryService {
	t.Helper()
	ds, err := closedrules.NewDataset([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := closedrules.MineContext(context.Background(), ds, closedrules.WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := closedrules.NewQueryService(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

// writeClassic writes the classic context to a temp .dat file.
func writeClassic(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "classic.dat")
	if err := os.WriteFile(path, []byte(classicDat), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitFor polls cond until it is true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func mineOpts() []closedrules.MineOption {
	return []closedrules.MineOption{closedrules.WithMinSupport(0.4)}
}

func TestFileSourceChangeDetection(t *testing.T) {
	path := writeClassic(t)
	src := NewFileSource(path)
	ctx := context.Background()

	// Never committed: always changed.
	if ch, err := src.Changed(ctx); err != nil || !ch {
		t.Fatalf("Changed before first Load = %v, %v; want true", ch, err)
	}
	d, err := src.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTransactions() != 5 {
		t.Fatalf("loaded %d transactions, want 5", d.NumTransactions())
	}
	// Loaded but not yet committed (the mine/swap has not succeeded):
	// still changed, so a failed cycle is retried, not skipped.
	if ch, err := src.Changed(ctx); err != nil || !ch {
		t.Fatalf("Changed after uncommitted Load = %v, %v; want true", ch, err)
	}
	src.Commit()
	// Committed and untouched: unchanged.
	if ch, err := src.Changed(ctx); err != nil || ch {
		t.Fatalf("Changed on untouched file = %v, %v; want false", ch, err)
	}
	// Rewrite with identical bytes but a new mtime: the checksum
	// confirms no change.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	if ch, err := src.Changed(ctx); err != nil || ch {
		t.Fatalf("Changed after touch-only = %v, %v; want false", ch, err)
	}
	// Append a transaction: changed, and Load sees it.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0 1 2 4\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if ch, err := src.Changed(ctx); err != nil || !ch {
		t.Fatalf("Changed after append = %v, %v; want true", ch, err)
	}
	// The positive probe read the file; Load must reuse those bytes
	// instead of reading and hashing again.
	if src.readAhead == nil {
		t.Fatal("positive Changed probe did not stage its bytes for Load")
	}
	d2, err := src.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if src.readAhead != nil {
		t.Fatal("Load did not consume the staged probe bytes")
	}
	if d2.NumTransactions() != 6 {
		t.Fatalf("reloaded %d transactions, want 6", d2.NumTransactions())
	}
	src.Commit()
	if ch, _ := src.Changed(ctx); ch {
		t.Fatal("Changed right after committed Load; want false")
	}
}

// TestFailedMineDoesNotCommitFingerprint pins the retry contract: a
// cycle whose Load succeeds but whose mine fails must leave the file
// source uncommitted, so the next poll retries instead of skipping
// the new data forever.
func TestFailedMineDoesNotCommitFingerprint(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit() // the initial content is being served

	// A refresher whose Load succeeds and whose mine always fails.
	bad, err := New(qs, Config{Source: src, MineOptions: []closedrules.MineOption{
		closedrules.WithMinSupport(0.4), closedrules.WithAlgorithm("no-such-miner"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0 1 2 4\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for i := 1; i <= 2; i++ {
		if err := bad.cycle(ctx, false); err == nil {
			t.Fatalf("cycle %d with a bogus miner succeeded", i)
		}
		st := bad.Stats()
		if st.Failures != uint64(i) || st.Skips != 0 {
			t.Fatalf("after failed cycle %d: %+v — the change was skipped, not retried", i, st)
		}
	}
	if n := qs.NumTransactions(); n != 5 {
		t.Fatalf("failed cycles changed the snapshot: %d transactions", n)
	}

	// A working refresher over the same source picks the change up...
	good, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := good.cycle(ctx, false); err != nil {
		t.Fatal(err)
	}
	if n := qs.NumTransactions(); n != 6 {
		t.Fatalf("recovered cycle served %d transactions, want 6", n)
	}
	// ...and commits it, so the next poll skips.
	if err := good.cycle(ctx, false); err != nil {
		t.Fatal(err)
	}
	if st := good.Stats(); st.Successes != 1 || st.Skips != 1 {
		t.Fatalf("stats after recovery = %+v, want 1 success + 1 skip", st)
	}
}

// TestCancelledLoadDropsStagedProbeBytes pins a staleness edge: bytes
// staged by a positive Changed probe must not survive a cancelled
// Load, or a later forced cycle would mine and serve a snapshot of
// the file as it was cycles ago.
func TestCancelledLoadDropsStagedProbeBytes(t *testing.T) {
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()

	appendLine := func(line string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	appendLine("0 1 2 4\n") // v2: 6 transactions
	if ch, err := src.Changed(ctx); err != nil || !ch {
		t.Fatalf("Changed = %v, %v", ch, err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := src.Load(cancelled); err == nil {
		t.Fatal("Load with a cancelled context succeeded")
	}
	appendLine("1 2 4\n") // v3: 7 transactions, while v2 was staged
	d, err := src.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTransactions() != 7 {
		t.Fatalf("forced Load served %d transactions, want the current 7 (stale probe bytes reused)", d.NumTransactions())
	}
}

func TestFileSourceMissingFile(t *testing.T) {
	src := NewFileSource(filepath.Join(t.TempDir(), "absent.dat"))
	if _, err := src.Load(context.Background()); err == nil {
		t.Fatal("Load of a missing file succeeded")
	}
}

func TestTableFileSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("a,x\nb,x\na,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := NewTableFileSource(path, ',', false).Load(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTransactions() != 3 {
		t.Fatalf("table source loaded %d transactions, want 3", d.NumTransactions())
	}
}

func TestManualRefreshSwaps(t *testing.T) {
	qs := classicService(t)
	src := SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		return closedrules.NewDataset([][]int{
			{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
			{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
		})
	})
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := qs.NumTransactions(); n != 10 {
		t.Fatalf("after refresh NumTransactions = %d, want 10", n)
	}
	st := r.Stats()
	if st.Cycles != 1 || st.Successes != 1 || st.Failures != 0 {
		t.Fatalf("stats = %+v, want 1 cycle, 1 success", st)
	}
	if st.LastSwap.IsZero() || st.LastMineDuration <= 0 || st.LastError != "" {
		t.Fatalf("stats after success = %+v", st)
	}
	if got := qs.Stats().Swaps; got != 1 {
		t.Fatalf("QueryService swap counter = %d, want 1", got)
	}
}

// A full re-mine starts from a collected heap, so its peak memory does
// not depend on the garbage pending when the cycle began. Automatic
// collection is off for the test: any collection counted is the
// cycle's own.
func TestFullCycleCollectsBeforeMining(t *testing.T) {
	qs := classicService(t)
	r, err := New(qs, Config{Source: NewFileSource(writeClassic(t)), MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := r.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if after.NumGC == before.NumGC {
		t.Fatal("a full refresh cycle mined without collecting first")
	}
}

func TestPollingPicksUpFileChangeAndSkipsUnchanged(t *testing.T) {
	qs := classicService(t)
	path := writeClassic(t)
	r, err := New(qs, Config{
		Source:      NewFileSource(path),
		Interval:    3 * time.Millisecond,
		MineOptions: mineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if !r.Stats().Running {
		t.Fatal("Stats().Running = false after Start")
	}

	// First poll loads the (identical) file and swaps once; after
	// that the source is unchanged and cycles skip.
	waitFor(t, 5*time.Second, func() bool { return r.Stats().Skips >= 2 }, "unchanged polls to skip")
	if s := r.Stats(); s.Successes != 1 {
		t.Fatalf("successes before file change = %d, want 1 (initial load)", s.Successes)
	}

	// Append a transaction; the poller must pick it up and swap.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("0 1 2 4\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitFor(t, 5*time.Second, func() bool { return qs.NumTransactions() == 6 }, "appended transaction to be served")
	if s := r.Stats(); s.Successes != 2 || s.Failures != 0 {
		t.Fatalf("stats after pickup = %+v, want 2 successes, 0 failures", s)
	}
}

// TestSwapUnderConcurrentReads hammers the QueryService from many
// goroutines while a fast refresher swaps snapshots underneath — the
// zero-failed-requests-during-swap guarantee, checked under -race.
func TestSwapUnderConcurrentReads(t *testing.T) {
	qs := classicService(t)
	flip := false
	src := SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		flip = !flip // single-flight: only one cycle reads this at a time
		base := [][]int{{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4}}
		if flip {
			base = append(base, []int{0, 1, 2, 4})
		}
		return closedrules.NewDataset(base)
	})
	r, err := New(qs, Config{Source: src, Interval: time.Millisecond, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := qs.Support(ctx, closedrules.Items(2)); err != nil {
					errc <- fmt.Errorf("Support: %w", err)
					return
				}
				if _, err := qs.Recommend(ctx, closedrules.Items(i%5), 3); err != nil {
					errc <- fmt.Errorf("Recommend: %w", err)
					return
				}
			}
		}(i)
	}
	waitFor(t, 10*time.Second, func() bool { return r.Stats().Successes >= 5 }, "five swaps under load")
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Errorf("query failed during swaps: %v", err)
	}
	if s := r.Stats(); s.Failures != 0 {
		t.Fatalf("refresher failures under load = %d (last: %s)", s.Failures, s.LastError)
	}
}

// TestMineDeadlineKeepsOldSnapshot gives the cycle a deadline no mine
// can meet and asserts the served snapshot is untouched.
func TestMineDeadlineKeepsOldSnapshot(t *testing.T) {
	qs := classicService(t)
	before := qs.NumTransactions()
	src := SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		// Ignore ctx deliberately: the deadline must be enforced by
		// the mining layer, not by a cooperative source.
		return closedrules.NewDataset([][]int{
			{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4}, {0, 1},
		})
	})
	r, err := New(qs, Config{Source: src, MineTimeout: time.Nanosecond, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	err = r.Refresh(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Refresh with 1ns deadline = %v, want DeadlineExceeded", err)
	}
	if n := qs.NumTransactions(); n != before {
		t.Fatalf("snapshot changed after failed cycle: %d -> %d", before, n)
	}
	st := r.Stats()
	if st.Failures != 1 || st.Successes != 0 || st.LastError == "" {
		t.Fatalf("stats after deadline failure = %+v", st)
	}
	if got := qs.Stats().Swaps; got != 0 {
		t.Fatalf("swap counter after failed cycle = %d, want 0", got)
	}
}

func TestBackoffSchedule(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	want := []time.Duration{
		0: base, 1: base, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond,
		4: cap, 5: cap, 6: cap,
	}
	for streak, w := range want {
		if got := backoff(base, cap, streak); got != w {
			t.Errorf("backoff(streak=%d) = %v, want %v", streak, got, w)
		}
	}
	// A huge streak must clamp, not overflow.
	if got := backoff(base, cap, 200); got != cap {
		t.Errorf("backoff(streak=200) = %v, want %v", got, cap)
	}
	if got := backoff(time.Hour, 365*24*time.Hour, 100); got != 365*24*time.Hour {
		t.Errorf("backoff overflow guard = %v", got)
	}
}

// TestBackoffAfterRepeatedSourceErrors measures the spacing of
// consecutive failures: with BackoffBase ≫ Interval the second and
// third failures must arrive backoff-spaced, not interval-spaced.
func TestBackoffAfterRepeatedSourceErrors(t *testing.T) {
	qs := classicService(t)
	src := SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		return nil, errors.New("boom")
	})
	r, err := New(qs, Config{
		Source:      src,
		Interval:    2 * time.Millisecond,
		BackoffBase: 30 * time.Millisecond,
		MineOptions: mineOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	waitFor(t, 10*time.Second, func() bool { return r.Stats().Failures >= 3 }, "three failures")
	// Failure 1 lands after ~Interval; failures 2 and 3 wait out the
	// 30ms and 60ms backoffs. Timers never fire early, so three
	// failures cannot arrive before 2+30+60 ms.
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("three failures after %v — backoff not applied", elapsed)
	}
	st := r.Stats()
	if st.ConsecutiveFailures < 3 {
		t.Fatalf("ConsecutiveFailures = %d, want >= 3", st.ConsecutiveFailures)
	}
	if !strings.Contains(st.LastError, "boom") {
		t.Fatalf("LastError = %q, want the source error", st.LastError)
	}
	if st.Successes != 0 {
		t.Fatalf("successes from a failing source = %d", st.Successes)
	}
}

// TestStopDuringInflightCycle blocks a cycle inside Source.Load and
// asserts Stop cancels it and returns promptly, without recording the
// shutdown as a cycle failure.
func TestStopDuringInflightCycle(t *testing.T) {
	qs := classicService(t)
	started := make(chan struct{})
	var once sync.Once
	src := SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		once.Do(func() { close(started) })
		<-ctx.Done() // block until Stop cancels the run context
		return nil, ctx.Err()
	})
	r, err := New(qs, Config{Source: src, Interval: time.Millisecond, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan struct{})
	go func() { r.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return while a cycle was blocked in Load")
	}
	st := r.Stats()
	if st.Running {
		t.Fatal("Running = true after Stop")
	}
	if st.Failures != 0 || st.LastError != "" {
		t.Fatalf("shutdown recorded as failure: %+v", st)
	}
	// The lifecycle is restartable.
	if err := r.Start(); err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
	r.Stop()
}

func TestRefreshBusySingleFlight(t *testing.T) {
	qs := classicService(t)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	src := SourceFunc(func(ctx context.Context) (*closedrules.Dataset, error) {
		once.Do(func() { close(entered) })
		<-gate
		return nil, errors.New("released")
	})
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() { first <- r.Refresh(context.Background()) }()
	<-entered
	if err := r.Refresh(context.Background()); !errors.Is(err, ErrBusy) {
		t.Fatalf("overlapping Refresh = %v, want ErrBusy", err)
	}
	close(gate)
	if err := <-first; err == nil {
		t.Fatal("first Refresh should surface the source error")
	}
	// The dropped cycle must not have been counted.
	if st := r.Stats(); st.Cycles != 1 {
		t.Fatalf("Cycles = %d after one real + one busy refresh, want 1", st.Cycles)
	}
}

func TestLifecycleErrors(t *testing.T) {
	qs := classicService(t)
	if _, err := New(nil, Config{Source: NewFileSource("x")}); err == nil {
		t.Error("New(nil qs) succeeded")
	}
	if _, err := New(qs, Config{}); err == nil {
		t.Error("New without Source succeeded")
	}
	if _, err := New(qs, Config{Source: NewFileSource("x"), Interval: -time.Second}); err == nil {
		t.Error("New with negative Interval succeeded")
	}
	r, err := New(qs, Config{Source: NewFileSource("x"), MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil {
		r.Stop()
		t.Error("Start without Interval succeeded")
	}
	r.Stop() // Stop before Start is a no-op
	r2, err := New(qs, Config{Source: NewFileSource(writeClassic(t)), Interval: time.Hour, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Start(); err == nil {
		t.Error("double Start succeeded")
	}
	r2.Stop()
	r2.Stop() // idempotent
}
