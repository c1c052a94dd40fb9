// Package refresh keeps a closedrules.QueryService fresh as its
// underlying transaction data changes — the background half of the
// serving stack's hot-reload path. A Refresher polls a pluggable
// Source on a configurable interval, re-mines the dataset through the
// miner registry under a per-cycle deadline, rebuilds the served
// basis pair, and atomically Swaps the new snapshot in only on
// success: queries never observe a partial update, and a failed cycle
// (unreadable source, mine deadline exceeded, mining error) leaves
// the previous snapshot serving untouched.
//
// Cycles are single-flight — a poll tick that fires while a cycle is
// still running is dropped, and a manual Refresh racing one returns
// ErrBusy — and repeated failures back off exponentially so a broken
// source does not burn CPU re-mining at full poll speed. Stats
// exposes the cycle counters the serving layer publishes on /healthz
// and /metrics (see the server package).
//
// Sources that can classify a change as a pure append (DeltaSource —
// FileSource does, by prefix checksum) get an incremental fast path on
// polled cycles: the Refresher extends the served snapshot with just
// the appended transactions via closedrules.UpdateAppend, which
// updates the resident closed-set lattice instead of re-mining, and
// swaps the result exactly like a full cycle. Oversized batches
// (Config.IncrementalMaxRatio), threshold changes, and bases that need
// generators all fall back to the full re-mine; manual Refresh always
// re-mines in full.
//
// Two Source implementations are built in: FileSource watches a
// transaction file via mtime, size and checksum, and SourceFunc wraps
// any func(ctx) (*Dataset, error) callback. Anything else — a
// database query, an object-store fetch — plugs in by implementing
// the one-method Source interface, optionally with ChangeDetector to
// make polling cheap.
package refresh

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"closedrules"
)

// ErrBusy is returned by Refresh when another cycle — a poll tick or
// a concurrent manual refresh — is already in flight. The in-flight
// cycle's outcome will land; the caller's request added nothing.
var ErrBusy = errors.New("refresh: cycle already in flight")

// Config tunes a Refresher. Source is required; everything else has a
// usable default.
type Config struct {
	// Source supplies the dataset each cycle re-mines. Required.
	Source Source
	// Interval is the poll period for Start's background loop. It
	// must be positive to Start; a Refresher used only through manual
	// Refresh calls may leave it zero.
	Interval time.Duration
	// MineTimeout bounds one cycle's load+mine+swap. 0 means no
	// deadline. When the deadline expires mid-mine the cycle fails
	// and the old snapshot keeps serving.
	MineTimeout time.Duration
	// MineOptions configure the re-mine (algorithm, support
	// threshold, parallelism) — the same options MineContext takes.
	// A support threshold option is required, exactly as for a direct
	// MineContext call.
	MineOptions []closedrules.MineOption
	// BackoffBase is the delay after the first consecutive failure;
	// each further failure doubles it. 0 means Interval (or 1s for a
	// manual-only Refresher).
	BackoffBase time.Duration
	// BackoffMax caps the failure backoff. 0 means 16× BackoffBase.
	BackoffMax time.Duration
	// DisableIncremental forces every cycle down the full re-mine
	// path even when Source implements DeltaSource.
	DisableIncremental bool
	// IncrementalMaxRatio is the incremental-vs-full crossover knob:
	// an append batch larger than this fraction of the served
	// dataset's transactions is re-mined from scratch rather than
	// applied incrementally (the delta enumeration loses to a fresh
	// mine well before the batch reaches dataset size). 0 means the
	// default 0.25; negative values are rejected by New.
	IncrementalMaxRatio float64
}

// DefaultIncrementalMaxRatio is the append-batch size, as a fraction
// of the served dataset, above which a cycle re-mines in full instead
// of updating the lattice incrementally.
const DefaultIncrementalMaxRatio = 0.25

// Stats is a point-in-time snapshot of a Refresher's cycle counters —
// what the serving layer reports on /healthz and /metrics.
type Stats struct {
	// Cycles counts cycles attempted: poll ticks that ran plus manual
	// Refresh calls. Ticks dropped by single-flight are not counted.
	Cycles uint64
	// Successes counts cycles that mined and swapped a new snapshot.
	Successes uint64
	// Skips counts polling cycles the Source reported unchanged.
	Skips uint64
	// Failures counts cycles that errored (source, mine, or swap).
	Failures uint64
	// ConsecutiveFailures is the current failure streak driving the
	// backoff; 0 after any success or skip.
	ConsecutiveFailures int
	// LastError is the message of the most recent cycle failure, or
	// "" when the most recent completed cycle succeeded or skipped.
	LastError string
	// LastSwap is when the last successful Swap landed (zero until
	// the first).
	LastSwap time.Time
	// LastMineDuration is how long the last successful cycle spent
	// building its snapshot — a full mine or an incremental update,
	// whichever the cycle took (zero until the first success).
	LastMineDuration time.Duration
	// IncrementalSuccesses counts successful cycles that applied an
	// append delta to the served lattice instead of re-mining — a
	// subset of Successes.
	IncrementalSuccesses uint64
	// IncrementalFallbacks counts cycles that saw an append delta but
	// re-mined in full anyway: the batch exceeded
	// IncrementalMaxRatio, or the update engine refused (lowered
	// threshold, no served result).
	IncrementalFallbacks uint64
	// DeltaTransactions is the total number of appended transactions
	// applied through the incremental path.
	DeltaTransactions uint64
	// LastIncrementalDuration is how long the last successful
	// incremental cycle spent updating the lattice (zero until the
	// first incremental success).
	LastIncrementalDuration time.Duration
	// Running reports whether the background poll loop is active.
	Running bool
}

// Refresher re-mines a data source in the background and hot-swaps
// the result into a QueryService. Create one with New; all methods
// are safe for concurrent use. The zero value is not usable.
type Refresher struct {
	qs  *closedrules.QueryService
	cfg Config

	// flight serializes cycles: TryLock semantics give single-flight
	// (an overlapping cycle is dropped, never queued).
	flight sync.Mutex

	// life guards the Start/Stop state.
	life   sync.Mutex
	cancel context.CancelFunc
	done   chan struct{}

	// mu guards the counters below.
	mu          sync.Mutex
	cycles      uint64
	successes   uint64
	skips       uint64
	failures    uint64
	incSucc     uint64
	incFallback uint64
	deltaTx     uint64
	failStreak  int
	lastError   string
	lastSwap    time.Time
	lastMineDur time.Duration
	lastIncDur  time.Duration
}

// New builds a Refresher that feeds qs from cfg.Source. The
// QueryService keeps its confidence threshold and basis selection
// across every swap (that is Swap's contract); the Refresher only
// supplies fresh mining results.
func New(qs *closedrules.QueryService, cfg Config) (*Refresher, error) {
	if qs == nil {
		return nil, fmt.Errorf("refresh: nil QueryService")
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("refresh: Config.Source is required")
	}
	if cfg.Interval < 0 || cfg.MineTimeout < 0 || cfg.BackoffBase < 0 || cfg.BackoffMax < 0 {
		return nil, fmt.Errorf("refresh: negative duration in Config")
	}
	if cfg.IncrementalMaxRatio < 0 {
		return nil, fmt.Errorf("refresh: negative Config.IncrementalMaxRatio")
	}
	if cfg.IncrementalMaxRatio == 0 {
		cfg.IncrementalMaxRatio = DefaultIncrementalMaxRatio
	}
	if cfg.BackoffBase == 0 {
		if cfg.Interval > 0 {
			cfg.BackoffBase = cfg.Interval
		} else {
			cfg.BackoffBase = time.Second
		}
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 16 * cfg.BackoffBase
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = cfg.BackoffBase
	}
	return &Refresher{qs: qs, cfg: cfg}, nil
}

// Service returns the QueryService this Refresher feeds.
func (r *Refresher) Service() *closedrules.QueryService { return r.qs }

// Start launches the background poll loop: every Interval (stretched
// by backoff after failures) it checks the Source for changes,
// re-mines, and swaps. It errors when the loop is already running or
// Interval is not positive. Stop shuts the loop down.
func (r *Refresher) Start() error {
	r.life.Lock()
	defer r.life.Unlock()
	if r.cancel != nil {
		return fmt.Errorf("refresh: already started")
	}
	if r.cfg.Interval <= 0 {
		return fmt.Errorf("refresh: Start needs a positive Config.Interval")
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.done = make(chan struct{})
	go r.run(ctx, r.done)
	return nil
}

// Stop cancels the poll loop — including a cycle in flight, whose
// load and mine observe the cancellation at their next context check
// — and waits for it to exit. Stopping a refresher that is not
// running is a no-op; after Stop, Start may be called again.
func (r *Refresher) Stop() {
	r.life.Lock()
	defer r.life.Unlock()
	if r.cancel == nil {
		return
	}
	r.cancel()
	<-r.done
	r.cancel = nil
	r.done = nil
}

// run is the poll loop. A failed cycle stretches the next wait to the
// backoff delay; success or skip restores the configured interval.
func (r *Refresher) run(ctx context.Context, done chan struct{}) {
	defer close(done)
	t := time.NewTimer(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		err := r.cycle(ctx, false)
		delay := r.cfg.Interval
		if err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, context.Canceled) {
			delay = r.backoffDelay()
		}
		t.Reset(delay)
	}
}

// Refresh runs one cycle right now, bypassing change detection — the
// POST /admin/reload path. It returns ErrBusy when a cycle is already
// in flight, nil after a successful swap, and the cycle's error
// otherwise (the old snapshot keeps serving on any error).
func (r *Refresher) Refresh(ctx context.Context) error {
	return r.cycle(ctx, true)
}

// cycle is one load→mine→swap pass. force bypasses ChangeDetector
// (manual refresh); polling passes force=false so an unchanged source
// costs a stat, not a mine.
func (r *Refresher) cycle(ctx context.Context, force bool) error {
	if !r.flight.TryLock() {
		return ErrBusy
	}
	defer r.flight.Unlock()

	r.mu.Lock()
	r.cycles++
	r.mu.Unlock()

	if r.cfg.MineTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.MineTimeout)
		defer cancel()
	}

	if !force {
		if cd, ok := r.cfg.Source.(ChangeDetector); ok {
			changed, err := cd.Changed(ctx)
			if err != nil {
				return r.fail(fmt.Errorf("refresh: change check: %w", err))
			}
			if !changed {
				r.mu.Lock()
				r.skips++
				r.failStreak = 0
				r.lastError = ""
				r.mu.Unlock()
				return nil
			}
		}
	}

	// Incremental path: on a polled cycle whose source classifies the
	// change as a pure append, extend the served snapshot with just the
	// appended transactions instead of re-mining everything. Forced
	// refreshes (POST /admin/reload) keep their documented semantics —
	// an unconditional full re-mine.
	if !force && !r.cfg.DisableIncremental {
		if ds, ok := r.cfg.Source.(DeltaSource); ok {
			if handled, err := r.incremental(ctx, ds); handled {
				return err
			}
		}
	}

	// A full re-mine builds a whole new snapshot while the old one still
	// serves. Collect first, so the build starts from the live heap and
	// not from the request garbage and dropped snapshots left since the
	// last collection: the collector then runs at the same points of
	// every build, and the process's peak memory is the same on every
	// reload instead of depending on where the last cycle left the heap.
	runtime.GC()
	d, err := r.cfg.Source.Load(ctx)
	if err != nil {
		return r.fail(fmt.Errorf("refresh: load: %w", err))
	}
	start := time.Now()
	res, err := closedrules.MineContext(ctx, d, r.cfg.MineOptions...)
	if err != nil {
		return r.fail(fmt.Errorf("refresh: mine: %w", err))
	}
	mineDur := time.Since(start)
	if err := r.qs.Swap(res); err != nil {
		return r.fail(fmt.Errorf("refresh: swap: %w", err))
	}
	// Only now is the loaded data actually served; committing earlier
	// would let a failed mine strand change detection on data the
	// service never saw.
	if c, ok := r.cfg.Source.(Committer); ok {
		c.Commit()
	}

	r.mu.Lock()
	r.successes++
	r.failStreak = 0
	r.lastError = ""
	r.lastSwap = time.Now()
	r.lastMineDur = mineDur
	r.mu.Unlock()
	return nil
}

// incremental attempts one append-delta cycle. handled=true means the
// cycle is settled (success, skip, or failure) and err is its outcome;
// handled=false sends the caller down the full load→mine→swap path —
// either the change was not a pure append, or the incremental engine
// declined (oversized batch, changed thresholds), which is a fallback,
// not a failure.
func (r *Refresher) incremental(ctx context.Context, ds DeltaSource) (bool, error) {
	prev := r.qs.ServedResult()
	if r.qs.ServedBases().NeedsGenerators() {
		// The served bases need the minimal generators an incremental
		// result cannot maintain.
		return false, nil
	}
	delta, ok, err := ds.Deltas(ctx)
	if err != nil {
		return true, r.fail(fmt.Errorf("refresh: delta check: %w", err))
	}
	if !ok {
		return false, nil
	}
	dn := delta.NumTransactions()
	if dn == 0 {
		// Append-shaped change with no new transactions (trailing
		// comments, whitespace): nothing to mine. Commit so change
		// detection re-anchors, and record the cycle as a skip.
		if c, ok := r.cfg.Source.(Committer); ok {
			c.Commit()
		}
		r.mu.Lock()
		r.skips++
		r.failStreak = 0
		r.lastError = ""
		r.mu.Unlock()
		return true, nil
	}
	if n := prev.NumTransactions(); n == 0 || float64(dn) > r.cfg.IncrementalMaxRatio*float64(n) {
		// Oversized batch: past the crossover a fresh mine is cheaper
		// than enumerating the delta's projections.
		r.mu.Lock()
		r.incFallback++
		r.mu.Unlock()
		return false, nil
	}
	start := time.Now()
	res, err := closedrules.UpdateAppend(ctx, prev, delta, r.cfg.MineOptions...)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return true, r.fail(fmt.Errorf("refresh: incremental update: %w", err))
		}
		// The engine refused (lowered threshold, bad options, a
		// loaded result without transactions): re-mine in full within
		// this same cycle.
		r.mu.Lock()
		r.incFallback++
		r.mu.Unlock()
		return false, nil
	}
	dur := time.Since(start)
	if err := r.qs.Swap(res); err != nil {
		return true, r.fail(fmt.Errorf("refresh: swap: %w", err))
	}
	if c, ok := r.cfg.Source.(Committer); ok {
		c.Commit()
	}
	r.mu.Lock()
	r.successes++
	r.incSucc++
	r.deltaTx += uint64(dn)
	r.failStreak = 0
	r.lastError = ""
	r.lastSwap = time.Now()
	r.lastMineDur = dur
	r.lastIncDur = dur
	r.mu.Unlock()
	return true, nil
}

// fail records a cycle failure and returns err. A cancellation from
// Stop (or a caller-cancelled manual Refresh) is passed through
// without counting: shutdown is not a source failure and must not
// poison LastError or the backoff streak.
func (r *Refresher) fail(err error) error {
	if errors.Is(err, context.Canceled) {
		return err
	}
	r.mu.Lock()
	r.failures++
	r.failStreak++
	r.lastError = err.Error()
	r.mu.Unlock()
	return err
}

// backoffDelay computes the wait after the current failure streak:
// BackoffBase doubled per consecutive failure, capped at BackoffMax.
func (r *Refresher) backoffDelay() time.Duration {
	r.mu.Lock()
	streak := r.failStreak
	r.mu.Unlock()
	return backoff(r.cfg.BackoffBase, r.cfg.BackoffMax, streak)
}

// backoff is the pure backoff schedule: base·2^(streak-1) clamped to
// [base, max]. A streak of 0 (no failures) yields base.
func backoff(base, max time.Duration, streak int) time.Duration {
	d := base
	for i := 1; i < streak; i++ {
		d *= 2
		if d >= max || d < 0 { // d < 0 guards duration overflow
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// Stats returns a snapshot of the cycle counters.
func (r *Refresher) Stats() Stats {
	r.life.Lock()
	running := r.cancel != nil
	r.life.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Cycles:                  r.cycles,
		Successes:               r.successes,
		Skips:                   r.skips,
		Failures:                r.failures,
		ConsecutiveFailures:     r.failStreak,
		LastError:               r.lastError,
		LastSwap:                r.lastSwap,
		LastMineDuration:        r.lastMineDur,
		IncrementalSuccesses:    r.incSucc,
		IncrementalFallbacks:    r.incFallback,
		DeltaTransactions:       r.deltaTx,
		LastIncrementalDuration: r.lastIncDur,
		Running:                 running,
	}
}
