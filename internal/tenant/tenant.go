// Package tenant turns the single-dataset serving stack into a
// multi-tenant mining service: a registry of datasets, each owned by
// a tenant ID, in front of a sharded pool of per-tenant
// closedrules.QueryService instances with LRU eviction under a total
// memory budget, single-flight lazy (re)materialization, async mining
// jobs on a bounded worker pool, and optional per-tenant background
// refresh for file-backed datasets.
//
// The design leans on the paper's central observation: the condensed
// representation (frequent closed itemsets plus the Duquenne–Guigues
// and Luxenburger bases) is small relative to the data that produced
// it, so holding one *per tenant* in memory is feasible — and when it
// is not, a tenant's representation can be dropped and re-mined on
// demand. The pool makes that trade explicit: registration keeps only
// the tenant's source (inline transactions or a file path) and mining
// parameters; the mined QueryService is a cache entry. A query against
// an evicted tenant re-mines exactly once (concurrent queries share
// the flight) and every other caller waits on the same result.
//
// Concurrency: tenant lookup is sharded (16 ways) so the query hot
// path takes only a shard read-lock plus one entry mutex; mining never
// runs under any lock (the arvet atomicsnapshot invariant). Eviction
// uses an approximate LRU — a per-tenant atomic last-used timestamp
// scanned under a single eviction mutex — which is exact enough for
// pools of hundreds of tenants and keeps the touch on the query path
// to one atomic store.
package tenant

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"closedrules"
	"closedrules/refresh"
)

// Sentinel errors of the pool API. The serving layer maps them onto
// HTTP statuses (404, 409, 403, 429, ...).
var (
	// ErrNotFound: no tenant (or job) with that ID is registered.
	ErrNotFound = errors.New("tenant: not found")
	// ErrExists: Register was called with an ID already in use.
	ErrExists = errors.New("tenant: id already registered")
	// ErrPoolFull: the pool is at MaxTenants registered datasets.
	ErrPoolFull = errors.New("tenant: pool at max registered tenants")
	// ErrPinned: the operation (delete, evict) is not allowed on a
	// pinned tenant.
	ErrPinned = errors.New("tenant: tenant is pinned")
	// ErrNoSource: the tenant has no re-minable source (a pinned,
	// pre-materialized tenant), so mine jobs and rematerialization are
	// impossible.
	ErrNoSource = errors.New("tenant: no re-minable source")
	// ErrTenantBusy: the tenant already holds its fair share of mine
	// job slots; retry when a job finishes.
	ErrTenantBusy = errors.New("tenant: mine job limit for this tenant reached")
	// ErrQueueFull: the global mine job queue is full.
	ErrQueueFull = errors.New("tenant: mine job queue full")
	// ErrClosed: the pool has been closed.
	ErrClosed = errors.New("tenant: pool closed")
	// ErrBadID: the ID does not match idPattern.
	ErrBadID = errors.New("tenant: id must match [a-zA-Z0-9][a-zA-Z0-9._-]{0,63}")
)

// idPattern constrains client-chosen tenant IDs: URL-safe, bounded,
// no leading punctuation.
var idPattern = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// Defaults applied by NewPool (for zero Config fields the serving
// layer passes through) and by Params.withDefaults.
const (
	// DefaultMinSupport is the relative support used when a tenant
	// registers without a threshold.
	DefaultMinSupport = 0.1
	// DefaultMinConfidence filters the approximate basis when a tenant
	// registers without a confidence threshold.
	DefaultMinConfidence = 0.5
)

// Params are one tenant's mining parameters: what to mine with and
// which bases to serve. The zero value is usable — withDefaults fills
// the support and confidence thresholds — and every field is
// overridable per mine job.
type Params struct {
	// MinSupport is the relative minimum support in (0,1]; ignored
	// when AbsSupport ≥ 1. 0 means DefaultMinSupport.
	MinSupport float64
	// AbsSupport is the absolute minimum support; ≥1 overrides
	// MinSupport.
	AbsSupport int
	// MinConfidence in [0,1] filters the served approximate basis.
	MinConfidence float64
	// Algorithm is a closed-miner registry name ("" = registry
	// default).
	Algorithm string
	// ExactBasis and ApproxBasis are basis registry names ("" = the
	// paper's pair).
	ExactBasis  string
	ApproxBasis string
}

// withDefaults fills the thresholds a zero Params leaves open.
func (p Params) withDefaults() Params {
	if p.MinSupport == 0 && p.AbsSupport < 1 {
		p.MinSupport = DefaultMinSupport
	}
	return p
}

// Validate rejects parameters no mine could accept: thresholds out of
// range or registry names that do not resolve. Registry checks happen
// here so a bad registration fails at POST /datasets time with a 4xx,
// not inside a mine job.
func (p Params) Validate() error {
	if p.AbsSupport < 0 {
		return fmt.Errorf("tenant: negative absolute support %d", p.AbsSupport)
	}
	if p.AbsSupport == 0 && !(p.MinSupport > 0 && p.MinSupport <= 1) {
		return fmt.Errorf("tenant: relative support %v outside (0,1]", p.MinSupport)
	}
	if !(p.MinConfidence >= 0 && p.MinConfidence <= 1) { // negated AND also rejects NaN
		return fmt.Errorf("tenant: confidence %v outside [0,1]", p.MinConfidence)
	}
	if p.Algorithm != "" {
		// The registry's own lookup, so every spelling WithAlgorithm
		// accepts ("a-close", "CHARM") registers too.
		if _, err := closedrules.LookupClosedMiner(p.Algorithm); err != nil {
			return fmt.Errorf("tenant: %w", err)
		}
	}
	for _, name := range []string{p.ExactBasis, p.ApproxBasis} {
		if name == "" {
			continue
		}
		if _, err := closedrules.LookupBasis(name); err != nil {
			return fmt.Errorf("tenant: %w", err)
		}
	}
	return nil
}

// mineOptions renders the params as registry mining options. With no
// Algorithm the library default (charm) mines, unless a served basis
// needs minimal generators: then genclose mines FC and generators in
// one pass, and neither the build nor a refresh re-mines to resolve
// them.
func (p Params) mineOptions() []closedrules.MineOption {
	opts := []closedrules.MineOption{closedrules.WithMinSupport(p.MinSupport)}
	if p.AbsSupport >= 1 {
		opts = []closedrules.MineOption{closedrules.WithAbsoluteMinSupport(p.AbsSupport)}
	}
	algo := p.Algorithm
	if algo == "" {
		algo = closedrules.BasisSelection{Exact: p.ExactBasis, Approximate: p.ApproxBasis}.Miner()
	}
	if algo != "" {
		opts = append(opts, closedrules.WithAlgorithm(algo))
	}
	return opts
}

// Source produces the transactions a tenant's snapshots are mined
// from; the registry keeps the Source, the pool caches what mining it
// yields. refresh.FileSource satisfies it for file-backed tenants
// (bringing change detection and the incremental append path along);
// InlineSource holds uploaded transactions in memory.
type Source interface {
	Load(ctx context.Context) (*closedrules.Dataset, error)
}

// InlineSource serves a dataset uploaded inline with the registration
// request. The raw transactions stay resident for the tenant's whole
// lifetime — they ARE the registry copy — while the mined
// representation built from them comes and goes with the pool budget.
type InlineSource struct{ d *closedrules.Dataset }

// NewInlineSource wraps an uploaded dataset.
func NewInlineSource(d *closedrules.Dataset) *InlineSource { return &InlineSource{d: d} }

// Load returns the uploaded dataset.
func (s *InlineSource) Load(ctx context.Context) (*closedrules.Dataset, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.d, nil
}

// Config tunes a Pool. NewPool validates rather than defaults: the
// serving layer owns zero-means-default translation (see
// server.Config), so a zero worker count or budget reaching NewPool
// is an explicit error, not a silent minimum.
type Config struct {
	// MaxTenants caps registered datasets (must be ≥ 1).
	MaxTenants int
	// MemoryBudget bounds the summed MemoryEstimate of resident
	// tenants, in bytes (must be ≥ 1). The budget is enforced by
	// eviction after materialization, so a single tenant larger than
	// the whole budget still serves — alone.
	MemoryBudget int64
	// MineWorkers is the async mine job worker count (must be ≥ 1).
	MineWorkers int
	// MineTimeout bounds one materialization or mine job (0 = none).
	MineTimeout time.Duration
	// JobQueue bounds queued mine jobs (0 = 8× MineWorkers).
	JobQueue int
}

// Pool is the tenant registry and resident-service cache. Create one
// with NewPool; all methods are safe for concurrent use. Close
// releases the job workers and per-tenant refreshers.
type Pool struct {
	cfg    Config
	shards [numShards]shard

	ctx    context.Context
	cancel context.CancelFunc

	registered atomic.Int64
	resident   atomic.Int64
	bytes      atomic.Int64
	evictions  atomic.Uint64
	mines      atomic.Uint64 // materializations + completed mine jobs

	// evictMu serializes budget-enforcement scans so concurrent
	// materializations cannot double-evict.
	evictMu sync.Mutex

	jobs jobManager

	closeOnce sync.Once
}

const numShards = 16

type shard struct {
	mu      sync.RWMutex
	tenants map[string]*entry
}

// entry is one registered tenant. The immutable identity fields are
// set at Register; everything below mu is the resident state.
type entry struct {
	id        string
	name      string
	createdAt time.Time
	pinned    bool
	src       Source
	refresh   time.Duration

	lastUsed atomic.Int64 // unix nanos of the last query (approximate LRU)

	mu        sync.Mutex
	params    Params
	svc       *closedrules.QueryService
	bytes     int64
	mines     uint64
	mat       *flight // in-flight materialization, nil otherwise
	refresher *refresh.Refresher
	deleted   bool
}

// flight is one single-flight materialization: waiters block on done
// and read svc/err after it closes.
type flight struct {
	done chan struct{}
	svc  *closedrules.QueryService
	err  error
}

// Spec describes one registration. Exactly one of Source or Service
// must be set: Source registers a lazily mined tenant; Service
// registers a pre-materialized one (the serving layer's pinned
// default tenant).
type Spec struct {
	// ID is the client-chosen tenant ID; "" generates one ("t-" + 8
	// hex bytes).
	ID string
	// Name is a display name ("" = the ID).
	Name string
	// Source supplies the transactions each (re)mine loads.
	Source Source
	// Params are the tenant's mining parameters (zero fields get
	// defaults).
	Params Params
	// Refresh attaches a background refresher at this poll interval to
	// each materialized service (file-backed sources only; the
	// incremental append path applies when Source implements
	// refresh.DeltaSource).
	Refresh time.Duration
	// Pinned exempts the tenant from eviction and deletion.
	Pinned bool
	// Service registers an already mined service (Source may be nil;
	// the tenant then cannot be re-mined).
	Service *closedrules.QueryService
}

// Info is the externally visible state of one tenant.
type Info struct {
	ID        string
	Name      string
	CreatedAt time.Time
	Pinned    bool
	Resident  bool
	Bytes     int64
	Mines     uint64
	Params    Params
	Refresh   time.Duration
	LastUsed  time.Time
	// RefreshStats is the attached refresher's cycle counters, nil
	// when the tenant is not resident or has no refresher.
	RefreshStats *refresh.Stats
}

// Stats is a point-in-time snapshot of the pool gauges the serving
// layer exposes on /healthz and /metrics.
type Stats struct {
	Registered  int
	Resident    int
	Bytes       int64
	BudgetBytes int64
	MaxTenants  int
	Evictions   uint64
	Mines       uint64
	Jobs        JobStats
}

// NewPool builds a pool. Zero or negative MaxTenants, MemoryBudget or
// MineWorkers are explicit errors — the caller translates its own
// zero-means-default conventions before construction.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.MaxTenants < 1 {
		return nil, fmt.Errorf("tenant: MaxTenants %d, want ≥ 1", cfg.MaxTenants)
	}
	if cfg.MemoryBudget < 1 {
		return nil, fmt.Errorf("tenant: MemoryBudget %d bytes, want ≥ 1", cfg.MemoryBudget)
	}
	if cfg.MineWorkers < 1 {
		return nil, fmt.Errorf("tenant: MineWorkers %d, want ≥ 1", cfg.MineWorkers)
	}
	if cfg.MineTimeout < 0 {
		return nil, fmt.Errorf("tenant: negative MineTimeout %v", cfg.MineTimeout)
	}
	if cfg.JobQueue < 0 {
		return nil, fmt.Errorf("tenant: negative JobQueue %d", cfg.JobQueue)
	}
	if cfg.JobQueue == 0 {
		cfg.JobQueue = 8 * cfg.MineWorkers
	}
	p := &Pool{cfg: cfg}
	for i := range p.shards {
		p.shards[i].tenants = make(map[string]*entry)
	}
	p.ctx, p.cancel = context.WithCancel(context.Background())
	p.jobs.init(p, cfg.MineWorkers, cfg.JobQueue)
	return p, nil
}

// Close stops the job workers (queued jobs fail with ErrClosed),
// cancels in-flight mines, and stops every per-tenant refresher. Safe
// to call more than once.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.cancel()
		p.jobs.close()
		for i := range p.shards {
			sh := &p.shards[i]
			sh.mu.RLock()
			entries := make([]*entry, 0, len(sh.tenants))
			for _, t := range sh.tenants {
				entries = append(entries, t)
			}
			sh.mu.RUnlock()
			for _, t := range entries {
				t.mu.Lock()
				ref := t.refresher
				t.refresher = nil
				t.mu.Unlock()
				if ref != nil {
					ref.Stop()
				}
			}
		}
	})
}

func (p *Pool) shardOf(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &p.shards[h.Sum32()%numShards]
}

// newID generates "t-" plus 8 random hex bytes.
func newID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("tenant: crypto/rand unavailable: " + err.Error())
	}
	return prefix + hex.EncodeToString(b[:])
}

// Register adds a tenant. The Spec's Params are validated eagerly so
// a registration no mine could ever satisfy fails now, not on first
// query.
func (p *Pool) Register(spec Spec) (Info, error) {
	if err := p.ctx.Err(); err != nil {
		return Info{}, ErrClosed
	}
	id := spec.ID
	if id == "" {
		id = newID("t-")
	} else if !idPattern.MatchString(id) {
		return Info{}, ErrBadID
	}
	if spec.Source == nil && spec.Service == nil {
		return Info{}, fmt.Errorf("tenant: Spec needs a Source or a Service")
	}
	if spec.Refresh < 0 {
		return Info{}, fmt.Errorf("tenant: negative Refresh interval %v", spec.Refresh)
	}
	if spec.Refresh > 0 && spec.Source == nil {
		return Info{}, fmt.Errorf("tenant: Refresh needs a Source")
	}
	params := spec.Params.withDefaults()
	if err := params.Validate(); err != nil {
		return Info{}, err
	}
	name := spec.Name
	if name == "" {
		name = id
	}
	t := &entry{
		id:        id,
		name:      name,
		createdAt: time.Now(),
		pinned:    spec.Pinned,
		src:       spec.Source,
		refresh:   spec.Refresh,
		params:    params,
	}
	t.lastUsed.Store(time.Now().UnixNano())
	// The accounting below reads these locals, never the entry: once
	// the entry is published, a concurrent Delete, materialization or
	// job may rewrite its svc and bytes under t.mu. Reading the entry
	// there would race them and could count a service that some other
	// path already counted (or already released).
	var bytes int64
	if spec.Service != nil {
		bytes = spec.Service.MemoryEstimate()
		t.svc = spec.Service
		t.bytes = bytes
	}

	sh := p.shardOf(id)
	sh.mu.Lock()
	if _, dup := sh.tenants[id]; dup {
		sh.mu.Unlock()
		return Info{}, ErrExists
	}
	// The registered count is checked under this shard's lock; two
	// concurrent registrations through different shards can overshoot
	// MaxTenants by at most numShards-1, which is an acceptable bound
	// for an admission knob (the alternative is a global lock on every
	// registration).
	if int(p.registered.Load()) >= p.cfg.MaxTenants {
		sh.mu.Unlock()
		return Info{}, ErrPoolFull
	}
	sh.tenants[id] = t
	p.registered.Add(1)
	sh.mu.Unlock()
	if spec.Service != nil {
		p.resident.Add(1)
		p.bytes.Add(bytes)
		p.enforceBudget(t)
	}
	return p.infoOf(t), nil
}

// get resolves a tenant by ID.
func (p *Pool) get(id string) (*entry, error) {
	sh := p.shardOf(id)
	sh.mu.RLock()
	t, ok := sh.tenants[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return t, nil
}

// Has reports whether a tenant with this ID is registered. One shard
// read-lock — cheap enough for per-request metric-label decisions.
func (p *Pool) Has(id string) bool {
	_, err := p.get(id)
	return err == nil
}

// Get returns one tenant's Info.
func (p *Pool) Get(id string) (Info, error) {
	t, err := p.get(id)
	if err != nil {
		return Info{}, err
	}
	return p.infoOf(t), nil
}

// List returns every registered tenant, sorted by ID.
func (p *Pool) List() []Info {
	var out []Info
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for _, t := range sh.tenants {
			out = append(out, p.infoOf(t))
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (p *Pool) infoOf(t *entry) Info {
	t.mu.Lock()
	defer t.mu.Unlock()
	info := Info{
		ID:        t.id,
		Name:      t.name,
		CreatedAt: t.createdAt,
		Pinned:    t.pinned,
		Resident:  t.svc != nil,
		Bytes:     t.bytes,
		Mines:     t.mines,
		Params:    t.params,
		Refresh:   t.refresh,
		LastUsed:  time.Unix(0, t.lastUsed.Load()),
	}
	if t.refresher != nil {
		st := t.refresher.Stats()
		info.RefreshStats = &st
	}
	return info
}

// Delete unregisters a tenant: its resident service (if any) is
// released, its refresher stopped, and subsequent lookups return
// ErrNotFound. Queries already holding the service finish against it.
// Pinned tenants cannot be deleted.
func (p *Pool) Delete(id string) error {
	sh := p.shardOf(id)
	sh.mu.Lock()
	t, ok := sh.tenants[id]
	if !ok {
		sh.mu.Unlock()
		return ErrNotFound
	}
	if t.pinned {
		sh.mu.Unlock()
		return ErrPinned
	}
	delete(sh.tenants, id)
	p.registered.Add(-1)
	sh.mu.Unlock()

	t.mu.Lock()
	t.deleted = true
	ref := t.refresher
	t.refresher = nil
	wasResident := t.svc != nil
	freed := t.bytes
	t.svc = nil
	t.bytes = 0
	t.mu.Unlock()
	if wasResident {
		p.resident.Add(-1)
		p.bytes.Add(-freed)
	}
	if ref != nil {
		ref.Stop()
	}
	return nil
}

// Service returns the tenant's QueryService, materializing it first
// when it is not resident (evicted, or never yet queried). Concurrent
// callers against a non-resident tenant share one mine — single
// flight — and a caller whose ctx expires while the shared mine runs
// gets its ctx error while the mine completes for the others.
func (p *Pool) Service(ctx context.Context, id string) (*closedrules.QueryService, error) {
	t, err := p.get(id)
	if err != nil {
		return nil, err
	}
	return p.materialize(ctx, t)
}

// materialize returns the resident service or mines one, single
// flight. The mine itself runs under the pool's lifecycle context and
// MineTimeout — not the caller's ctx — so one impatient caller cannot
// poison the flight every waiter shares.
func (p *Pool) materialize(ctx context.Context, t *entry) (*closedrules.QueryService, error) {
	t.lastUsed.Store(time.Now().UnixNano())
	t.mu.Lock()
	if t.deleted {
		t.mu.Unlock()
		return nil, ErrNotFound
	}
	if t.svc != nil {
		svc := t.svc
		t.mu.Unlock()
		return svc, nil
	}
	if c := t.mat; c != nil {
		t.mu.Unlock()
		return awaitFlight(ctx, c)
	}
	if t.src == nil {
		t.mu.Unlock()
		return nil, ErrNoSource
	}
	c := &flight{done: make(chan struct{})}
	t.mat = c
	params := t.params
	t.mu.Unlock()

	go func() {
		svc, bytes, err := p.mine(params, t.src)
		t.mu.Lock()
		t.mat = nil
		if err == nil {
			if t.deleted {
				svc, err = nil, ErrNotFound
			} else {
				p.installLocked(t, svc, bytes, params)
			}
		}
		c.svc, c.err = svc, err
		t.mu.Unlock()
		// Enforce the budget before waking the waiters, so a caller
		// handed the service sees the pool back within its budget.
		if err == nil {
			p.enforceBudget(t)
		}
		close(c.done)
	}()
	return awaitFlight(ctx, c)
}

// awaitFlight blocks on a shared materialization until it lands or
// the caller's ctx expires.
func awaitFlight(ctx context.Context, c *flight) (*closedrules.QueryService, error) {
	select {
	case <-c.done:
		return c.svc, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// mine is one load→mine→build pass for a tenant, under the pool
// lifecycle context and MineTimeout. It never runs under a lock.
func (p *Pool) mine(params Params, src Source) (*closedrules.QueryService, int64, error) {
	ctx := p.ctx
	if p.cfg.MineTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.MineTimeout)
		defer cancel()
	}
	d, err := src.Load(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("tenant: load: %w", err)
	}
	res, err := closedrules.MineContext(ctx, d, params.mineOptions()...)
	if err != nil {
		return nil, 0, fmt.Errorf("tenant: mine: %w", err)
	}
	svc, err := closedrules.NewQueryServiceWithBases(res, params.MinConfidence, closedrules.BasisSelection{
		Exact:       params.ExactBasis,
		Approximate: params.ApproxBasis,
	})
	if err != nil {
		return nil, 0, fmt.Errorf("tenant: build service: %w", err)
	}
	// Commit the fingerprint so an attached refresher's first poll
	// compares against what is being served, not against nothing.
	if c, ok := src.(refresh.Committer); ok {
		c.Commit()
	}
	p.mines.Add(1)
	return svc, svc.MemoryEstimate(), nil
}

// installLocked publishes a freshly mined service into the entry
// (t.mu must be held): pool gauges move by the delta, the entry's
// params track what actually mined it, and the refresher — bound to
// the replaced service — is restarted against the new one.
func (p *Pool) installLocked(t *entry, svc *closedrules.QueryService, bytes int64, params Params) {
	if t.svc == nil {
		p.resident.Add(1)
	} else {
		p.bytes.Add(-t.bytes)
	}
	t.svc = svc
	t.bytes = bytes
	t.params = params
	t.mines++
	p.bytes.Add(bytes)
	oldRef := t.refresher
	t.refresher = nil
	if oldRef != nil {
		// Stop blocks on an in-flight cycle; do it off the entry lock.
		go oldRef.Stop()
	}
	p.startRefresherLocked(t, svc, params)
}

// startRefresherLocked attaches a background refresher to a newly
// materialized service when the tenant asked for one (t.mu held).
// Start only spawns the poll goroutine, so holding the lock is safe.
func (p *Pool) startRefresherLocked(t *entry, svc *closedrules.QueryService, params Params) {
	if t.refresh <= 0 || t.src == nil {
		return
	}
	// A mine that finishes just before Close cancels p.ctx can install
	// after Close's refresher-stop sweep already passed this entry,
	// which would leak a running refresher past pool shutdown. The
	// check is ordered by t.mu: if the cancel has not happened by now,
	// the sweep is still ahead of us and will stop whatever starts here
	// once we release the lock.
	if p.ctx.Err() != nil {
		return
	}
	src, ok := t.src.(refresh.Source)
	if !ok {
		return
	}
	ref, err := refresh.New(svc, refresh.Config{
		Source:      src,
		Interval:    t.refresh,
		MineTimeout: p.cfg.MineTimeout,
		MineOptions: params.mineOptions(),
	})
	if err != nil {
		return // params were validated; unreachable in practice
	}
	if ref.Start() == nil {
		t.refresher = ref
	}
}

// enforceBudget evicts least-recently-used resident tenants until the
// pool fits its memory budget again. keep (the tenant just touched)
// and pinned tenants are never evicted, so a single oversized tenant
// serves alone rather than thrashing.
func (p *Pool) enforceBudget(keep *entry) {
	p.evictMu.Lock()
	defer p.evictMu.Unlock()
	for p.bytes.Load() > p.cfg.MemoryBudget {
		victim := p.lruVictim(keep)
		if victim == nil {
			return
		}
		p.evict(victim)
	}
}

// lruVictim scans for the resident, unpinned, not-mid-flight tenant
// with the oldest last use. O(registered) per eviction, which is fine
// at the pool sizes a single process holds.
func (p *Pool) lruVictim(keep *entry) *entry {
	var victim *entry
	var oldest int64
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for _, t := range sh.tenants {
			if t == keep || t.pinned {
				continue
			}
			t.mu.Lock()
			resident := t.svc != nil && t.mat == nil && !t.deleted
			t.mu.Unlock()
			if !resident {
				continue
			}
			if used := t.lastUsed.Load(); victim == nil || used < oldest {
				victim, oldest = t, used
			}
		}
		sh.mu.RUnlock()
	}
	return victim
}

// evict drops one tenant's resident service. The registration — its
// source, params, identity — survives; the next query re-mines.
func (p *Pool) evict(t *entry) {
	t.mu.Lock()
	if t.svc == nil || t.mat != nil || t.deleted {
		t.mu.Unlock()
		return
	}
	ref := t.refresher
	t.refresher = nil
	freed := t.bytes
	t.svc = nil
	t.bytes = 0
	t.mu.Unlock()
	p.resident.Add(-1)
	p.bytes.Add(-freed)
	p.evictions.Add(1)
	if ref != nil {
		ref.Stop()
	}
}

// Stats snapshots the pool gauges.
func (p *Pool) Stats() Stats {
	return Stats{
		Registered:  int(p.registered.Load()),
		Resident:    int(p.resident.Load()),
		Bytes:       p.bytes.Load(),
		BudgetBytes: p.cfg.MemoryBudget,
		MaxTenants:  p.cfg.MaxTenants,
		Evictions:   p.evictions.Load(),
		Mines:       p.mines.Load(),
		Jobs:        p.jobs.stats(),
	}
}
