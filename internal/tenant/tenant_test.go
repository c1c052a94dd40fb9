package tenant

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"closedrules"
	"closedrules/refresh"
)

// classicTx is the paper's running example context.
var classicTx = [][]int{{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4}}

// countingSource wraps an inline dataset and counts Load calls — the
// probe for "an evicted tenant's first query re-mines exactly once".
type countingSource struct {
	d     *closedrules.Dataset
	loads atomic.Int64
	gate  chan struct{} // when non-nil, Load blocks until it closes
}

func newCountingSource(t *testing.T, tx [][]int) *countingSource {
	t.Helper()
	d, err := closedrules.NewDataset(tx)
	if err != nil {
		t.Fatal(err)
	}
	return &countingSource{d: d}
}

func (s *countingSource) Load(ctx context.Context) (*closedrules.Dataset, error) {
	s.loads.Add(1)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.d, nil
}

func newTestPool(t *testing.T, budget int64) *Pool {
	t.Helper()
	p, err := NewPool(Config{MaxTenants: 64, MemoryBudget: budget, MineWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func classicParams() Params {
	return Params{MinSupport: 0.4, MinConfidence: 0.5}
}

// supportOf queries one tenant and fails the test on any error.
func supportOf(t *testing.T, p *Pool, id string, items ...int) int {
	t.Helper()
	svc, err := p.Service(context.Background(), id)
	if err != nil {
		t.Fatalf("Service(%s): %v", id, err)
	}
	sup, _, err := svc.Support(context.Background(), closedrules.Items(items...))
	if err != nil {
		t.Fatalf("Support(%s): %v", id, err)
	}
	return sup
}

func TestNewPoolValidation(t *testing.T) {
	cases := []Config{
		{MaxTenants: 0, MemoryBudget: 1, MineWorkers: 1},
		{MaxTenants: 1, MemoryBudget: 0, MineWorkers: 1},
		{MaxTenants: 1, MemoryBudget: 1, MineWorkers: 0},
		{MaxTenants: 1, MemoryBudget: 1, MineWorkers: 1, MineTimeout: -time.Second},
		{MaxTenants: 1, MemoryBudget: 1, MineWorkers: 1, JobQueue: -1},
	}
	for i, cfg := range cases {
		if _, err := NewPool(cfg); err == nil {
			t.Errorf("case %d: NewPool(%+v) accepted an invalid config", i, cfg)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	p := newTestPool(t, 1<<30)
	src := newCountingSource(t, classicTx)
	if _, err := p.Register(Spec{ID: "bad id!", Source: src}); !errors.Is(err, ErrBadID) {
		t.Errorf("bad id: got %v, want ErrBadID", err)
	}
	if _, err := p.Register(Spec{ID: "a"}); err == nil {
		t.Error("Spec without Source or Service accepted")
	}
	if _, err := p.Register(Spec{ID: "a", Source: src, Params: Params{MinSupport: 2}}); err == nil {
		t.Error("out-of-range support accepted")
	}
	for _, algo := range []string{"no-such", "pcharm"} {
		if _, err := p.Register(Spec{ID: "a", Source: src, Params: Params{Algorithm: algo}}); err == nil {
			t.Errorf("unknown algorithm %q accepted", algo)
		}
	}
	if _, err := p.Register(Spec{ID: "a", Source: src, Refresh: -time.Second}); err == nil {
		t.Error("negative refresh accepted")
	}
	// Names resolve through the registry, in every spelling
	// WithAlgorithm accepts; the generator-coupled miner included.
	for _, algo := range []string{"genclose", "a-close", "CHARM"} {
		params := classicParams()
		params.Algorithm = algo
		if _, err := p.Register(Spec{ID: "algo-" + algo, Source: newCountingSource(t, classicTx), Params: params}); err != nil {
			t.Errorf("algorithm %q rejected: %v", algo, err)
		}
	}
	if _, err := p.Register(Spec{ID: "a", Source: src, Params: classicParams()}); err != nil {
		t.Fatalf("valid registration rejected: %v", err)
	}
	if _, err := p.Register(Spec{ID: "a", Source: src, Params: classicParams()}); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate id: got %v, want ErrExists", err)
	}
}

func TestSingleFlightMaterialization(t *testing.T) {
	p := newTestPool(t, 1<<30)
	src := newCountingSource(t, classicTx)
	if _, err := p.Register(Spec{ID: "a", Source: src, Params: classicParams()}); err != nil {
		t.Fatal(err)
	}
	const callers = 32
	var wg sync.WaitGroup
	svcs := make([]*closedrules.QueryService, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			svc, err := p.Service(context.Background(), "a")
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			svcs[i] = svc
		}(i)
	}
	wg.Wait()
	if got := src.loads.Load(); got != 1 {
		t.Errorf("loads = %d, want 1 (single flight)", got)
	}
	for i := 1; i < callers; i++ {
		if svcs[i] != svcs[0] {
			t.Fatalf("caller %d got a different service instance", i)
		}
	}
}

// TestEvictionRematerializes pins the acceptance criterion: under a
// budget too small for two tenants, querying them alternately evicts
// the colder one, and the evicted tenant's next query re-mines
// exactly once and answers correctly.
func TestEvictionRematerializes(t *testing.T) {
	p := newTestPool(t, 1) // any materialized tenant overflows the budget
	srcA := newCountingSource(t, classicTx)
	srcB := newCountingSource(t, [][]int{{0, 1}, {0, 1}, {2}})
	if _, err := p.Register(Spec{ID: "a", Source: srcA, Params: classicParams()}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(Spec{ID: "b", Source: srcB, Params: Params{MinSupport: 0.5, MinConfidence: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if got := supportOf(t, p, "a", 1, 4); got != 4 {
		t.Errorf("supp(BE) via a = %d, want 4", got)
	}
	// The just-touched tenant survives its own over-budget
	// materialization (nothing else to evict).
	if st := p.Stats(); st.Resident != 1 {
		t.Fatalf("resident = %d, want 1", st.Resident)
	}
	if got := supportOf(t, p, "b", 0, 1); got != 2 {
		t.Errorf("supp({0,1}) via b = %d, want 2", got)
	}
	st := p.Stats()
	if st.Resident != 1 {
		t.Fatalf("after querying b: resident = %d, want 1 (a evicted)", st.Resident)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// Re-query the evicted tenant: transparent, correct, one re-mine.
	if got := supportOf(t, p, "a", 1, 4); got != 4 {
		t.Errorf("supp(BE) after rematerialization = %d, want 4", got)
	}
	if got := srcA.loads.Load(); got != 2 {
		t.Errorf("srcA loads = %d, want 2 (initial + one re-mine)", got)
	}
}

func TestDeleteReleasesEverything(t *testing.T) {
	p := newTestPool(t, 1<<30)
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("t%d", i)
		if _, err := p.Register(Spec{ID: id, Source: newCountingSource(t, classicTx), Params: classicParams()}); err != nil {
			t.Fatal(err)
		}
		supportOf(t, p, id, 2)
	}
	if st := p.Stats(); st.Resident != 4 || st.Bytes == 0 {
		t.Fatalf("resident = %d bytes = %d, want 4 residents with bytes > 0", st.Resident, st.Bytes)
	}
	for i := 0; i < 4; i++ {
		if err := p.Delete(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Registered != 0 || st.Resident != 0 || st.Bytes != 0 {
		t.Errorf("after deletes: registered=%d resident=%d bytes=%d, want all zero", st.Registered, st.Resident, st.Bytes)
	}
	if _, err := p.Service(context.Background(), "t0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("query after delete: got %v, want ErrNotFound", err)
	}
	if err := p.Delete("t0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: got %v, want ErrNotFound", err)
	}
}

func TestPinnedTenant(t *testing.T) {
	p := newTestPool(t, 1)
	res, err := closedrules.MineContext(context.Background(), mustDataset(t, classicTx), closedrules.WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := closedrules.NewQueryService(res, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(Spec{ID: "default", Pinned: true, Service: qs}); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete("default"); !errors.Is(err, ErrPinned) {
		t.Errorf("delete pinned: got %v, want ErrPinned", err)
	}
	// A pinned, pre-materialized tenant has no source to re-mine from.
	if _, err := p.Enqueue("default", Params{}); !errors.Is(err, ErrNoSource) {
		t.Errorf("mine pinned: got %v, want ErrNoSource", err)
	}
	// Materialize another tenant over the 1-byte budget: the pinned
	// tenant must never be the victim.
	if _, err := p.Register(Spec{ID: "b", Source: newCountingSource(t, classicTx), Params: classicParams()}); err != nil {
		t.Fatal(err)
	}
	supportOf(t, p, "b", 2)
	if svc, err := p.Service(context.Background(), "default"); err != nil || svc != qs {
		t.Errorf("pinned tenant displaced: svc=%p err=%v", svc, err)
	}
}

// TestNoRefresherStartAfterClose pins the shutdown race fix: a mine
// that lands after Close cancelled the pool context must not start a
// refresher — Close's stop sweep has already passed the entry, so the
// refresher would run forever with nothing left to Stop it.
func TestNoRefresherStartAfterClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.dat")
	if err := os.WriteFile(path, []byte("0 2 3\n1 2 4\n0 1 2 4\n1 4\n0 1 2 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := newTestPool(t, 1<<30)
	if _, err := p.Register(Spec{ID: "r", Source: refresh.NewFileSource(path), Params: classicParams(), Refresh: time.Hour}); err != nil {
		t.Fatal(err)
	}
	svc, err := p.Service(context.Background(), "r")
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.get("r")
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	if e.refresher == nil {
		e.mu.Unlock()
		t.Fatal("materialization did not attach a refresher")
	}
	e.mu.Unlock()
	p.Close()
	// Replay the racing install: the mine finished before the cancel
	// but publishes after the sweep.
	e.mu.Lock()
	p.installLocked(e, svc, 1, e.params)
	started := e.refresher != nil
	e.mu.Unlock()
	if started {
		t.Error("installLocked started a refresher after Close")
	}
}

func mustDataset(t *testing.T, tx [][]int) *closedrules.Dataset {
	t.Helper()
	d, err := closedrules.NewDataset(tx)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMineJobLifecycle(t *testing.T) {
	p := newTestPool(t, 1<<30)
	src := newCountingSource(t, classicTx)
	if _, err := p.Register(Spec{ID: "a", Source: src, Params: classicParams()}); err != nil {
		t.Fatal(err)
	}
	job, err := p.Enqueue("a", Params{MinSupport: 0.2, MinConfidence: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobQueued || job.Tenant != "a" || job.ID == "" {
		t.Fatalf("enqueue returned %+v", job)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := p.Job(job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == JobDone {
			if got.Error != "" || got.FinishedAt.IsZero() {
				t.Fatalf("done job: %+v", got)
			}
			break
		}
		if got.State == JobFailed {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The job's params became the tenant's served configuration.
	info, err := p.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Params.MinSupport != 0.2 || info.Params.MinConfidence != 0.3 {
		t.Errorf("params after job = %+v", info.Params)
	}
	svc, err := p.Service(context.Background(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.MinConfidence(); got != 0.3 {
		t.Errorf("served minconf = %v, want 0.3", got)
	}
	if _, err := p.Job("j-nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job: got %v, want ErrNotFound", err)
	}
}

// TestJobFairness holds the only worker busy with a gated mine and
// checks the same tenant cannot take a second slot while another
// tenant still can.
func TestJobFairness(t *testing.T) {
	p, err := NewPool(Config{MaxTenants: 8, MemoryBudget: 1 << 30, MineWorkers: 1, JobQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	gated := newCountingSource(t, classicTx)
	gated.gate = make(chan struct{})
	if _, err := p.Register(Spec{ID: "a", Source: gated, Params: classicParams()}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register(Spec{ID: "b", Source: newCountingSource(t, classicTx), Params: classicParams()}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Enqueue("a", Params{}); err != nil {
		t.Fatal(err)
	}
	// fairCap = (1+1)/2 = 1: tenant a holds its slot until the gate
	// opens; a second job for a must bounce, one for b must not.
	if _, err := p.Enqueue("a", Params{}); !errors.Is(err, ErrTenantBusy) {
		t.Errorf("second job for a: got %v, want ErrTenantBusy", err)
	}
	jb, err := p.Enqueue("b", Params{})
	if err != nil {
		t.Fatalf("job for b: %v", err)
	}
	close(gated.gate)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := p.Job(jb.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State == JobDone {
			break
		}
		if got.State == JobFailed {
			t.Fatalf("b's job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("b's job stuck in %s", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolHammer is the -race stress test: concurrent register, query,
// job, and delete traffic against a pool with a budget so tight every
// materialization evicts someone. No query may fail with anything but
// ErrNotFound (its tenant was concurrently deleted), and after the
// storm the gauges must return to exactly zero.
func TestPoolHammer(t *testing.T) {
	p, err := NewPool(Config{MaxTenants: 64, MemoryBudget: 1, MineWorkers: 2, MineTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	const tenants = 6
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("h%d", i)
		if _, err := p.Register(Spec{ID: ids[i], Source: newCountingSource(t, classicTx), Params: classicParams()}); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var queries, notFound atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(tenants)]
				switch rng.Intn(10) {
				case 0: // churn: delete and re-register
					if err := p.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("delete %s: %v", id, err)
						return
					}
					_, err := p.Register(Spec{ID: id, Source: newCountingSource(t, classicTx), Params: classicParams()})
					if err != nil && !errors.Is(err, ErrExists) && !errors.Is(err, ErrPoolFull) {
						t.Errorf("re-register %s: %v", id, err)
						return
					}
				case 1: // async re-mine
					_, err := p.Enqueue(id, Params{})
					if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrTenantBusy) && !errors.Is(err, ErrQueueFull) {
						t.Errorf("enqueue %s: %v", id, err)
						return
					}
				default: // query
					queries.Add(1)
					svc, err := p.Service(context.Background(), id)
					if errors.Is(err, ErrNotFound) {
						notFound.Add(1)
						continue
					}
					if err != nil {
						t.Errorf("service %s: %v", id, err)
						return
					}
					if _, _, err := svc.Support(context.Background(), closedrules.Items(2)); err != nil {
						t.Errorf("support %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if queries.Load() == 0 {
		t.Fatal("hammer made no queries")
	}
	t.Logf("hammer: %d queries (%d hit deleted tenants), %d evictions, %d mines",
		queries.Load(), notFound.Load(), p.Stats().Evictions, p.Stats().Mines)

	// Quiesce: delete everything and require the gauges at zero.
	for _, id := range ids {
		if err := p.Delete(id); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("final delete %s: %v", id, err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.Stats()
		if st.Registered == 0 && st.Resident == 0 && st.Bytes == 0 && st.Jobs.Running == 0 && st.Jobs.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges did not return to zero: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGeneratorBasisTenantMinesGenClose: a tenant serving a generator
// basis with no Algorithm mines genclose in its one pass, so the
// served result carries the generators; one without keeps the default.
func TestGeneratorBasisTenantMinesGenClose(t *testing.T) {
	p := newTestPool(t, 1<<30)
	gen := classicParams()
	gen.ExactBasis = "generic"
	for id, tc := range map[string]struct {
		params Params
		want   string
	}{
		"gen":   {gen, "genclose"},
		"plain": {classicParams(), "charm"},
	} {
		if _, err := p.Register(Spec{ID: id, Source: newCountingSource(t, classicTx), Params: tc.params}); err != nil {
			t.Fatal(err)
		}
		svc, err := p.Service(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if res := svc.ServedResult(); res.MinerName() != tc.want {
			t.Errorf("%s: mined by %q, want %q", id, res.MinerName(), tc.want)
		}
	}
}
