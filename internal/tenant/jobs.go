package tenant

import (
	"sync"
	"time"
)

// JobState is the lifecycle of one async mine job.
type JobState string

// Job lifecycle states, in order; Done and Failed are terminal.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobInfo is the externally visible record of one mine job.
type JobInfo struct {
	ID         string
	Tenant     string
	State      JobState
	Error      string
	Params     Params
	EnqueuedAt time.Time
	StartedAt  time.Time
	FinishedAt time.Time
	// MineMillis is the wall time of the mine itself (running→finished).
	MineMillis int64
}

// JobStats are the job gauges exposed on /healthz and /metrics.
type JobStats struct {
	Queued  int
	Running int
	Done    uint64
	Failed  uint64
}

// job is the internal record; mu guards the mutable lifecycle fields.
type job struct {
	id     string
	tenant string
	params Params

	mu         sync.Mutex
	state      JobState
	err        string
	enqueuedAt time.Time
	startedAt  time.Time
	finishedAt time.Time
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:         j.id,
		Tenant:     j.tenant,
		State:      j.state,
		Error:      j.err,
		Params:     j.params,
		EnqueuedAt: j.enqueuedAt,
		StartedAt:  j.startedAt,
		FinishedAt: j.finishedAt,
	}
	if !j.startedAt.IsZero() && !j.finishedAt.IsZero() {
		info.MineMillis = j.finishedAt.Sub(j.startedAt).Milliseconds()
	}
	return info
}

// jobManager runs mine jobs on a bounded worker pool with per-tenant
// fairness: one tenant can hold at most half the workers (rounded up),
// so a burst of jobs against one dataset cannot starve every other
// tenant's queue slot.
type jobManager struct {
	pool    *Pool
	queue   chan *job
	wg      sync.WaitGroup
	fairCap int

	mu       sync.Mutex
	byID     map[string]*job
	order    []string // insertion order, for pruning finished records
	active   map[string]int
	queued   int
	running  int
	done     uint64
	failed   uint64
	closed   bool
	sequence uint64
}

// maxJobRecords bounds retained finished-job records; the oldest
// finished records are pruned past it so a long-lived pool cannot
// accumulate unbounded job history.
const maxJobRecords = 1024

func (m *jobManager) init(p *Pool, workers, queue int) {
	m.pool = p
	m.queue = make(chan *job, queue)
	m.fairCap = (workers + 1) / 2
	m.byID = make(map[string]*job)
	m.active = make(map[string]int)
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
}

// close drains the queue, failing every still-queued job, and waits
// for the workers (in-flight mines are cancelled via the pool ctx,
// which the caller cancels first).
func (m *jobManager) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.queue)
	m.wg.Wait()
	// Workers exited; anything left in byID still queued was never
	// picked up (the channel close raced the producer side shut).
	m.mu.Lock()
	for _, j := range m.byID {
		j.mu.Lock()
		if j.state == JobQueued {
			j.state = JobFailed
			j.err = ErrClosed.Error()
			j.finishedAt = time.Now()
			m.queued--
			m.failed++
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
}

// enqueue admits a mine job for the tenant: per-tenant fairness first,
// then queue capacity. The returned JobInfo is in state queued.
func (m *jobManager) enqueue(t *entry, params Params) (JobInfo, error) {
	if t.src == nil {
		return JobInfo{}, ErrNoSource
	}
	j := &job{
		id:         newID("j-"),
		tenant:     t.id,
		params:     params,
		state:      JobQueued,
		enqueuedAt: time.Now(),
	}
	// Snapshot before the hand-off: once queued, a worker may run the
	// job to completion before this call returns, and the caller is
	// owed the job as enqueued.
	info := j.info()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return JobInfo{}, ErrClosed
	}
	if m.active[t.id] >= m.fairCap {
		m.mu.Unlock()
		return JobInfo{}, ErrTenantBusy
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		return JobInfo{}, ErrQueueFull
	}
	m.active[t.id]++
	m.queued++
	m.byID[j.id] = j
	m.order = append(m.order, j.id)
	m.pruneLocked()
	m.mu.Unlock()
	return info, nil
}

// pruneLocked drops the oldest finished job records past
// maxJobRecords (m.mu held).
func (m *jobManager) pruneLocked() {
	if len(m.byID) <= maxJobRecords {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.byID[id]
		if j == nil {
			continue
		}
		j.mu.Lock()
		finished := j.state == JobDone || j.state == JobFailed
		j.mu.Unlock()
		if finished && len(m.byID) > maxJobRecords {
			delete(m.byID, id)
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// worker runs queued jobs until the queue closes.
func (m *jobManager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.run(j)
	}
}

// run executes one job: mine the tenant's source with the job's
// params and, on success, install the result as the tenant's served
// snapshot (hot swap — in-flight queries keep the old one).
func (m *jobManager) run(j *job) {
	j.mu.Lock()
	j.state = JobRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
	m.mu.Lock()
	m.queued--
	m.running++
	m.mu.Unlock()

	err := m.execute(j)

	j.mu.Lock()
	j.finishedAt = time.Now()
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
	} else {
		j.state = JobDone
	}
	j.mu.Unlock()
	m.mu.Lock()
	m.running--
	if err != nil {
		m.failed++
	} else {
		m.done++
	}
	if m.active[j.tenant]--; m.active[j.tenant] <= 0 {
		delete(m.active, j.tenant)
	}
	m.mu.Unlock()
}

// execute performs the mine and installs the result.
func (m *jobManager) execute(j *job) error {
	t, err := m.pool.get(j.tenant)
	if err != nil {
		return err // deleted while queued
	}
	svc, bytes, err := m.pool.mine(j.params, t.src)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.deleted {
		t.mu.Unlock()
		return ErrNotFound
	}
	m.pool.installLocked(t, svc, bytes, j.params)
	t.mu.Unlock()
	t.lastUsed.Store(time.Now().UnixNano())
	m.pool.enforceBudget(t)
	return nil
}

func (m *jobManager) job(id string) (JobInfo, error) {
	m.mu.Lock()
	j, ok := m.byID[id]
	m.mu.Unlock()
	if !ok {
		return JobInfo{}, ErrNotFound
	}
	return j.info(), nil
}

func (m *jobManager) stats() JobStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return JobStats{Queued: m.queued, Running: m.running, Done: m.done, Failed: m.failed}
}

// Enqueue schedules an async re-mine of tenant id with the given
// params (zero fields default; validated here so the job cannot fail
// on malformed input after the 202 has been returned).
func (p *Pool) Enqueue(id string, params Params) (JobInfo, error) {
	t, err := p.get(id)
	if err != nil {
		return JobInfo{}, err
	}
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return JobInfo{}, err
	}
	return p.jobs.enqueue(t, params)
}

// Job reports one mine job's state.
func (p *Pool) Job(id string) (JobInfo, error) { return p.jobs.job(id) }
