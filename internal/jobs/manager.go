// Package jobs is the asynchronous job subsystem between the graphrealize
// Runner and the HTTP service: fire-and-poll realizations for workloads that
// outlive any one connection (large n, NCC0 connectivity's O~(Δ) rounds,
// multi-seed families).
//
// A Manager wraps Runner.SubmitCtx with server-generated job IDs, a
// lifecycle state machine (queued → running → done | failed | canceled →
// expired), round-level progress snapshots fed by the engine's per-barrier
// hook (ncc.Config.Progress, threaded through Options.Progress), coalescing
// subscriber fan-out for event streams, bounded retention with two-phase
// TTL garbage collection, and graceful drain on shutdown. Jobs run under a
// manager-owned context, so they survive the submitting connection closing
// and stop only via Cancel or drain — in both cases the engine unwinds at
// its next round barrier (ncc.ErrCanceled) and the job lands in
// StateCanceled.
//
// With a durable Store configured (FileStore), every lifecycle event is
// shadowed to disk: completed jobs survive a crash with their results, and
// jobs that were queued or running at crash time are re-queued on Open with
// their recorded seeds, so the recovered runs realize bit-identical graphs.
// Result graphs rest in the graphwire binary encoding (internal/wire,
// WIRE.md §10); legacy stores whose records carry JSON edge lists are still
// read and are rewritten in the wire form by the first compaction.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphrealize"
)

// Errors returned by the Manager's entry points.
var (
	// ErrNotFound reports an unknown (or already garbage-collected) job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrShuttingDown reports a submission during drain.
	ErrShuttingDown = errors.New("jobs: manager is shutting down")
	// ErrTooManyJobs reports that the retention cap is full of live jobs —
	// backpressure, like the Runner's ErrQueueFull.
	ErrTooManyJobs = errors.New("jobs: retained job limit reached")
	// ErrReassigned marks an in-flight job found at recovery that this
	// process no longer owns (Config.Owns said no): in a cluster the
	// coordinator re-homed it to another worker while this one was down, so
	// re-running it here would execute the job twice (CLUSTER.md §6.4). The
	// job is retained as failed — visible, never silently dropped — and the
	// authoritative result lives with the coordinator.
	ErrReassigned = errors.New("jobs: job reassigned during recovery (not re-run here)")
)

// Backend is the slice of the graphrealize.Runner API the Manager needs; an
// interface so tests can script admission and execution deterministically.
type Backend interface {
	SubmitCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error)
	// SubmitReplayCtx re-admits a job recovered from the durable store,
	// exempt from the admission bound: the job was admitted before the
	// crash, so a colder post-restart queue must not refuse it.
	SubmitReplayCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error)
	Stats() graphrealize.RunnerStats
}

// Config assembles a Manager.
type Config struct {
	// Backend executes jobs; typically a *graphrealize.Runner.
	Backend Backend
	// Retention is how long a terminal job stays fully queryable before the
	// GC marks it expired (default 5 minutes). Expired jobs are removed one
	// GC interval later.
	Retention time.Duration
	// GCInterval is the sweep period (default Retention/4, capped at 30s).
	GCInterval time.Duration
	// MaxJobs caps retained records. At the cap a submission first evicts
	// the oldest finished job; if every retained job is live it is refused
	// with ErrTooManyJobs. Default 4096.
	MaxJobs int
	// JobTimeout overrides the backend Runner's per-job deadline for async
	// jobs: positive caps each job at the given duration, negative disables
	// the deadline, zero keeps the Runner's own default. Async jobs exist
	// for runs too long for a held-open connection, so they usually want a
	// far larger deadline than the synchronous API.
	JobTimeout time.Duration
	// Store shadows the lifecycle to durable storage for crash recovery;
	// nil selects MemStore (nothing survives a restart — the historical
	// behaviour).
	Store Store
	// CompactBytes is the WAL size that triggers a snapshot compaction
	// outside of GC (default 4 MiB). Ignored by non-durable stores.
	CompactBytes int64
	// Owns, when non-nil, gates recovery of in-flight jobs: Open re-queues
	// a queued-or-running job only if Owns accepts it, and records the rest
	// as failed with ErrReassigned. Cluster workers set it to reject
	// everything (the coordinator owns routing and already failed their
	// in-flight work over to a live worker, CLUSTER.md §6.4); single nodes
	// and coordinators leave it nil, which re-queues everything — the
	// pre-cluster behaviour. Terminal jobs always reload regardless: a
	// finished result is correct wherever it is read.
	Owns func(j graphrealize.Job) bool
}

// Manager owns the asynchronous job lifecycle. Create with Open (or New),
// submit with Submit, and call Close exactly once on shutdown.
type Manager struct {
	cfg     Config
	ledger  *ledger
	persist Store

	// baseCtx parents every job's context: jobs are deliberately detached
	// from request contexts so they survive client disconnects. kill cancels
	// it when the drain budget runs out.
	baseCtx context.Context
	kill    context.CancelFunc

	seq                 atomic.Int64
	subscribers         atomic.Int64
	evictions           atomic.Int64
	persistErrors       atomic.Int64
	recoveredTerminal   atomic.Int64
	recoveredRequeued   atomic.Int64
	recoveredReassigned atomic.Int64

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // one unit per job between submit and finish

	// persistMu orders Store appends against compaction. Every
	// "mutate the ledger + append the matching WAL record" pair runs under
	// the read lock; compact takes the write lock around "read the ledger,
	// snapshot, truncate the WAL". This makes the pair atomic with respect
	// to the snapshot cut: an appended record is either visible in the
	// ledger the snapshot is built from, or it lands in the fresh segment —
	// never truncated away while the snapshot still shows the older state.
	persistMu sync.RWMutex

	gcStop chan struct{}
	gcDone chan struct{}
}

// New creates a Manager and starts its GC loop. It is Open for
// configurations that cannot fail — with a non-durable (nil) Store,
// recovery has nothing to read, so the error path is unreachable.
func New(cfg Config) *Manager {
	m, err := Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("jobs: New: %v", err))
	}
	return m
}

// Open creates a Manager, recovers any jobs surviving in cfg.Store, and
// starts the GC loop. Terminal jobs are reloaded with their persisted
// results; jobs that were queued or running at crash time are re-queued
// through the Backend's replay path with their recorded seeds, so recovered
// runs are deterministic. Both carry Snapshot.Recovered.
func Open(cfg Config) (*Manager, error) {
	if cfg.Backend == nil {
		panic("jobs: Config.Backend is required")
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 5 * time.Minute
	}
	if cfg.GCInterval <= 0 {
		cfg.GCInterval = cfg.Retention / 4
		if cfg.GCInterval > 30*time.Second {
			cfg.GCInterval = 30 * time.Second
		}
		if cfg.GCInterval <= 0 {
			// A sub-4ns Retention (tests) must not panic the GC ticker.
			cfg.GCInterval = time.Millisecond
		}
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.Store == nil {
		cfg.Store = MemStore{}
	}
	if cfg.CompactBytes <= 0 {
		cfg.CompactBytes = 4 << 20
	}
	ctx, kill := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		ledger:  newLedger(),
		persist: cfg.Store,
		baseCtx: ctx,
		kill:    kill,
		gcStop:  make(chan struct{}),
		gcDone:  make(chan struct{}),
	}
	recovered, err := m.persist.Recover()
	if err != nil {
		kill()
		return nil, err
	}
	var maxSeq int64
	for i := range recovered {
		pj := &recovered[i]
		if n := idSeq(pj.ID); n > maxSeq {
			maxSeq = n
		}
		if pj.State.Terminal() {
			m.reloadTerminal(pj)
		} else {
			m.requeue(pj)
		}
	}
	m.seq.Store(maxSeq)
	// Fold the pre-crash log into a fresh snapshot so the next restart
	// replays from a clean baseline. WALBytes covers a segment that
	// recovered nothing but still holds records (or a corrupt region that
	// must not stay ahead of future fsynced appends).
	if st := m.persist.Stats(); len(recovered) > 0 || st.WALBytes > 0 || st.ReplayErrors > 0 {
		m.compact()
	}
	go m.gcLoop()
	return m, nil
}

// idSeq extracts the numeric sequence prefix of a job ID ("j42-9f..." → 42),
// so freshly minted IDs keep their uniqueness claim across restarts.
func idSeq(id string) int64 {
	id, _, _ = strings.Cut(id, "-")
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	var n int64
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// newID mints an unguessable server-generated job ID; the sequence prefix
// keeps IDs unique even if the random source ever repeated.
func (m *Manager) newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to the
		// sequence alone rather than minting a guessable suffix.
		return fmt.Sprintf("j%d", m.seq.Add(1))
	}
	return fmt.Sprintf("j%d-%s", m.seq.Add(1), hex.EncodeToString(b[:]))
}

// instrument returns the private copy of a job the backend actually runs:
// its Options carry the record's progress hook (chained after any
// caller-supplied hook, never overwriting it) and the manager's async
// timeout default. The hook is excluded from the Runner's cache key, so a
// cache-served job simply completes with no progress barriers.
func (m *Manager) instrument(rec *record, j graphrealize.Job) graphrealize.Job {
	run := j
	var opt graphrealize.Options
	if j.Opt != nil {
		opt = *j.Opt
	}
	if caller := opt.Progress; caller != nil {
		opt.Progress = func(round, msgs int) {
			rec.reportProgress(round, msgs)
			caller(round, msgs)
		}
	} else {
		opt.Progress = rec.reportProgress
	}
	run.Opt = &opt
	if m.cfg.JobTimeout != 0 && run.Timeout == 0 {
		run.Timeout = m.cfg.JobTimeout
	}
	return run
}

// Submit admits one job for asynchronous execution and returns its initial
// snapshot. The Runner's backpressure passes through untranslated: a
// saturated backend returns graphrealize.ErrQueueFull and nothing is
// retained. The job runs under the Manager's context, not the caller's.
func (m *Manager) Submit(j graphrealize.Job) (Snapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrShuttingDown
	}
	// Check capacity without evicting yet: eviction must not happen until
	// the backend has actually admitted the new job, or a rejected
	// submission would destroy a retained result for nothing.
	if m.ledger.len() >= m.cfg.MaxJobs && !m.ledger.hasFinished() {
		return Snapshot{}, ErrTooManyJobs
	}
	rec := &record{
		id:      m.newID(),
		job:     j,
		created: time.Now(),
		state:   StateQueued,
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	rec.cancel = cancel
	// The initial snapshot is taken before admission: once the backend has
	// the job it may already be running (or done) by the time Submit returns.
	initial := rec.snapshot()

	ch, err := m.cfg.Backend.SubmitCtx(ctx, m.instrument(rec, j))
	if err != nil {
		cancel()
		return Snapshot{}, err
	}
	// Admitted: now make room if still needed. A concurrent GC sweep may
	// have freed space (or removed the last finished record) since the check
	// above; in the latter case the cap is exceeded by one record until the
	// next sweep — a soft bound, preferable to canceling an admitted job.
	m.persistMu.RLock()
	if m.ledger.len() >= m.cfg.MaxJobs {
		if id := m.ledger.evictOldestFinished(); id != "" {
			m.evictions.Add(1)
			m.logPersist(m.persist.LogRemoved([]string{id}))
		}
	}
	m.ledger.put(rec)
	m.logPersist(m.persist.LogSubmitted(recordPersisted(rec)))
	m.persistMu.RUnlock()
	m.wg.Add(1)
	go m.watch(rec, ch)
	return initial, nil
}

// reloadTerminal rebuilds a finished job from its durable form: the result
// is served from disk, no execution happens.
func (m *Manager) reloadTerminal(pj *PersistedJob) {
	job := pj.jobSpec()
	rec := &record{
		id:        pj.ID,
		job:       job,
		created:   pj.Created,
		recovered: true,
		cancel:    func() {},
		state:     pj.State,
		started:   pj.Started,
		finished:  pj.Finished,
	}
	if pj.Error != "" {
		rec.err = errors.New(pj.Error)
	}
	res, err := pj.Result.result(job)
	if err != nil {
		// The record survived its WAL/snapshot checksum but its embedded
		// graph is unreadable (possible only through out-of-band damage).
		// Keep the job visible rather than silently dropping it, but as a
		// failure that names the loss — never as a done job with a wrong
		// graph.
		m.logPersist(err)
		rec.state = StateFailed
		rec.err = err
		res = nil
	}
	if res != nil {
		rec.result = res
		rec.ran.Store(true)
		rec.round.Store(int64(res.Stats.Rounds))
		rec.msgs.Store(res.Stats.Messages)
	}
	m.persistMu.RLock()
	m.ledger.put(rec)
	m.persistMu.RUnlock()
	m.recoveredTerminal.Add(1)
}

// requeue re-runs a job that was queued or running at crash time, through
// the Backend's admission-exempt replay path. The recorded seed travels in
// the job's Options, so the re-run realizes the identical graph the
// original would have. With Config.Owns set, jobs this process no longer
// owns are recorded as failed with ErrReassigned instead of re-run.
func (m *Manager) requeue(pj *PersistedJob) {
	job := pj.jobSpec()
	rec := &record{
		id:        pj.ID,
		job:       job,
		created:   pj.Created,
		recovered: true,
		state:     StateQueued,
	}
	if m.cfg.Owns != nil && !m.cfg.Owns(job) {
		now := time.Now()
		rec.mu.Lock()
		rec.state = StateFailed
		rec.err = ErrReassigned
		rec.finished = now
		rec.mu.Unlock()
		m.persistMu.RLock()
		m.ledger.put(rec)
		m.logPersist(m.persist.LogTerminal(recordPersisted(rec)))
		m.persistMu.RUnlock()
		m.recoveredReassigned.Add(1)
		return
	}
	ctx, cancel := context.WithCancel(m.baseCtx)
	rec.cancel = cancel
	ch, err := m.cfg.Backend.SubmitReplayCtx(ctx, m.instrument(rec, job))
	if err != nil {
		// The backend cannot take the job back (it should — replay is
		// admission-exempt — but the seam allows refusal): record the loss
		// durably instead of dropping the job on the floor.
		cancel()
		now := time.Now()
		jerr := fmt.Errorf("jobs: recovery resubmission refused: %w", err)
		rec.mu.Lock()
		rec.state = StateFailed
		rec.err = jerr
		rec.finished = now
		rec.mu.Unlock()
		m.persistMu.RLock()
		m.ledger.put(rec)
		m.logPersist(m.persist.LogTerminal(recordPersisted(rec)))
		m.persistMu.RUnlock()
		return
	}
	m.persistMu.RLock()
	m.ledger.put(rec)
	m.persistMu.RUnlock()
	m.recoveredRequeued.Add(1)
	m.wg.Add(1)
	go m.watch(rec, ch)
}

// watch waits for one job's result and records the terminal transition —
// durably first (fsync), then in memory: a terminal state a client can
// observe is never lost to a crash. The append + publish pair runs under
// persistMu so a concurrent compaction cannot truncate the terminal record
// while its snapshot still shows the job running.
func (m *Manager) watch(rec *record, ch <-chan graphrealize.Result) {
	defer m.wg.Done()
	res := <-ch
	now := time.Now()
	st, jerr := outcomeOf(res)
	m.persistMu.RLock()
	m.logPersist(m.persist.LogTerminal(persistedJob(rec, st, jerr, &res, now)))
	rec.finishAt(res, now)
	m.persistMu.RUnlock()
	m.maybeCompact()
}

// logPersist counts (but never propagates) a Store failure: the in-memory
// subsystem keeps serving, the gauge tells the operator durability is gone.
func (m *Manager) logPersist(err error) {
	if err != nil {
		m.persistErrors.Add(1)
	}
}

// recordPersisted projects a record's current state onto its durable form
// (the compaction and submission paths; the terminal path calls
// persistedJob with the outcome passed explicitly, before it is visible in
// the record).
func recordPersisted(rec *record) PersistedJob {
	rec.mu.Lock()
	st, finished, jerr, res := rec.state, rec.finished, rec.err, rec.result
	rec.mu.Unlock()
	return persistedJob(rec, st, jerr, res, finished)
}

// maybeCompact folds the WAL into a snapshot when it outgrows the
// configured bound.
func (m *Manager) maybeCompact() {
	if st := m.persist.Stats(); st.Durable && st.WALBytes >= m.cfg.CompactBytes {
		m.compact()
	}
}

// compact snapshots the current ledger into the Store and truncates the
// WAL. The write lock excludes every ledger-mutation + append pair, so the
// snapshot reflects everything the truncated segment recorded.
func (m *Manager) compact() {
	m.persistMu.Lock()
	defer m.persistMu.Unlock()
	recs := m.ledger.oldestFirst()
	live := make([]PersistedJob, 0, len(recs))
	for _, rec := range recs {
		live = append(live, recordPersisted(rec))
	}
	m.logPersist(m.persist.Compact(live))
}

// Get returns a job's snapshot.
func (m *Manager) Get(id string) (Snapshot, error) {
	rec, ok := m.ledger.get(id)
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return rec.snapshot(), nil
}

// Cancel requests cancellation of a live job: its context is canceled and
// the engine stops at the next round barrier. It reports whether the request
// actually initiated a cancellation (false: the job was already terminal —
// Cancel is idempotent and never an error on a known job).
func (m *Manager) Cancel(id string) (Snapshot, bool, error) {
	rec, ok := m.ledger.get(id)
	if !ok {
		return Snapshot{}, false, ErrNotFound
	}
	if rec.currentState().Terminal() {
		return rec.snapshot(), false, nil
	}
	rec.cancel()
	return rec.snapshot(), true, nil
}

// List returns snapshots newest-first, optionally filtered by state.
// limit ≤ 0 means no limit.
func (m *Manager) List(state State, limit int) []Snapshot {
	var out []Snapshot
	for _, rec := range m.ledger.all() {
		snap := rec.snapshot()
		if state != "" && snap.State != state {
			continue
		}
		out = append(out, snap)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// Stats is a point-in-time snapshot of the Manager's gauges and counters.
type Stats struct {
	Jobs        map[State]int // retained jobs by state (every state present)
	Retained    int           // total retained records
	Subscribers int64         // open event subscriptions
	Evictions   int64         // records removed by GC or capacity eviction

	RecoveredTerminal   int64      // terminal jobs reloaded from the store at open
	RecoveredRequeued   int64      // non-terminal jobs re-queued at open
	RecoveredReassigned int64      // in-flight jobs Config.Owns rejected at open
	PersistErrors       int64      // Store operations that failed (durability degraded)
	Store               StoreStats // the Store's own durability gauges
}

// StatsSnapshot returns the Manager's gauges for monitoring.
func (m *Manager) StatsSnapshot() Stats {
	counts := m.ledger.counts()
	return Stats{
		Jobs:                counts,
		Retained:            m.ledger.len(),
		Subscribers:         m.subscribers.Load(),
		Evictions:           m.evictions.Load(),
		RecoveredTerminal:   m.recoveredTerminal.Load(),
		RecoveredRequeued:   m.recoveredRequeued.Load(),
		RecoveredReassigned: m.recoveredReassigned.Load(),
		PersistErrors:       m.persistErrors.Load(),
		Store:               m.persist.Stats(),
	}
}

// gcLoop sweeps retention on a ticker until Close.
func (m *Manager) gcLoop() {
	defer close(m.gcDone)
	t := time.NewTicker(m.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.GC(time.Now())
		case <-m.gcStop:
			return
		}
	}
}

// GC runs one retention sweep at the given instant and returns the number of
// records removed. Terminal jobs older than Retention become expired;
// already-expired records are removed (subsequent Gets return ErrNotFound).
// A sweep that removed records also compacts the durable store, so disk
// usage tracks retention like memory does. Exported so tests and embedders
// can drive retention deterministically.
func (m *Manager) GC(now time.Time) int {
	m.persistMu.RLock()
	toExpire, removed := m.ledger.sweep(now, m.cfg.Retention)
	for _, rec := range toExpire {
		rec.expire()
		m.logPersist(m.persist.LogExpired(rec.id))
	}
	if len(removed) > 0 {
		m.logPersist(m.persist.LogRemoved(removed))
	}
	m.persistMu.RUnlock()
	if len(removed) > 0 {
		m.compact()
	}
	m.evictions.Add(int64(len(removed)))
	return len(removed)
}

// Close drains the Manager: submissions are refused, the GC stops, and
// running jobs get until ctx's deadline to finish on their own. Jobs still
// live at the deadline are canceled (the engine unwinds at its next round
// barrier, so the forced phase is short) and Close waits for them to record
// their terminal state. The durable store is compacted and closed last, so
// the snapshot on disk reflects the drained ledger. It returns ctx.Err() if
// the force phase was needed.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()

	close(m.gcStop)
	<-m.gcDone

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		m.kill()
		<-done
		err = ctx.Err()
	}
	m.compact()
	m.logPersist(m.persist.Close())
	return err
}
