package graphrealize

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runner.go is the batch and serving layer on top of the facade: a worker
// pool that runs many independent realizations concurrently with bounded
// parallelism, an LRU cache of completed results, and — for network-facing
// use — a bounded admission queue with backpressure, per-job deadlines, and
// exported counters. Each simulation steps every node on one goroutine, so
// a single run uses one core; running independent jobs side by side is what
// actually saturates the hardware, which is why sweeps (multi-seed, multi-n,
// multi-family) and HTTP traffic should go through a Runner rather than a
// serial loop.

// JobKind selects the realization a Job runs; each kind is one facade
// entry point's realization.
type JobKind int

const (
	// JobDegrees is RealizeDegrees (§4.1, Theorem 11).
	JobDegrees JobKind = iota
	// JobDegreesExplicit is RealizeDegreesExplicit (§4.2, Theorem 12).
	JobDegreesExplicit
	// JobUpperEnvelope is RealizeUpperEnvelope (§4.3, Theorem 13).
	JobUpperEnvelope
	// JobChainTree is RealizeTree (§5, Theorem 14).
	JobChainTree
	// JobMinDiamTree is RealizeMinDiameterTree (§5, Theorem 16).
	JobMinDiamTree
	// JobConnectivity is RealizeConnectivity (§6, Theorems 17/18).
	JobConnectivity
)

// String returns a stable name for the kind (used in labels and cache keys).
func (k JobKind) String() string {
	switch k {
	case JobDegrees:
		return "degrees"
	case JobDegreesExplicit:
		return "degrees-explicit"
	case JobUpperEnvelope:
		return "upper-envelope"
	case JobChainTree:
		return "chain-tree"
	case JobMinDiamTree:
		return "min-diam-tree"
	case JobConnectivity:
		return "connectivity"
	default:
		return fmt.Sprintf("JobKind(%d)", int(k))
	}
}

// Job is one independent realization request. Seq is the degree (or ρ)
// sequence; Opt follows the same nil-means-default convention as the facade
// entry points. Label is an optional caller tag carried through to the
// Result untouched.
type Job struct {
	Kind  JobKind
	Seq   []int
	Opt   *Options
	Label string
	// TraceID is an optional request-correlation ID carried through to the
	// Result untouched, like Label: it appears in job records, events, and
	// the flight recorder, but never affects execution or the cache key.
	TraceID string
	// Timeout overrides the Runner's JobTimeout for this job: positive caps
	// execution at the given duration, negative disables the per-job
	// deadline entirely, zero keeps the Runner's default. Long-regime
	// asynchronous jobs use this to outlive the synchronous deadline.
	// Timeout never affects a deterministic outcome, so it is not part of
	// the result cache key.
	Timeout time.Duration
}

// Result is the outcome of one Job. Envelope is non-nil only for
// JobUpperEnvelope. Cached reports that the result was served from the
// Runner's cache; cached Graph/Stats/Envelope values are shared between all
// requesters of the same key and must be treated as read-only.
type Result struct {
	Job      Job
	Graph    *Graph
	Envelope []int
	Stats    *Stats
	Err      error
	Cached   bool
}

// ErrQueueFull is returned by SubmitCtx (and embedded in Submit's Result)
// when a bounded Runner is saturated: all workers are busy and the waiting
// queue is at capacity. Network callers should surface it as backpressure
// (HTTP 429) rather than retrying immediately.
var ErrQueueFull = errors.New("graphrealize: runner queue is full")

// RunnerConfig tunes a serving Runner.
type RunnerConfig struct {
	// Workers bounds concurrently executing jobs (≤ 0 selects GOMAXPROCS).
	Workers int
	// Queue bounds jobs admitted but not yet executing. Negative means
	// unbounded (the batch default used by NewRunner); zero means no waiting
	// room: a job is only admitted when a worker is free.
	Queue int
	// JobTimeout, when positive, caps each job's execution time; a job that
	// exceeds it fails with context.DeadlineExceeded.
	JobTimeout time.Duration
	// CacheSize overrides the result-cache capacity (0 = DefaultCacheSize).
	CacheSize int
}

// Runner executes Jobs on a bounded worker pool with an LRU result cache.
// A Runner is safe for concurrent use and needs no shutdown: an idle Runner
// holds no goroutines.
type Runner struct {
	sem     chan struct{}
	queue   int // configured queue bound (-1 = unbounded)
	timeout time.Duration
	cache   *resultCache

	// Admission accounting: at most admitCap (= Workers+Queue) jobs hold a
	// unit from admission to completion; admitCap < 0 means unbounded. A
	// counter rather than a token channel so a batch can be admitted
	// atomically (SubmitAllCtx).
	admitMu  sync.Mutex
	admitCap int
	inFlight int

	// exec is the job executor, swappable in tests; Execute otherwise.
	exec func(context.Context, Job) Result

	// obs holds the wall-clock instruments (observe.go): latency histograms,
	// the engine phase profile, and the slowest-jobs flight recorder.
	obs *RunnerObs

	submitted atomic.Int64
	rejected  atomic.Int64
	replayed  atomic.Int64
	executed  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	canceled  atomic.Int64
	cacheHits atomic.Int64
	queued    atomic.Int64
	active    atomic.Int64
	waitNanos atomic.Int64
	runNanos  atomic.Int64
}

// DefaultCacheSize is the number of distinct (kind, sequence, options)
// results a Runner retains.
const DefaultCacheSize = 256

// NewRunner creates a batch Runner that executes at most workers jobs at
// once and never rejects a submission (unbounded admission queue).
// workers ≤ 0 selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	return NewRunnerConfig(RunnerConfig{Workers: workers, Queue: -1})
}

// NewRunnerConfig creates a Runner with explicit serving limits. The zero
// RunnerConfig gives GOMAXPROCS workers, no waiting room, no job timeout,
// and the default cache size.
func NewRunnerConfig(cfg RunnerConfig) *Runner {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	r := &Runner{
		sem:      make(chan struct{}, cfg.Workers),
		queue:    cfg.Queue,
		timeout:  cfg.JobTimeout,
		cache:    newResultCache(cfg.CacheSize),
		admitCap: -1,
		obs:      newRunnerObs(),
	}
	if cfg.Queue >= 0 {
		// One admission unit per job in flight: Workers executing plus at
		// most Queue waiting. A unit is held from admission to completion,
		// so memory held by pending jobs is bounded.
		r.admitCap = cfg.Workers + cfg.Queue
	}
	r.exec = Execute
	return r
}

// tryAdmit reserves n admission units if they all fit, atomically.
func (r *Runner) tryAdmit(n int) bool {
	if r.admitCap < 0 {
		return true
	}
	r.admitMu.Lock()
	defer r.admitMu.Unlock()
	if r.inFlight+n > r.admitCap {
		return false
	}
	r.inFlight += n
	return true
}

func (r *Runner) releaseAdmit(n int) {
	if r.admitCap < 0 {
		return
	}
	r.admitMu.Lock()
	r.inFlight -= n
	r.admitMu.Unlock()
}

// Submit enqueues one job and returns a channel that receives its Result
// exactly once. Submission never blocks; on a bounded, saturated Runner the
// Result carries ErrQueueFull.
func (r *Runner) Submit(j Job) <-chan Result {
	out, err := r.SubmitCtx(context.Background(), j)
	if err != nil {
		ch := make(chan Result, 1)
		ch <- Result{Job: j, Err: err}
		return ch
	}
	return out
}

// SubmitCtx enqueues one job under a context and returns a channel that
// receives its Result exactly once. It never blocks: a cached result is
// delivered immediately without consuming any serving capacity, and on a
// bounded Runner at capacity it returns ErrQueueFull immediately
// (backpressure). The context cancels the job while queued or running; the
// Runner's JobTimeout, if set, additionally bounds execution time. A Result
// whose Err is the context's error was abandoned, not computed. By the time
// the Result is receivable, the job's worker slot and admission unit have
// been released: receive-then-resubmit never observes stale saturation.
func (r *Runner) SubmitCtx(ctx context.Context, j Job) (<-chan Result, error) {
	key := j.cacheKey()
	if out, ok := r.cachedFastPath(j, key); ok {
		return out, nil
	}
	if !r.tryAdmit(1) {
		r.rejected.Add(1)
		return nil, ErrQueueFull
	}
	return r.start(ctx, j, key, true), nil
}

// SubmitReplayCtx enqueues one job recovered from a durable job log,
// bypassing the admission bound: the job consumed an admission unit before
// the crash, so a colder post-restart queue must not refuse it with
// ErrQueueFull. Execution still shares the worker pool (a replay burst
// cannot starve the machine, only the waiting line), cached results are
// served as usual, and the context/timeout semantics match SubmitCtx. The
// error return is always nil for a Runner; it exists so scripted Backend
// seams can exercise refusal paths.
func (r *Runner) SubmitReplayCtx(ctx context.Context, j Job) (<-chan Result, error) {
	key := j.cacheKey()
	if out, ok := r.cachedFastPath(j, key); ok {
		return out, nil
	}
	r.replayed.Add(1)
	return r.start(ctx, j, key, false), nil
}

// SubmitAllCtx admits a batch of jobs atomically: either every non-cached
// job in the batch is admitted, or none is and ErrQueueFull is returned —
// concurrent batches cannot partially admit and mutually starve each other.
// Cached jobs are served without consuming capacity. Result channels are
// returned in job order.
//
// Cache hits are looked up before the admission decision but counted (and
// their result channels created) only after it succeeds: a refused batch
// delivers no results, so counting its cached members as Submitted/CacheHits
// would overcount — and double-count once the caller retries the batch.
func (r *Runner) SubmitAllCtx(ctx context.Context, jobs []Job) ([]<-chan Result, error) {
	hits := make([]Result, len(jobs))
	keys := make([]cacheKey, len(jobs))
	var misses []int
	for i, j := range jobs {
		keys[i] = j.cacheKey()
		if res, ok := r.cache.get(keys[i]); ok {
			hits[i] = res
		} else {
			misses = append(misses, i)
		}
	}
	if len(misses) > 0 && !r.tryAdmit(len(misses)) {
		r.rejected.Add(int64(len(misses)))
		return nil, ErrQueueFull
	}
	chans := make([]<-chan Result, len(jobs))
	mi := 0
	for i := range jobs {
		if mi < len(misses) && misses[mi] == i {
			chans[i] = r.start(ctx, jobs[i], keys[i], true)
			mi++
			continue
		}
		chans[i] = r.deliverCached(jobs[i], hits[i])
	}
	return chans, nil
}

// cachedFastPath serves a job straight from the result cache, bypassing
// admission and the worker pool. Cached results are immutable, so the only
// work is a map lookup — a hit must never queue behind real jobs or be
// rejected by a saturated Runner. Hits count only toward Submitted and
// CacheHits: Completed/Failed track executions, and re-counting a cached
// error on every hit would fabricate a failure spike.
func (r *Runner) cachedFastPath(j Job, key cacheKey) (<-chan Result, bool) {
	res, hit := r.cache.get(key)
	if !hit {
		return nil, false
	}
	return r.deliverCached(j, res), true
}

// deliverCached counts one cache-served submission and wraps the stored
// result in a delivered channel. Callers must invoke it only once the result
// is actually going to reach the requester — after batch admission, in
// SubmitAllCtx's case.
func (r *Runner) deliverCached(j Job, res Result) <-chan Result {
	r.submitted.Add(1)
	r.cacheHits.Add(1)
	res.Job = j
	res.Cached = true
	out := make(chan Result, 1)
	out <- res
	return out
}

// start launches one job, whose cache key the submission computed once.
// admitted reports whether it holds an admission unit (replayed jobs do
// not); a held unit is released before the Result becomes receivable.
func (r *Runner) start(ctx context.Context, j Job, key cacheKey, admitted bool) <-chan Result {
	r.submitted.Add(1)
	r.queued.Add(1)
	enqueued := time.Now()
	out := make(chan Result, 1)
	go func() {
		res := r.executeAdmitted(ctx, j, key, enqueued)
		if admitted {
			r.releaseAdmit(1)
		}
		out <- res
	}()
	return out
}

// executeAdmitted waits for a worker slot and runs the job; the slot is
// released (via defer) before the caller delivers the Result.
func (r *Runner) executeAdmitted(ctx context.Context, j Job, key cacheKey, enqueued time.Time) Result {
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		r.queued.Add(-1)
		r.canceled.Add(1)
		return Result{Job: j, Err: ctx.Err()}
	}
	r.queued.Add(-1)
	r.active.Add(1)
	r.executed.Add(1)
	wait := time.Since(enqueued)
	r.waitNanos.Add(wait.Nanoseconds())
	r.obs.QueueWait.ObserveDuration(wait)
	defer func() {
		<-r.sem
		r.active.Add(-1)
	}()
	jctx := ctx
	timeout := r.timeout
	if j.Timeout != 0 {
		timeout = j.Timeout // negative disables the deadline
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var acc phaseAccum
	start := time.Now()
	res := r.run(jctx, r.observe(j, &acc), key)
	res.Job = j // the observed copy's chained Profile hook is an internal detail
	run := time.Since(start)
	r.runNanos.Add(run.Nanoseconds())
	r.obs.Run.ObserveDuration(run)
	r.recordFlight(j, res, wait, run, &acc)
	r.countOutcome(res.Err)
	return res
}

func (r *Runner) countOutcome(err error) {
	switch {
	case err == nil:
		r.completed.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		r.canceled.Add(1)
	default:
		r.failed.Add(1)
	}
}

// RunnerStats is a point-in-time snapshot of a Runner's counters.
type RunnerStats struct {
	Workers    int // worker-pool size
	QueueLimit int // admission queue bound (-1 = unbounded)

	Active int // jobs executing right now
	Queued int // jobs admitted and waiting for a worker

	Submitted int64 // submissions accepted (including cache-served)
	Rejected  int64 // submissions refused with ErrQueueFull
	Replayed  int64 // recovered jobs re-admitted outside the admission bound
	Executed  int64 // jobs that acquired a worker (the latency denominators)
	Completed int64 // executed jobs that finished without error
	Failed    int64 // executed jobs that finished with a non-cancellation error
	Canceled  int64 // jobs abandoned by context cancellation or timeout
	CacheHits int64 // submissions served from the result cache

	CacheLen int // distinct results currently cached

	TotalWait time.Duration // cumulative time jobs spent queued
	TotalRun  time.Duration // cumulative time jobs spent executing
}

// Stats returns a consistent-enough snapshot of the Runner's counters for
// monitoring; individual fields are loaded atomically but not as one
// transaction.
func (r *Runner) Stats() RunnerStats {
	return RunnerStats{
		Workers:    cap(r.sem),
		QueueLimit: r.queue,
		Active:     int(r.active.Load()),
		Queued:     int(r.queued.Load()),
		Submitted:  r.submitted.Load(),
		Rejected:   r.rejected.Load(),
		Replayed:   r.replayed.Load(),
		Executed:   r.executed.Load(),
		Completed:  r.completed.Load(),
		Failed:     r.failed.Load(),
		Canceled:   r.canceled.Load(),
		CacheHits:  r.cacheHits.Load(),
		CacheLen:   r.cache.len(),
		TotalWait:  time.Duration(r.waitNanos.Load()),
		TotalRun:   time.Duration(r.runNanos.Load()),
	}
}

// RealizeAll runs all jobs with the Runner's bounded parallelism and returns
// the results in job order. Every simulation is seeded only by its own
// Options, so results are independent of scheduling and worker count.
func (r *Runner) RealizeAll(jobs []Job) []Result {
	chans := make([]<-chan Result, len(jobs))
	for i, j := range jobs {
		chans[i] = r.Submit(j)
	}
	out := make([]Result, len(jobs))
	for i, c := range chans {
		out[i] = <-c
	}
	return out
}

// SweepSeeds expands a base job into one job per seed, overriding only
// Options.Seed. It is the standard way to build a deterministic multi-seed
// sweep for RealizeAll.
func SweepSeeds(base Job, seeds []int64) []Job {
	jobs := make([]Job, len(seeds))
	for i, seed := range seeds {
		opt := base.Opt.norm()
		opt.Seed = seed
		j := base
		j.Opt = &opt
		jobs[i] = j
	}
	return jobs
}

func (r *Runner) run(ctx context.Context, j Job, key cacheKey) Result {
	if res, hit := r.cache.get(key); hit {
		r.cacheHits.Add(1)
		res.Job = j
		res.Cached = true
		return res
	}
	res := r.exec(ctx, j)
	// Deterministic outcomes (including ErrUnrealizable / ErrBadInput) are
	// cacheable; an abandoned run is not — the next requester must compute it.
	// The stored entry carries no Job: every hit path overwrites it with the
	// requester's job anyway, and retaining it would pin the submitter's
	// Options (whose Progress hook can reference arbitrary caller state) for
	// the entry's whole LRU lifetime.
	if !errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, context.DeadlineExceeded) {
		stored := res
		stored.Job = Job{}
		r.cache.put(key, stored)
	}
	return res
}

// cacheKey identifies a job's deterministic result: the kind, the sequence
// (compacted into a collision-free byte string), and the outcome-affecting
// Options fields. Runs are deterministic for fixed options, so equal keys
// imply equal results; varint-style delta coding keeps typical keys short.
type cacheKey struct {
	kind JobKind
	seq  string
	opt  optKey
}

// optKey is the comparable projection of Options used in cache keys: every
// field that affects a run's outcome, and nothing else. Progress and Profile
// are observational (and, being funcs, not comparable), so jobs differing
// only in their hooks share one cached result; Job.TraceID is likewise
// excluded — correlation IDs identify requests, not results.
type optKey struct {
	model     Model
	seed      int64
	strict    bool
	capMul    int
	sort      SortMethod
	maxRounds int
}

func (o Options) key() optKey {
	return optKey{
		model:     o.Model,
		seed:      o.Seed,
		strict:    o.Strict,
		capMul:    o.CapMul,
		sort:      o.Sort,
		maxRounds: o.MaxRounds,
	}
}

// cacheKey writes the sequence's varints straight into a string of exactly
// their length: one allocation.
func (j Job) cacheKey() cacheKey {
	size := 0
	for _, v := range j.Seq {
		size += (bits.Len64(zigzag(v)|1) + 6) / 7
	}
	var seq strings.Builder
	seq.Grow(size)
	for _, v := range j.Seq {
		u := zigzag(v)
		for u >= 0x80 {
			seq.WriteByte(byte(u) | 0x80)
			u >>= 7
		}
		seq.WriteByte(byte(u))
	}
	return cacheKey{
		kind: j.Kind,
		seq:  seq.String(),
		opt:  j.Opt.norm().key(),
	}
}

// zigzag maps v to an unsigned value whose varint stays short for the odd
// negative input.
func zigzag(v int) uint64 { return uint64(v)<<1 ^ uint64(int64(v)>>63) }

// RouteKey returns the canonical routing key of a job: a printable,
// collision-free rendering of exactly the fields that form the Runner's
// result cache key — the kind, the zig-zag-varint-packed sequence, and the
// outcome-affecting Options (Model, Seed, Strict, CapMul, Sort, MaxRounds).
// Label, TraceID, Timeout, and the Progress/Profile hooks never
// contribute, mirroring their exclusion from the cache key. The cluster
// coordinator hashes this key to pick a job's owning worker (CLUSTER.md §4),
// so the distributed result cache shards: two jobs land on the same worker
// exactly when a single Runner would serve one from the other's cache.
func (j Job) RouteKey() string {
	k := j.cacheKey()
	return fmt.Sprintf("%s|%x|m%d.s%d.t%t.c%d.o%d.r%d",
		k.kind, k.seq, int(k.opt.model), k.opt.seed, k.opt.strict,
		k.opt.capMul, int(k.opt.sort), k.opt.maxRounds)
}

// resultCache is a small mutex-guarded LRU keyed by cacheKey.
type resultCache struct {
	mu    sync.Mutex
	limit int
	m     map[cacheKey]*cacheEntry
	head  *cacheEntry // most recently used
	tail  *cacheEntry // least recently used
}

type cacheEntry struct {
	key        cacheKey
	res        Result
	prev, next *cacheEntry
}

func newResultCache(limit int) *resultCache {
	return &resultCache{limit: limit, m: make(map[cacheKey]*cacheEntry, limit)}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *resultCache) get(k cacheKey) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		return Result{}, false
	}
	c.moveToFront(e)
	return e.res, true
}

func (c *resultCache) put(k cacheKey, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.res = res
		c.moveToFront(e)
		return
	}
	e := &cacheEntry{key: k, res: res}
	c.m[k] = e
	c.pushFront(e)
	if len(c.m) > c.limit {
		lru := c.tail
		c.unlink(lru)
		delete(c.m, lru.key)
	}
}

func (c *resultCache) pushFront(e *cacheEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *resultCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *resultCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
