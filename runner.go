package graphrealize

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
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
	// Progress, when non-nil, receives (rounds completed, messages delivered)
	// at every round barrier of the run — the hook long-running services use
	// to stream round-level progress. It is invoked on the goroutine running
	// the simulation and must be fast and non-blocking. Progress does not
	// affect the result and is not part of the cache key: a job served from
	// the cache completes without any progress callbacks.
	Progress func(round, msgs int)
	// Profile, when non-nil, receives every completed round's wall-time split
	// into compute, delivery, and barrier phases — the observability hook the
	// server uses to feed its engine phase histograms. Like Progress it runs
	// on the goroutine running the simulation, must be fast, never affects the
	// result (timings stay out of Stats and traces), and is not part of the
	// cache key: a job served from the cache reports no phases.
	Profile func(compute, delivery, barrier time.Duration)
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
	res, key, hit := r.lookup(j)
	if hit {
		return r.deliverCached(j, res), nil
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
// served as usual, and the context/timeout semantics match SubmitCtx.
func (r *Runner) SubmitReplayCtx(ctx context.Context, j Job) <-chan Result {
	res, key, hit := r.lookup(j)
	if hit {
		return r.deliverCached(j, res)
	}
	r.replayed.Add(1)
	return r.start(ctx, j, key, false)
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
	results := make([]Result, len(jobs))
	keys := make([]cacheKey, len(jobs))
	hits := make([]bool, len(jobs))
	misses := 0
	for i, j := range jobs {
		results[i], keys[i], hits[i] = r.lookup(j)
		if !hits[i] {
			misses++
		}
	}
	if misses > 0 && !r.tryAdmit(misses) {
		r.rejected.Add(int64(misses))
		return nil, ErrQueueFull
	}
	chans := make([]<-chan Result, len(jobs))
	for i, j := range jobs {
		if hits[i] {
			chans[i] = r.deliverCached(j, results[i])
		} else {
			chans[i] = r.start(ctx, j, keys[i], true)
		}
	}
	return chans, nil
}

// keyPool holds the buffers lookup writes key sequences into. A buffer
// grown past maxPooledKey goes to the collector instead, so one long job
// does not keep its key's bytes pinned.
var keyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledKey = 64 << 10

// lookup looks j up in the result cache without making its key: it writes
// the sequence's varints into a pooled buffer and indexes the cache with
// them in place. Only a miss makes the key string, the one its run stores
// under. A hit bypasses admission and the worker pool: cached results are
// immutable, so a hit must never queue behind real jobs or be rejected by
// a saturated Runner.
func (r *Runner) lookup(j Job) (res Result, key cacheKey, hit bool) {
	buf := keyPool.Get().(*[]byte)
	seq := appendVarints((*buf)[:0], j.Seq)
	key.kind, key.opt = j.Kind, j.Opt.norm()
	if res, hit = r.cache.find(key.kind, seq, key.opt); !hit {
		key.seq = string(seq)
	}
	if cap(seq) <= maxPooledKey {
		*buf = seq
		keyPool.Put(buf)
	}
	return res, key, hit
}

// deliverCached counts one cache-served submission and wraps the stored
// result in a delivered channel. Callers must invoke it only once the result
// is actually going to reach the requester — after batch admission, in
// SubmitAllCtx's case. Hits count only toward Submitted and CacheHits:
// Completed/Failed track executions, and re-counting a cached error on
// every hit would fabricate a failure spike.
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
	// Progress hook, which can reference arbitrary caller state, for the
	// entry's whole LRU lifetime.
	if !errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, context.DeadlineExceeded) {
		stored := res
		stored.Job = Job{}
		r.cache.put(key, stored)
	}
	return res
}

// cacheKey identifies a job's deterministic result: the kind, the sequence
// (compacted into a collision-free byte string), and the normalized Options,
// which hold exactly the fields that decide a result. Runs are deterministic
// for fixed options, so equal keys imply equal results; varint-style delta
// coding keeps typical keys short. The Job's other fields (Label, TraceID,
// Timeout and the hooks) identify requests, not results, and stay out.
type cacheKey struct {
	kind JobKind
	seq  string
	opt  Options
}

// cacheKey makes j's key, its sequence's varints written at their exact
// length: one allocation.
func (j Job) cacheKey() cacheKey {
	size := 0
	for _, v := range j.Seq {
		size += (bits.Len64(zigzag(v)|1) + 6) / 7
	}
	seq := appendVarints(make([]byte, 0, size), j.Seq)
	return cacheKey{
		kind: j.Kind,
		// Nothing writes seq again, so the string may share its bytes, as
		// strings.Builder's String does.
		seq: unsafe.String(unsafe.SliceData(seq), len(seq)),
		opt: j.Opt.norm(),
	}
}

// appendVarints appends each value of seq to b as its zig-zag varint.
func appendVarints(b []byte, seq []int) []byte {
	for _, v := range seq {
		u := zigzag(v)
		for u >= 0x80 {
			b = append(b, byte(u)|0x80)
			u >>= 7
		}
		b = append(b, byte(u))
	}
	return b
}

// zigzag maps v to an unsigned value whose varint stays short for the odd
// negative input.
func zigzag(v int) uint64 { return uint64(v)<<1 ^ uint64(int64(v)>>63) }

// RouteKey returns the canonical routing key of a job: a printable,
// collision-free rendering of exactly the fields that form the Runner's
// result cache key — the kind, the zig-zag-varint-packed sequence, and the
// outcome-affecting Options (Model, Seed, Strict, CapMul, Sort, MaxRounds).
// Label, TraceID, Timeout, and the Progress and Profile hooks never
// contribute, mirroring their exclusion from the cache key. The cluster
// coordinator hashes this key to pick a job's owning worker (CLUSTER.md §4),
// so the distributed result cache shards: two jobs land on the same worker
// exactly when a single Runner would serve one from the other's cache.
func (j Job) RouteKey() string {
	k := j.cacheKey()
	return fmt.Sprintf("%s|%x|m%d.s%d.t%t.c%d.o%d.r%d",
		k.kind, k.seq, int(k.opt.Model), k.opt.Seed, k.opt.Strict,
		k.opt.CapMul, int(k.opt.Sort), k.opt.MaxRounds)
}

// resultCache is a small mutex-guarded LRU keyed by cacheKey. order holds
// the entries most recently used first.
type resultCache struct {
	mu    sync.Mutex
	limit int
	m     map[cacheKey]*list.Element
	order list.List
}

type cacheEntry struct {
	key cacheKey
	res Result
}

func newResultCache(limit int) *resultCache {
	return &resultCache{limit: limit, m: make(map[cacheKey]*list.Element, limit)}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// get returns the result cached under k.
func (c *resultCache) get(k cacheKey) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.use(c.m[k])
}

// find is get for the key (kind, seq, opt), seq being the key's varints.
// The key is written inside the index expression, which the compiler
// compiles without copying seq into a string.
func (c *resultCache) find(kind JobKind, seq []byte, opt Options) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.use(c.m[cacheKey{kind: kind, seq: string(seq), opt: opt}])
}

// use marks the entry e, if there is one, most recently used and returns
// its result.
func (c *resultCache) use(e *list.Element) (Result, bool) {
	if e == nil {
		return Result{}, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*cacheEntry).res, true
}

func (c *resultCache) put(k cacheKey, res Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		e.Value.(*cacheEntry).res = res
		c.order.MoveToFront(e)
		return
	}
	c.m[k] = c.order.PushFront(&cacheEntry{key: k, res: res})
	if len(c.m) > c.limit {
		lru := c.order.Back()
		c.order.Remove(lru)
		delete(c.m, lru.Value.(*cacheEntry).key)
	}
}
