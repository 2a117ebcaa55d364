package graphrealize

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunnerMatchesSequential(t *testing.T) {
	seqs := [][]int{
		{3, 3, 2, 2, 2, 2},
		{2, 2, 2, 2},
		{4, 3, 3, 2, 2, 2, 2, 2},
		{1, 1},
	}
	jobs := make([]Job, 0, len(seqs))
	for i, d := range seqs {
		jobs = append(jobs, Job{Kind: JobDegrees, Seq: d, Opt: &Options{Seed: int64(i)}})
	}
	r := NewRunner(4)
	results := r.RealizeAll(jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, res := range results {
		g, st, err := RealizeDegrees(seqs[i], jobs[i].Opt)
		if (err == nil) != (res.Err == nil) {
			t.Fatalf("job %d: err %v vs sequential %v", i, res.Err, err)
		}
		if res.Err != nil {
			continue
		}
		if res.Stats.Rounds != st.Rounds || res.Stats.Messages != st.Messages {
			t.Fatalf("job %d: stats differ from sequential run", i)
		}
		re, se := res.Graph.Edges(), g.Edges()
		if len(re) != len(se) {
			t.Fatalf("job %d: edge counts differ", i)
		}
		for k := range re {
			if re[k] != se[k] {
				t.Fatalf("job %d: edges differ", i)
			}
		}
	}
}

func TestRunnerCacheHitsAndLabels(t *testing.T) {
	r := NewRunner(2)
	j := Job{Kind: JobDegrees, Seq: []int{2, 2, 2}, Opt: &Options{Seed: 7}, Label: "first"}
	res1 := <-r.Submit(j)
	if res1.Err != nil {
		t.Fatalf("first run: %v", res1.Err)
	}
	if res1.Cached {
		t.Fatal("first run must not be cached")
	}
	j.Label = "second"
	res2 := <-r.Submit(j)
	if !res2.Cached {
		t.Fatal("identical resubmission must hit the cache")
	}
	if res2.Job.Label != "second" {
		t.Fatalf("cached result must carry the new job's label, got %q", res2.Job.Label)
	}
	if res2.Stats.Rounds != res1.Stats.Rounds {
		t.Fatal("cached stats differ")
	}
	// A different seed is a different key.
	j.Opt = &Options{Seed: 8}
	if res3 := <-r.Submit(j); res3.Cached {
		t.Fatal("different options must miss the cache")
	}
	// A permuted sequence is a different key even with equal sums.
	j2 := Job{Kind: JobDegrees, Seq: []int{2, 2, 1, 1}, Opt: &Options{Seed: 7}}
	j3 := Job{Kind: JobDegrees, Seq: []int{1, 2, 2, 1}, Opt: &Options{Seed: 7}}
	<-r.Submit(j2)
	if res := <-r.Submit(j3); res.Cached {
		t.Fatal("permuted sequence must miss the cache")
	}
}

func TestRunnerUnrealizableAndBadKinds(t *testing.T) {
	r := NewRunner(2)
	res := <-r.Submit(Job{Kind: JobDegrees, Seq: []int{3, 3, 1, 1}})
	if !errors.Is(res.Err, ErrUnrealizable) {
		t.Fatalf("want ErrUnrealizable, got %v", res.Err)
	}
	// Unrealizable results are deterministic too, so they are cacheable.
	if res2 := <-r.Submit(Job{Kind: JobDegrees, Seq: []int{3, 3, 1, 1}}); !res2.Cached || !errors.Is(res2.Err, ErrUnrealizable) {
		t.Fatalf("cached unrealizable: cached=%v err=%v", res2.Cached, res2.Err)
	}
	if res := <-r.Submit(Job{Kind: JobKind(99), Seq: []int{1, 1}}); res.Err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestRunnerAllKinds(t *testing.T) {
	r := NewRunner(0) // GOMAXPROCS default
	jobs := []Job{
		{Kind: JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}},
		{Kind: JobDegreesExplicit, Seq: []int{2, 2, 2, 2}},
		{Kind: JobUpperEnvelope, Seq: []int{3, 3, 1, 1}},
		{Kind: JobChainTree, Seq: []int{3, 3, 2, 1, 1, 1, 1, 2}},
		{Kind: JobMinDiamTree, Seq: []int{3, 3, 2, 1, 1, 1, 1, 2}},
		{Kind: JobConnectivity, Seq: []int{2, 2, 1, 1, 1, 1}},
	}
	for _, res := range r.RealizeAll(jobs) {
		if res.Err != nil {
			t.Fatalf("kind %v: %v", res.Job.Kind, res.Err)
		}
		if err := res.Verify(); err != nil {
			t.Fatalf("kind %v: %v", res.Job.Kind, err)
		}
	}
}

func TestSweepSeedsDeterminism(t *testing.T) {
	base := Job{Kind: JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}, Opt: &Options{Strict: true}}
	seeds := []int64{1, 2, 3, 4, 5}
	jobs := SweepSeeds(base, seeds)
	if len(jobs) != len(seeds) {
		t.Fatalf("want %d jobs", len(seeds))
	}
	for i, j := range jobs {
		if j.Opt.Seed != seeds[i] || !j.Opt.Strict {
			t.Fatalf("job %d: options not derived correctly: %+v", i, j.Opt)
		}
	}
	if base.Opt.Seed != 0 {
		t.Fatal("SweepSeeds must not mutate the base options")
	}
	a := NewRunner(1).RealizeAll(jobs)
	b := NewRunner(8).RealizeAll(jobs)
	for i := range a {
		if a[i].Stats.Rounds != b[i].Stats.Rounds || a[i].Stats.Messages != b[i].Stats.Messages {
			t.Fatalf("seed %d: results depend on worker count", seeds[i])
		}
	}
}

// blockingExec installs a test executor that parks every job until release
// is closed (or its context dies) and counts invocations.
func blockingExec(r *Runner, release chan struct{}) *atomic.Int64 {
	var calls atomic.Int64
	r.exec = func(ctx context.Context, j Job) Result {
		calls.Add(1)
		select {
		case <-release:
			return Result{Job: j}
		case <-ctx.Done():
			return Result{Job: j, Err: ctx.Err()}
		}
	}
	return &calls
}

// distinctJob returns jobs with distinct cache keys so the cache never
// short-circuits the admission path under test.
func distinctJob(seed int64) Job {
	return Job{Kind: JobDegrees, Seq: []int{1, 1}, Opt: &Options{Seed: seed}}
}

func TestRunnerBackpressure(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 1, Queue: 1})
	release := make(chan struct{})
	blockingExec(r, release)

	// Job 1 occupies the worker, job 2 the single queue slot.
	ch1, err := r.SubmitCtx(context.Background(), distinctJob(1))
	if err != nil {
		t.Fatalf("job 1 must be admitted: %v", err)
	}
	ch2, err := r.SubmitCtx(context.Background(), distinctJob(2))
	if err != nil {
		t.Fatalf("job 2 must be admitted: %v", err)
	}
	// Job 3 must be rejected immediately, not queued or blocked.
	if _, err := r.SubmitCtx(context.Background(), distinctJob(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated runner must reject with ErrQueueFull, got %v", err)
	}
	// The compat Submit path embeds the same rejection in the Result.
	if res := <-r.Submit(distinctJob(4)); !errors.Is(res.Err, ErrQueueFull) {
		t.Fatalf("Submit on a saturated runner must carry ErrQueueFull, got %v", res.Err)
	}
	st := r.Stats()
	if st.Rejected != 2 || st.Submitted != 2 {
		t.Fatalf("want 2 admitted / 2 rejected, got %+v", st)
	}

	// Draining the pool frees capacity for new submissions.
	close(release)
	if res := <-ch1; res.Err != nil {
		t.Fatalf("job 1: %v", res.Err)
	}
	if res := <-ch2; res.Err != nil {
		t.Fatalf("job 2: %v", res.Err)
	}
	ch5, err := r.SubmitCtx(context.Background(), distinctJob(5))
	if err != nil {
		t.Fatalf("drained runner must admit again: %v", err)
	}
	if res := <-ch5; res.Err != nil {
		t.Fatalf("job 5: %v", res.Err)
	}
	st = r.Stats()
	if st.Completed != 3 || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("final stats wrong: %+v", st)
	}
}

// TestRunnerReplayBypassesAdmission: the crash-recovery path must re-admit
// jobs even when the admission queue is saturated — the replayed jobs held
// admission units before the crash, and refusing them would break the
// restart-recovery guarantee.
func TestRunnerReplayBypassesAdmission(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 1, Queue: 0})
	release := make(chan struct{})
	blockingExec(r, release)

	ch1, err := r.SubmitCtx(context.Background(), distinctJob(1))
	if err != nil {
		t.Fatal(err)
	}
	// Regular submission is saturated...
	if _, err := r.SubmitCtx(context.Background(), distinctJob(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("precondition: runner must be saturated, got %v", err)
	}
	// ...but replay is admission-exempt.
	ch3, err := r.SubmitReplayCtx(context.Background(), distinctJob(3))
	if err != nil {
		t.Fatalf("replay must never be refused: %v", err)
	}
	close(release)
	if res := <-ch1; res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := <-ch3; res.Err != nil {
		t.Fatalf("replayed job must execute: %v", res.Err)
	}
	st := r.Stats()
	if st.Replayed != 1 {
		t.Fatalf("want 1 replayed, got %+v", st)
	}
	// A replayed job releases no admission unit it never held: afterwards
	// the pool admits exactly Workers+Queue = 1 fresh job, no more.
	release2 := make(chan struct{})
	blockingExec(r, release2)
	defer close(release2)
	if _, err := r.SubmitCtx(context.Background(), distinctJob(4)); err != nil {
		t.Fatalf("post-replay admission broken: %v", err)
	}
	if _, err := r.SubmitCtx(context.Background(), distinctJob(5)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("admission accounting corrupted by replay, got %v", err)
	}
}

func TestRunnerQueuedJobCancellation(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 1, Queue: 1})
	release := make(chan struct{})
	blockingExec(r, release)
	defer close(release)

	ch1, err := r.SubmitCtx(context.Background(), distinctJob(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = ch1
	ctx, cancel := context.WithCancel(context.Background())
	ch2, err := r.SubmitCtx(ctx, distinctJob(2))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	res := <-ch2
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("canceled queued job must return context.Canceled, got %v", res.Err)
	}
	// Receiving the Result guarantees the admission unit was released, so a
	// new submission fits in the freed queue slot immediately.
	if _, err := r.SubmitCtx(context.Background(), distinctJob(3)); err != nil {
		t.Fatalf("admission unit of the canceled job not released: %v", err)
	}
	if got := r.Stats().Canceled; got != 1 {
		t.Fatalf("want 1 canceled, got %d", got)
	}
}

func TestRunnerSubmitAllAtomicAdmission(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 1, Queue: 2}) // capacity 3
	release := make(chan struct{})
	blockingExec(r, release)

	// A 2-job batch fits; a second 2-job batch needs 2 of the 1 remaining
	// unit and must be rejected whole, leaving its capacity untouched.
	first, err := r.SubmitAllCtx(context.Background(), []Job{distinctJob(1), distinctJob(2)})
	if err != nil {
		t.Fatalf("2-job batch must fit in capacity 3: %v", err)
	}
	if _, err := r.SubmitAllCtx(context.Background(), []Job{distinctJob(3), distinctJob(4)}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("batch exceeding remaining capacity must reject whole, got %v", err)
	}
	if st := r.Stats(); st.Submitted != 2 || st.Rejected != 2 {
		t.Fatalf("rejected batch must admit nothing: %+v", st)
	}
	// The single remaining unit is still available to a smaller submission.
	ch5, err := r.SubmitCtx(context.Background(), distinctJob(5))
	if err != nil {
		t.Fatalf("rejected batch must not consume capacity: %v", err)
	}
	close(release)
	for i, ch := range append(first, ch5) {
		if res := <-ch; res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
	}
}

func TestRunnerCachedJobsBypassAdmission(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 1, Queue: 0})
	release := make(chan struct{})
	blockingExec(r, release)
	defer close(release)

	j := distinctJob(7)
	r.cache.put(j.cacheKey(), Result{Job: j})

	// Saturate the runner (capacity 1) with a non-cached job.
	if _, err := r.SubmitCtx(context.Background(), distinctJob(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitCtx(context.Background(), distinctJob(2)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("runner must be saturated, got %v", err)
	}
	// The cached job is still served instantly, bypassing admission.
	ch, err := r.SubmitCtx(context.Background(), j)
	if err != nil {
		t.Fatalf("cached job must bypass admission: %v", err)
	}
	if res := <-ch; !res.Cached || res.Err != nil {
		t.Fatalf("want an instant cached result, got %+v", res)
	}
	if st := r.Stats(); st.CacheHits != 1 {
		t.Fatalf("cache hit not counted: %+v", st)
	}
}

func TestRunnerJobTimeout(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 1, Queue: -1, JobTimeout: 10 * time.Millisecond})
	release := make(chan struct{})
	calls := blockingExec(r, release)
	defer close(release)

	res := <-r.Submit(distinctJob(1))
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("overrunning job must time out with DeadlineExceeded, got %v", res.Err)
	}
	if got := r.Stats().Canceled; got != 1 {
		t.Fatalf("timeouts must count as canceled, got %d", got)
	}
	// Abandoned results must not be cached: the same job resubmitted runs
	// the executor again (and times out again).
	res = <-r.Submit(distinctJob(1))
	if res.Cached {
		t.Fatal("timed-out result must not be served from the cache")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("executor must run twice, ran %d times", got)
	}
}

func TestRunnerCancellationReachesEngine(t *testing.T) {
	// No executor stub here: a pre-canceled context must stop a real
	// simulation between rounds and surface the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Execute(ctx, Job{Kind: JobDegrees, Seq: []int{3, 3, 2, 2, 2, 2}})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("want context.Canceled from the engine, got %v", res.Err)
	}
}

func TestRunnerStatsLatencyAndCacheCounters(t *testing.T) {
	r := NewRunner(2)
	j := Job{Kind: JobDegrees, Seq: []int{2, 2, 2}, Opt: &Options{Seed: 3}}
	if res := <-r.Submit(j); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := <-r.Submit(j); !res.Cached {
		t.Fatal("second submission must hit the cache")
	}
	st := r.Stats()
	if st.CacheHits != 1 || st.CacheLen != 1 {
		t.Fatalf("cache counters wrong: %+v", st)
	}
	// Completed/Executed track executions; the cache-served submission
	// counts only toward Submitted and CacheHits.
	if st.Submitted != 2 || st.Executed != 1 || st.Completed != 1 {
		t.Fatalf("throughput counters wrong: %+v", st)
	}
	if st.TotalRun <= 0 {
		t.Fatalf("TotalRun must accumulate, got %v", st.TotalRun)
	}
	if st.QueueLimit != -1 {
		t.Fatalf("batch runner must report an unbounded queue, got %d", st.QueueLimit)
	}
}

func TestRunnerPerJobTimeoutOverride(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 2, Queue: -1, JobTimeout: 10 * time.Millisecond})
	release := make(chan struct{})
	blockingExec(r, release)

	// A negative Timeout disables the Runner's deadline: the job survives
	// well past 10ms and completes once released.
	long := distinctJob(1)
	long.Timeout = -1
	ch := r.Submit(long)
	select {
	case res := <-ch:
		t.Fatalf("deadline-free job must still be running, got %+v", res)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if res := <-ch; res.Err != nil {
		t.Fatalf("deadline-free job must complete: %v", res.Err)
	}

	// A positive Timeout overrides a laxer Runner default.
	r2 := NewRunnerConfig(RunnerConfig{Workers: 1, Queue: -1, JobTimeout: time.Hour})
	blockingExec(r2, make(chan struct{}))
	short := distinctJob(2)
	short.Timeout = 5 * time.Millisecond
	if res := <-r2.Submit(short); !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("per-job deadline must override the runner default, got %v", res.Err)
	}
}

// TestRunnerStatsReconcileUnderConcurrency hammers a small bounded Runner
// from many goroutines mixing successful jobs, pre-canceled contexts,
// deliberate timeouts, and queue-full rejections, then checks that the
// counters reconcile exactly against the client-observed outcomes. Run under
// -race (CI does), this also exercises the counter paths for data races.
func TestRunnerStatsReconcileUnderConcurrency(t *testing.T) {
	r := NewRunnerConfig(RunnerConfig{Workers: 4, Queue: 4, JobTimeout: 25 * time.Millisecond})
	// The executor sleeps briefly (building queue pressure) and honours ctx;
	// every 7th job hangs until its deadline kills it.
	r.exec = func(ctx context.Context, j Job) Result {
		hang := j.Opt.Seed%7 == 0
		d := time.Millisecond
		if hang {
			d = time.Second
		}
		select {
		case <-time.After(d):
			return Result{Job: j}
		case <-ctx.Done():
			return Result{Job: j, Err: ctx.Err()}
		}
	}

	const (
		goroutines = 8
		perG       = 30
	)
	var (
		seedSrc                          atomic.Int64
		okN, rejectedN, canceledN, failN atomic.Int64
		wg                               sync.WaitGroup
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				// Globally unique seeds keep every cache key distinct, so the
				// cache never short-circuits admission accounting.
				seed := seedSrc.Add(1)
				ctx := context.Background()
				if seed%5 == 0 {
					c, cancel := context.WithCancel(ctx)
					cancel()
					ctx = c
				}
				ch, err := r.SubmitCtx(ctx, distinctJob(seed))
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("unexpected submit error: %v", err)
					}
					rejectedN.Add(1)
					continue
				}
				res := <-ch
				switch {
				case res.Err == nil:
					okN.Add(1)
				case errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded):
					canceledN.Add(1)
				default:
					failN.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	st := r.Stats()
	total := int64(goroutines * perG)
	if got := okN.Load() + rejectedN.Load() + canceledN.Load() + failN.Load(); got != total {
		t.Fatalf("client accounting lost submissions: %d of %d", got, total)
	}
	// Every accepted submission ends in exactly one terminal counter, and the
	// mix guarantees traffic on each path.
	if st.Submitted != total-rejectedN.Load() {
		t.Fatalf("Submitted=%d, want %d accepted of %d", st.Submitted, total-rejectedN.Load(), total)
	}
	if st.CacheHits != 0 {
		t.Fatalf("distinct jobs must never hit the cache, got %d", st.CacheHits)
	}
	if st.Completed != okN.Load() {
		t.Fatalf("Completed=%d, clients observed %d successes", st.Completed, okN.Load())
	}
	if st.Canceled != canceledN.Load() {
		t.Fatalf("Canceled=%d, clients observed %d cancellations/timeouts", st.Canceled, canceledN.Load())
	}
	if st.Failed != failN.Load() {
		t.Fatalf("Failed=%d, clients observed %d failures", st.Failed, failN.Load())
	}
	if st.Rejected != rejectedN.Load() {
		t.Fatalf("Rejected=%d, clients observed %d rejections", st.Rejected, rejectedN.Load())
	}
	if st.Submitted != st.Completed+st.Failed+st.Canceled {
		t.Fatalf("terminal counters don't reconcile with Submitted: %+v", st)
	}
	// Executed counts jobs that reached a worker: everything except
	// submissions canceled while still queued.
	if st.Executed < st.Completed || st.Executed > st.Submitted {
		t.Fatalf("Executed out of range: %+v", st)
	}
	// All capacity returned: the drained Runner admits a full batch again.
	if st.Active != 0 || st.Queued != 0 {
		t.Fatalf("drained Runner must be idle: %+v", st)
	}
	if ok := r.tryAdmit(8); !ok {
		t.Fatal("drained Runner must have all admission units free")
	}
	r.releaseAdmit(8)
	if st.Completed == 0 || st.Canceled == 0 {
		t.Fatalf("test mix must exercise completions and cancellations: %+v", st)
	}
}

func TestRunnerCacheEviction(t *testing.T) {
	c := newResultCache(2)
	k := func(seed int64) cacheKey {
		return Job{Kind: JobDegrees, Seq: []int{1, 1}, Opt: &Options{Seed: seed}}.cacheKey()
	}
	c.put(k(1), Result{})
	c.put(k(2), Result{})
	if _, hit := c.get(k(1)); !hit { // touch 1 so 2 becomes LRU
		t.Fatal("expected hit for key 1")
	}
	c.put(k(3), Result{})
	if _, hit := c.get(k(2)); hit {
		t.Fatal("key 2 should have been evicted")
	}
	for _, seed := range []int64{1, 3} {
		if _, hit := c.get(k(seed)); !hit {
			t.Fatalf("key %d should survive", seed)
		}
	}
}
