package jobs

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"graphrealize"
)

// record.go holds the job lifecycle: the states, the externally visible
// Snapshot, and the per-job record with its concurrency contract.

// State is a job's position in the lifecycle
//
//	queued → running → done | failed | canceled → expired → (removed)
//
// Transitions only move rightward. A job may skip "running" (a cache-served
// or immediately failing job goes queued → done/failed directly), and every
// terminal outcome passes through "expired" for one GC interval before the
// record is removed, so clients polling a finished job see its state age out
// before their GETs start returning 404.
type State string

const (
	// StateQueued: admitted by the Runner but not yet executing.
	StateQueued State = "queued"
	// StateRunning: the simulation has started (first progress barrier seen).
	StateRunning State = "running"
	// StateDone: finished with a result (which may be ErrUnrealizable-free
	// graph output; realization failures of the input are StateFailed).
	StateDone State = "done"
	// StateFailed: finished with an error (unrealizable input, strict-mode
	// violation, job timeout, ...).
	StateFailed State = "failed"
	// StateCanceled: stopped by DELETE or manager drain before completing;
	// the engine unwound at a round barrier (ncc.ErrCanceled → ctx error).
	StateCanceled State = "canceled"
	// StateExpired: a terminal job past its retention TTL, queryable for one
	// more GC interval before the record is dropped.
	StateExpired State = "expired"
)

// States lists every state in lifecycle order (for metrics exposition).
var States = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateExpired}

// Terminal reports whether no further execution can happen in this state.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateExpired:
		return true
	}
	return false
}

// ParseState resolves a wire string ("queued", "running", ...) to a State.
func ParseState(s string) (State, bool) {
	for _, st := range States {
		if string(st) == s {
			return st, true
		}
	}
	return "", false
}

// Snapshot is an immutable copy of a job's externally visible state. Result
// points at the shared job outcome and must be treated as read-only (the
// same convention as Runner cache hits).
type Snapshot struct {
	ID       string
	Kind     graphrealize.JobKind
	Label    string
	TraceID  string // request-correlation ID, "" when the submitter sent none
	N        int    // sequence length
	State    State
	Round    int // rounds completed at the last progress barrier
	Messages int // messages delivered at the last progress barrier
	Created  time.Time
	Started  time.Time // zero until the first progress barrier
	Finished time.Time // zero until terminal
	Err      error     // non-nil in failed/canceled
	Result   *graphrealize.Result
	// Recovered marks a job reloaded (or re-queued) from the durable store
	// after a restart rather than submitted over this process's lifetime.
	Recovered bool
}

// outcomeOf maps a Runner result onto the job's terminal state. It is shared
// by the in-memory transition (record.finishAt) and the durable log
// (Manager.persistTerminal) so the two can never disagree about an outcome.
func outcomeOf(res graphrealize.Result) (State, error) {
	switch {
	case res.Err == nil:
		return StateDone, nil
	case errors.Is(res.Err, context.Canceled):
		return StateCanceled, res.Err
	default:
		// Timeouts (DeadlineExceeded), unrealizable inputs, strict-mode
		// violations: the job ran and failed.
		return StateFailed, res.Err
	}
}

// record is one job's full server-side state. Concurrency contract:
//
//   - round/msgs are written lock-free by the engine's driver goroutine at
//     every barrier and read via atomics by snapshot().
//   - subs is copy-on-write: notifyAll (engine goroutine, once per round)
//     loads the pointer without locking; addSub/removeSub swap in a copy
//     under mu.
//   - everything else (state, times, result) is guarded by mu; writers are
//     the manager (submit/cancel/GC) and the per-job watch goroutine.
type record struct {
	id        string
	job       graphrealize.Job
	created   time.Time
	recovered bool
	cancel    context.CancelFunc

	round atomic.Int64
	msgs  atomic.Int64
	ran   atomic.Bool // guards the one-time queued → running transition
	subs  atomic.Pointer[[]chan struct{}]

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	result   *graphrealize.Result
	err      error
}

// reportProgress is installed as the job's Progress hook. It runs on
// the simulation's driver goroutine between rounds, so the hot path is two
// atomic stores and a lock-free fan-out; only the first call (the queued →
// running transition) takes the record mutex. The transition happens before
// the watermark stores so that — together with snapshot() loading the
// atomics first — no snapshot can ever pair state "queued" with non-zero
// progress.
func (r *record) reportProgress(round, msgs int) {
	if r.ran.CompareAndSwap(false, true) {
		r.mu.Lock()
		if r.state == StateQueued {
			r.state = StateRunning
			r.started = time.Now()
		}
		r.mu.Unlock()
	}
	r.round.Store(int64(round))
	r.msgs.Store(int64(msgs))
	r.notifyAll()
}

// finishAt records the job's outcome at the given instant. It runs exactly
// once, on the watch goroutine, after the Runner's result channel delivered —
// by which time the engine has unwound, so no progress callback can race the
// terminal state. The instant is supplied by the caller so the durable log
// (written before this transition becomes visible) carries the same
// timestamp.
func (r *record) finishAt(res graphrealize.Result, now time.Time) {
	st, err := outcomeOf(res)
	r.mu.Lock()
	r.state = st
	if st == StateDone {
		r.result = &res
	} else {
		r.err = err
	}
	r.finished = now
	r.mu.Unlock()
	r.cancel() // release the per-job context's resources
	r.notifyAll()
}

// expire moves a terminal record into StateExpired (first GC phase).
func (r *record) expire() {
	r.mu.Lock()
	r.state = StateExpired
	r.mu.Unlock()
	r.notifyAll()
}

func (r *record) snapshot() Snapshot {
	// Watermarks first, state second: a non-zero round implies the running
	// transition already happened (reportProgress orders it before the
	// stores), so the snapshot can lag in progress but never claim "queued"
	// while carrying progress.
	round := int(r.round.Load())
	msgs := int(r.msgs.Load())
	r.mu.Lock()
	snap := Snapshot{
		ID:        r.id,
		Kind:      r.job.Kind,
		Label:     r.job.Label,
		TraceID:   r.job.TraceID,
		N:         len(r.job.Seq),
		State:     r.state,
		Round:     round,
		Messages:  msgs,
		Created:   r.created,
		Started:   r.started,
		Finished:  r.finished,
		Err:       r.err,
		Result:    r.result,
		Recovered: r.recovered,
	}
	r.mu.Unlock()
	return snap
}

func (r *record) currentState() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *record) addSub(sig chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.subs.Load()
	list := make([]chan struct{}, 0, 1)
	if old != nil {
		list = append(list, *old...)
	}
	list = append(list, sig)
	r.subs.Store(&list)
}

func (r *record) removeSub(sig chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.subs.Load()
	if old == nil {
		return
	}
	list := make([]chan struct{}, 0, len(*old))
	for _, s := range *old {
		if s != sig {
			list = append(list, s)
		}
	}
	r.subs.Store(&list)
}

// notifyAll posts a coalescing wake-up to every subscriber: each signal
// channel has capacity 1, so a slow consumer accumulates at most one pending
// token and re-reads the latest snapshot when it drains it. States only move
// forward, so coalescing can never hide a terminal transition.
func (r *record) notifyAll() {
	subs := r.subs.Load()
	if subs == nil {
		return
	}
	for _, sig := range *subs {
		select {
		case sig <- struct{}{}:
		default:
		}
	}
}
