package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"graphrealize"
	"graphrealize/internal/wire"
)

// store.go is the durability contract of the job subsystem: a Store receives
// every externally meaningful lifecycle event and can replay the surviving
// set on open. The Manager treats the Store as a shadow of its in-memory
// ledger — the ledger serves traffic, the Store makes restarts boring.
//
// Two implementations ship: MemStore (the historical behaviour — nothing
// survives the process) and FileStore (append-only WAL plus compacted
// snapshots, wal.go/snapshot.go/filestore.go).

// PersistedOptions is the JSON-serializable projection of
// graphrealize.Options: the same field set as the Runner's cache key — every
// outcome-affecting field — and nothing else. In particular the Progress hook
// is reattached by the Manager on recovery, never persisted. Records written
// when the engine had several drivers also carry a "scheduler" number; the
// decoder ignores it, so they replay on the one driver.
type PersistedOptions struct {
	Model     int   `json:"model,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Strict    bool  `json:"strict,omitempty"`
	CapMul    int   `json:"cap_mul,omitempty"`
	Sort      int   `json:"sort,omitempty"`
	MaxRounds int   `json:"max_rounds,omitempty"`
}

func persistedOptions(o *graphrealize.Options) *PersistedOptions {
	if o == nil {
		return nil
	}
	return &PersistedOptions{
		Model:     int(o.Model),
		Seed:      o.Seed,
		Strict:    o.Strict,
		CapMul:    o.CapMul,
		Sort:      int(o.Sort),
		MaxRounds: o.MaxRounds,
	}
}

func (p *PersistedOptions) options() *graphrealize.Options {
	if p == nil {
		return nil
	}
	return &graphrealize.Options{
		Model:     graphrealize.Model(p.Model),
		Seed:      p.Seed,
		Strict:    p.Strict,
		CapMul:    p.CapMul,
		Sort:      graphrealize.SortMethod(p.Sort),
		MaxRounds: p.MaxRounds,
	}
}

// PersistedResult is a done job's realization in durable form: the graph as
// a graphwire stream plus the run statistics. Stats is stored by value —
// it is plain integers.
type PersistedResult struct {
	N int `json:"n"`
	// GraphWire is a complete single-graph graphwire stream — header,
	// META + ADJ chunks, END (WIRE.md §10) — base64-coded by JSON. It is the
	// written form for every new record; its per-chunk CRCs make at-rest
	// byte comparison and corruption detection cheap.
	GraphWire []byte `json:"graph_wire,omitempty"`
	// Edges is the JSON-era (u < v) edge list. It is never written anymore,
	// only read: the version sniff on recovery is simply which of the two
	// graph fields a record carries, GraphWire preferred (WIRE.md §8), so
	// data directories from before the wire format recover unchanged.
	Edges    [][2]int           `json:"edges,omitempty"`
	Envelope []int              `json:"envelope,omitempty"`
	Stats    graphrealize.Stats `json:"stats"`
	Cached   bool               `json:"cached,omitempty"`
}

func persistedResult(res *graphrealize.Result) *PersistedResult {
	if res == nil || res.Graph == nil {
		return nil
	}
	out := &PersistedResult{
		N:        res.Graph.N,
		Envelope: res.Envelope,
		Cached:   res.Cached,
	}
	if res.Stats != nil {
		out.Stats = *res.Stats
	}
	if b, err := wire.EncodeGraph(res.Graph.N, res.Graph.Adj); err == nil {
		out.GraphWire = b
	} else {
		// A canonical Graph always encodes; if one ever does not, keep the
		// result durable in the legacy form rather than lose it.
		out.Edges = res.Graph.Edges()
	}
	return out
}

// result rebuilds the shared Result a recovered done-job serves, from
// whichever graph form the record carries (wire-era GraphWire, or the
// JSON-era Edges list).
func (p *PersistedResult) result(j graphrealize.Job) (*graphrealize.Result, error) {
	if p == nil {
		return nil, nil
	}
	var g *graphrealize.Graph
	if len(p.GraphWire) > 0 {
		msg, err := wire.Decode(bytes.NewReader(p.GraphWire))
		if err != nil {
			return nil, fmt.Errorf("jobs: persisted graph_wire: %w", err)
		}
		if !msg.HasGraph || msg.N != p.N {
			return nil, fmt.Errorf("jobs: persisted graph_wire carries n=%d (HasGraph=%v), record says n=%d", msg.N, msg.HasGraph, p.N)
		}
		g = &graphrealize.Graph{N: msg.N, Adj: msg.Adj}
	} else {
		g = &graphrealize.Graph{N: p.N, Adj: make([][]int, p.N)}
		for _, e := range p.Edges {
			if e[0] < 0 || e[0] >= p.N || e[1] < 0 || e[1] >= p.N {
				return nil, fmt.Errorf("jobs: persisted edge %v out of range [0,%d)", e, p.N)
			}
			g.Adj[e[0]] = append(g.Adj[e[0]], e[1])
			g.Adj[e[1]] = append(g.Adj[e[1]], e[0])
		}
		for _, a := range g.Adj {
			sort.Ints(a)
		}
	}
	st := p.Stats
	return &graphrealize.Result{Job: j, Graph: g, Envelope: p.Envelope, Stats: &st, Cached: p.Cached}, nil
}

// PersistedJob is one job's full durable state: enough to serve a terminal
// job's result forever, and enough to re-run a non-terminal job
// deterministically (the recorded seed travels in Options).
type PersistedJob struct {
	ID      string            `json:"id"`
	Kind    int               `json:"kind"`
	Seq     []int             `json:"seq"`
	Label   string            `json:"label,omitempty"`
	TraceID string            `json:"trace_id,omitempty"`
	Timeout int64             `json:"timeout_ns,omitempty"`
	Options *PersistedOptions `json:"options,omitempty"`

	State    State            `json:"state"`
	Created  time.Time        `json:"created"`
	Started  time.Time        `json:"started,omitzero"`
	Finished time.Time        `json:"finished,omitzero"`
	Error    string           `json:"error,omitempty"`
	Result   *PersistedResult `json:"result,omitempty"`
}

// jobSpec rebuilds the Runner job a recovered record re-runs (or is keyed
// by). The Options carry the recorded seed, so the re-run is deterministic.
func (p *PersistedJob) jobSpec() graphrealize.Job {
	return graphrealize.Job{
		Kind:    graphrealize.JobKind(p.Kind),
		Seq:     p.Seq,
		Opt:     p.Options.options(),
		Label:   p.Label,
		TraceID: p.TraceID,
		Timeout: time.Duration(p.Timeout),
	}
}

// persistedJob projects a record, with the given state, error, result and
// finish time, onto its durable form. A job that failed or was canceled
// persists its error and no result; a done one, or one expired after it was
// done, its result.
func persistedJob(rec *record, st State, jerr error, res *graphrealize.Result, finished time.Time) PersistedJob {
	rec.mu.Lock()
	started := rec.started
	rec.mu.Unlock()
	pj := PersistedJob{
		ID:       rec.id,
		Kind:     int(rec.job.Kind),
		Seq:      rec.job.Seq,
		Label:    rec.job.Label,
		TraceID:  rec.job.TraceID,
		Timeout:  int64(rec.job.Timeout),
		Options:  persistedOptions(rec.job.Opt),
		State:    st,
		Created:  rec.created,
		Started:  started,
		Finished: finished,
	}
	if jerr != nil {
		pj.Error = jerr.Error()
	} else {
		pj.Result = persistedResult(res)
	}
	return pj
}

// StoreStats is a point-in-time snapshot of a Store's durability gauges.
type StoreStats struct {
	Durable      bool  // false for MemStore
	WALRecords   int64 // records appended to the current WAL segment
	WALBytes     int64 // bytes in the current WAL segment
	Compactions  int64 // snapshots written since open
	Recovered    int   // jobs reloaded at open
	ReplayErrors int   // corrupt/truncated WAL records dropped at open
}

// Store persists job lifecycle events and replays them on open. All methods
// must be safe for concurrent use; LogTerminal must be durable (synced to
// stable storage) before it returns, the other appends may be best-effort.
// A Store error never fails the in-memory operation that triggered it — the
// Manager counts it (Stats.PersistErrors) and serves on.
type Store interface {
	// Recover returns every job surviving in the store, oldest first. It is
	// called once, before any Log call.
	Recover() ([]PersistedJob, error)
	// LogSubmitted appends a freshly admitted job (state queued, no result).
	LogSubmitted(pj PersistedJob) error
	// LogTerminal appends a job's terminal state (done jobs carry their
	// result) and syncs it to stable storage before returning.
	LogTerminal(pj PersistedJob) error
	// LogExpired appends the first GC phase for one job.
	LogExpired(id string) error
	// LogRemoved appends the second GC phase (or a capacity eviction).
	LogRemoved(ids []string) error
	// Compact replaces the store's contents with the given live set: a
	// snapshot is written and the WAL truncated, physically dropping
	// removed jobs from disk.
	Compact(live []PersistedJob) error
	// Stats reports the durability gauges for /metrics.
	Stats() StoreStats
	// Close releases resources. No Log/Compact calls may follow.
	Close() error
}

// MemStore is the non-durable Store: every operation is a no-op and nothing
// survives a restart. It is the default, preserving the pre-persistence
// behaviour of the job subsystem exactly.
type MemStore struct{}

// Recover returns no jobs: memory starts empty.
func (MemStore) Recover() ([]PersistedJob, error) { return nil, nil }

// LogSubmitted is a no-op.
func (MemStore) LogSubmitted(PersistedJob) error { return nil }

// LogTerminal is a no-op.
func (MemStore) LogTerminal(PersistedJob) error { return nil }

// LogExpired is a no-op.
func (MemStore) LogExpired(string) error { return nil }

// LogRemoved is a no-op.
func (MemStore) LogRemoved([]string) error { return nil }

// Compact is a no-op.
func (MemStore) Compact([]PersistedJob) error { return nil }

// Stats reports a non-durable store with empty gauges.
func (MemStore) Stats() StoreStats { return StoreStats{} }

// Close is a no-op.
func (MemStore) Close() error { return nil }

// errStoreClosed guards Log calls after Close (a programming error surfaced
// as a counted persist error rather than a panic).
var errStoreClosed = errors.New("jobs: store is closed")
