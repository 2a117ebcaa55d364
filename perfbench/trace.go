package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphrealize"
	"graphrealize/internal/serve"
)

// trace.go records the traced run's spans from the benchmark's own
// wrappers around the calls into each layer: every server's http.Handler
// and the serve.Backend handed to serve.New. Spans stay in memory and are
// written out when the run ends.

const headerRequestID = "X-Request-Id"

// span is one timed call. Spans of one request share its X-Request-Id.
type span struct {
	id, parent int64
	name       string // "client", "handler" or "backend"
	node       string // "client", or the server the call ran on
	reqID      string
	start, end time.Duration // since the tracer's epoch
}

func (s *span) dur() time.Duration { return s.end - s.start }

type tracer struct {
	epoch  time.Time
	on     atomic.Bool // record only during the traced phase
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type spanKey struct{}

// handler wraps a server's routing table in a "handler" span and hands the
// span's ID to the backend wrapper through the request context.
func (t *tracer) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.nextID.Add(1)
		start := t.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.record(span{id: id, name: "handler", node: node, reqID: r.Header.Get(headerRequestID), start: start, end: t.now()})
	})
}

// tracedBackend wraps a serve.Backend in "backend" spans lasting from
// submission until the result is delivered.
type tracedBackend struct {
	serve.Backend
	t    *tracer
	node string
}

func (b *tracedBackend) SubmitCtx(ctx context.Context, j graphrealize.Job) (<-chan graphrealize.Result, error) {
	if !b.t.on.Load() {
		return b.Backend.SubmitCtx(ctx, j)
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	s := span{id: b.t.nextID.Add(1), parent: parent, name: "backend", node: b.node, reqID: j.TraceID, start: b.t.now()}
	ch, err := b.Backend.SubmitCtx(ctx, j)
	if err != nil {
		s.end = b.t.now()
		b.t.record(s)
		return nil, err
	}
	out := make(chan graphrealize.Result, 1)
	go func() {
		res := <-ch // every accepted submission delivers exactly one result
		s.end = b.t.now()
		b.t.record(s)
		out <- res
	}()
	return out, nil
}

// tracedRunner is a tracedBackend over a Runner. It forwards Obs, so the
// server keeps exporting the Runner's engine phases in /v1/stats.
type tracedRunner struct {
	*tracedBackend
	runner *graphrealize.Runner
}

func (r tracedRunner) Obs() *graphrealize.RunnerObs { return r.runner.Obs() }

// requestSpans groups one traced op's spans.
type requestSpans struct {
	client, entry, entryBackend *span
	worker                      *span // the worker's handler span behind a coordinator
}

// link resolves each op's spans by request ID and sets the parents the
// wrappers could not see: an entry handler's parent is the client span, and
// a worker handler's parent is the coordinator's backend span.
func link(spans []span, entry string) map[string]*requestSpans {
	byReq := make(map[string]*requestSpans)
	for i := range spans {
		s := &spans[i]
		if s.reqID == "" {
			continue
		}
		rs := byReq[s.reqID]
		if rs == nil {
			rs = &requestSpans{}
			byReq[s.reqID] = rs
		}
		switch {
		case s.name == "client":
			rs.client = s
		case s.node == entry && s.name == "handler":
			rs.entry = s
		case s.node == entry && s.name == "backend":
			rs.entryBackend = s
		case s.name == "handler":
			rs.worker = s
		}
	}
	for _, rs := range byReq {
		if rs.entry != nil && rs.client != nil {
			rs.entry.parent = rs.client.id
		}
		if rs.worker != nil && rs.entryBackend != nil {
			rs.worker.parent = rs.entryBackend.id
		}
	}
	return byReq
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s *span, children []*span) time.Duration {
	type iv struct{ a, b time.Duration }
	var cover []iv
	for _, c := range children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			cover = append(cover, iv{a, b})
		}
	}
	slices.SortFunc(cover, func(x, y iv) int { return cmp.Compare(x.a, y.a) })
	covered, reach := time.Duration(0), s.start
	for _, c := range cover {
		if c.b <= reach {
			continue
		}
		covered += c.b - max(c.a, reach)
		reach = c.b
	}
	return s.dur() - covered
}

// writeSpans writes spans as JSON lines, times in nanoseconds.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"node":%q,"request_id":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, s.parent, s.name, s.node, s.reqID, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	return bw.Flush()
}
