package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphrealize/internal/wire"
)

// bench.go drives one workload: set-up, the closed-loop timed phases and
// the checks around them.

// clients is the number of closed-loop client connections.
const clients = 2

// keepTimed is how many of the first timed requests of a cold workload keep
// their result graphs, for the pairwise connectivity check and the encoder
// timings after the timed phase (two of each kind).
const keepTimed = 2 * int(numKinds)

// loadClient is one closed-loop client: one keep-alive connection and
// buffers reused from request to request.
type loadClient struct {
	http *http.Client
	body bytes.Buffer
	res  result
}

func newLoadClient() *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// sample is one request's outcome.
type sample struct {
	index int
	kind  kind
	ok    bool
	lat   time.Duration
	done  time.Duration // completion time, from the start of the phase
	bytes int
	stats respStats
}

// kept is a timed result kept for the checks after the timed phase.
type kept struct {
	o   op
	adj [][]int
}

type bench struct {
	w       *workload
	seed    int64
	tr      *tracer // nil in an untraced run
	st      *stack
	clients [clients]*loadClient

	warm []op
	refs []*reference // per hot key, filled by the warm-up

	keepBelow int // timed requests below this index keep their graphs
	keepMu    sync.Mutex
	kept      []kept

	errMu    sync.Mutex
	firstErr error
}

func newBench(w *workload, seed int64, tr *tracer) *bench {
	b := &bench{w: w, seed: seed, tr: tr}
	for i := range b.clients {
		b.clients[i] = newLoadClient()
	}
	return b
}

func (b *bench) close() {
	if b.st != nil {
		b.st.close()
		b.st = nil
	}
	for _, c := range b.clients {
		c.http.CloseIdleConnections()
	}
}

// release drops the benchmark's own copies of inputs and answers — warm-up
// requests, hot-key references, kept results and the clients' last answers
// — so that a forced collection leaves only what the servers retain.
func (b *bench) release() {
	b.warm, b.refs, b.kept = nil, nil, nil
	for _, c := range b.clients {
		c.body = bytes.Buffer{}
		c.res = result{}
	}
}

// setup generates the workload's inputs, starts a fresh stack and sends the
// warm-up requests. Every warm-up answer must pass its checks. The previous
// stack, if any, must be closed first.
func (b *bench) setup() error {
	b.warm = b.w.warm(b.seed)
	b.refs = make([]*reference, len(b.warm))
	st, err := startStack(b.w.cluster, b.tr)
	if err != nil {
		return err
	}
	b.st = st
	out := b.phase(func(i int) op { return b.warm[i] }, 0, len(b.warm), 0, false)
	if failed := failedCount(out.samples); failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", failed, len(out.samples), b.firstErr)
	}
	return nil
}

func (b *bench) timedOp(i int) op { return b.w.timed(b.seed, b.warm, i) }

// phaseOut is one closed-loop phase's samples, in request order, and its
// wall time.
type phaseOut struct {
	samples []sample
	elapsed time.Duration
	next    int // the first request index the phase did not send
}

// phase runs the closed loop: each client sends request first, first+1, …
// in turn, the next only after the previous answer. It stops after n
// requests when n > 0, otherwise at the first request due after d.
func (b *bench) phase(opAt func(int) op, first, n int, d time.Duration, traced bool) phaseOut {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(d)
	var per [clients][]sample
	var wg sync.WaitGroup
	for c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if n <= 0 && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if n > 0 && i >= first+n {
					return
				}
				s := b.do(b.clients[c], opAt(i), i, traced)
				s.done = time.Since(start)
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	out := phaseOut{elapsed: time.Since(start)}
	for _, s := range per {
		out.samples = append(out.samples, s...)
	}
	slices.SortFunc(out.samples, func(x, y sample) int { return x.index - y.index })
	out.next = first + len(out.samples) // every index taken below the stop was sent
	return out
}

func (b *bench) fail(err error) {
	b.errMu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.errMu.Unlock()
}

// do sends one request, times it from send to the last body byte, and
// checks the answer.
func (b *bench) do(c *loadClient, o op, i int, traced bool) sample {
	s := sample{index: i, kind: o.kind}
	req, err := http.NewRequest(http.MethodPost, b.st.entry.url+o.kind.path(), bytes.NewReader(o.body))
	if err != nil {
		b.fail(err)
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if b.w.wire {
		req.Header.Set("Accept", wire.MediaType)
	}
	reqID := ""
	if traced {
		reqID = fmt.Sprintf("perfbench-%d", i)
		req.Header.Set(headerRequestID, reqID)
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err == nil {
		c.body.Reset()
		_, err = c.body.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(start)
	if traced {
		at := start.Sub(b.tr.epoch)
		b.tr.record(span{id: b.tr.nextID.Add(1), name: "client", node: "client", reqID: reqID, start: at, end: at + s.lat})
	}
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("%s: status %s", o.kind, resp.Status)
	default:
		s.bytes = c.body.Len()
		err = b.check(c, o, i)
	}
	if err != nil {
		b.fail(fmt.Errorf("request %d: %w", i, err))
		return s
	}
	s.ok = true
	s.stats = c.res.doc.Stats
	return s
}

// check decodes and checks one answer. A hot key's first answer becomes
// its reference; later answers must match it.
func (b *bench) check(c *loadClient, o op, i int) error {
	body, r := c.body.Bytes(), &c.res
	var ref *reference
	if o.key >= 0 {
		ref = b.refs[o.key]
	}
	var err error
	switch {
	case ref != nil && !b.w.wire:
		err = decodeHotJSON(body, ref, r)
	case b.w.wire:
		err = decodeWire(body, r)
	default:
		err = decodeJSON(body, r)
	}
	if err != nil {
		return fmt.Errorf("%s: undecodable answer: %w", o.kind, err)
	}
	if ref != nil {
		if r.doc.N != ref.n || r.doc.M != ref.m || (r.adj != nil && !slices.EqualFunc(r.adj, ref.adj, slices.Equal)) {
			return fmt.Errorf("%s: answer for key %d differs from its first answer", o.kind, o.key)
		}
		return nil
	}
	if err := checkResult(o, r); err != nil {
		return err
	}
	switch {
	case o.key >= 0:
		b.refs[o.key] = &reference{n: r.doc.N, m: r.doc.M, edges: bytes.Clone(r.doc.Edges), adj: r.adj}
	case i < b.keepBelow:
		b.keepMu.Lock()
		b.kept = append(b.kept, kept{o, r.adj})
		b.keepMu.Unlock()
	}
	return nil
}

// graphs returns the result graphs the post-phase checks and encoder
// timings use: every hot key's reference, or the kept cold results.
func (b *bench) graphs() []kept {
	if len(b.warm) > 0 && b.warm[0].key >= 0 {
		out := make([]kept, len(b.warm))
		for i, o := range b.warm {
			out[i] = kept{o, b.refs[i].adj}
		}
		return out
	}
	out := slices.Clone(b.kept)
	slices.SortFunc(out, func(x, y kept) int { return bytes.Compare(x.o.body, y.o.body) })
	return out
}

// checkConnectivity runs the pairwise λ(u,v) ≥ min(ρu, ρv) check on up to
// eight connectivity results, eight seeded pairs each.
func (b *bench) checkConnectivity() (int, error) {
	var conns []kept
	for _, k := range b.graphs() {
		if k.o.kind.isConn() && len(conns) < 8 {
			conns = append(conns, k)
		}
	}
	return checkPairs(b.seed, conns, 8)
}

// runtimeSnap is the Go runtime's counters at one instant.
type runtimeSnap struct {
	allocBytes, gcCycles, liveBytes uint64
	gcCPU, totalCPU                 float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[1].Value.Uint64(),
		liveBytes:  s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

// liveHeap returns the heap left live after two forced collections. The
// second one drops the sync.Pool victim caches the last requests left
// behind, which one collection keeps and which made the figure bimodal.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readRuntime().liveBytes
}

// maxGoroutines samples the goroutine count every millisecond until stop is
// closed, then sends the largest count seen.
func maxGoroutines(stop <-chan struct{}) <-chan int {
	out := make(chan int, 1)
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return out
}

// statsClient reads /v1/stats outside the load connections.
func statsClient() *http.Client {
	return &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
}

func (b *bench) stats(c *http.Client) (statsSnap, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return b.st.stats(ctx, c)
}

// requestDigest hashes every request body sent, in request order.
func requestDigest(warm []op, opAt func(int) op, timed []sample) [sha256.Size]byte {
	h := sha256.New()
	for _, o := range warm {
		h.Write(o.body)
	}
	for _, s := range timed {
		fmt.Fprintf(h, "|%d|", s.index)
		h.Write(opAt(s.index).body)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
