// Command grloadgen drives a running grserved instance with mixed scenario
// traffic and prints a latency/throughput table. It is the service's proof
// point and the input for performance tracking: scenarios cover the three
// realization families with varying n and per-request seeds, so the
// server-side cache is exercised but not saturated.
//
// Usage:
//
//	grloadgen                                              # 16 conns, 200 reqs
//	grloadgen -c 64 -requests 500 -mix degree,tree,connectivity
//	grloadgen -mix degree:3,sweep:1 -n 96 -edges
//	grloadgen -async -requests 200                         # exercise /v1/jobs
//	grloadgen -trace-ids                                   # verify X-Request-Id round-trips
//
// Mix entries are scenario[:weight] with scenarios degree, tree,
// connectivity, and sweep. With -trace-ids, every request carries a
// deterministic X-Request-Id and the tool asserts the server echoes it back
// (and, for async jobs, persists it into the job document) — turning the
// load run into an end-to-end check of the tracing path. The latency table's
// p50/p95/p99 columns are estimated from the same fixed-bucket histogram
// type the server exports on /metrics, so client-side and server-side
// quantiles are directly comparable. With -async, every other request is driven
// through the asynchronous job API instead of the blocking endpoints —
// rotating across submit→poll, submit→SSE-stream, and submit→cancel flows —
// and reported as separate scenario+async rows, so end-to-end job latency
// lands in the same table as the sync latencies. The exit status is non-zero
// if any request fails, so the tool doubles as a CI end-to-end check.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"graphrealize/internal/api"
	"graphrealize/internal/gen"
	"graphrealize/internal/jobs"
	"graphrealize/internal/obs"
	"graphrealize/internal/serve"
	"graphrealize/internal/wire"
)

type scenario struct {
	name string
	path string
	body func(n int, seed int64) any
	// job builds the POST /v1/jobs body for the async flows; nil means the
	// scenario has no async form (sweep) and always runs synchronously.
	job func(n int, seed int64) any
}

func scenarios(variantEvery int) map[string]scenario {
	return map[string]scenario{
		"degree": {
			name: "degree",
			path: "/v1/realize/degree",
			body: func(n int, seed int64) any {
				variant := ""
				if variantEvery > 0 && seed%int64(variantEvery) == 0 {
					variant = "explicit"
				}
				return api.RealizeRequest{
					Sequence: gen.FromRandomGraph(n, 8.0/float64(n), seed),
					Variant:  variant,
					Options:  &api.OptionsJSON{Seed: seed},
				}
			},
			job: func(n int, seed int64) any {
				kind := "degrees"
				if variantEvery > 0 && seed%int64(variantEvery) == 0 {
					kind = "degrees-explicit"
				}
				return map[string]any{
					"kind":     kind,
					"sequence": gen.FromRandomGraph(n, 8.0/float64(n), seed),
					"options":  map[string]any{"seed": seed},
				}
			},
		},
		"tree": {
			name: "tree",
			path: "/v1/realize/tree",
			body: func(n int, seed int64) any {
				variant := "chain"
				if seed%2 == 0 {
					variant = "mindiam"
				}
				return api.RealizeRequest{
					Sequence: gen.TreeSequence(n, seed),
					Variant:  variant,
					Options:  &api.OptionsJSON{Seed: seed},
				}
			},
			job: func(n int, seed int64) any {
				kind := "chain-tree"
				if seed%2 == 0 {
					kind = "min-diam-tree"
				}
				return map[string]any{
					"kind":     kind,
					"sequence": gen.TreeSequence(n, seed),
					"options":  map[string]any{"seed": seed},
				}
			},
		},
		"connectivity": {
			name: "connectivity",
			path: "/v1/realize/connectivity",
			body: func(n int, seed int64) any {
				return api.RealizeRequest{
					Sequence: gen.UniformRho(n, 4, seed),
					Options:  &api.OptionsJSON{Seed: seed, Model: "ncc1"},
				}
			},
			job: func(n int, seed int64) any {
				return map[string]any{
					"kind":     "connectivity",
					"sequence": gen.UniformRho(n, 4, seed),
					"options":  map[string]any{"seed": seed, "model": "ncc1"},
				}
			},
		},
		"sweep": {
			name: "sweep",
			path: "/v1/sweep",
			body: func(n int, seed int64) any {
				req := map[string]any{
					"kind":       "degrees",
					"sequence":   gen.FromRandomGraph(n, 8.0/float64(n), seed),
					"seed_count": 4,
					"seed_start": seed,
				}
				return req
			},
		},
	}
}

type sample struct {
	scenario string
	latency  time.Duration
	bytes    int64 // response body size (bytes on the wire)
	err      string
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the grserved instance")
	conc := flag.Int("c", 16, "concurrent connections")
	requests := flag.Int("requests", 200, "total requests to send")
	mixFlag := flag.String("mix", "degree,tree,connectivity", "scenario[:weight] list")
	n := flag.Int("n", 48, "base sequence length (scenarios vary it ±50%)")
	seed := flag.Int64("seed", 1, "first per-request seed")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request client timeout")
	edges := flag.Bool("edges", false, "request edge lists in responses (heavier payloads)")
	wireFmt := flag.Bool("wire", false, "negotiate application/x-graphwire responses on the sync endpoints (async flows stay JSON); streams are decoded and validated")
	async := flag.Bool("async", false, "drive every other request through the async job API (submit/poll/stream/cancel)")
	traceIDs := flag.Bool("trace-ids", false, "send a deterministic X-Request-Id per request and verify the server echoes it")
	flag.Parse()

	if *requests <= 0 || *conc <= 0 {
		fmt.Fprintln(os.Stderr, "grloadgen: -requests and -c must be positive")
		os.Exit(2)
	}
	all := scenarios(5)
	var slots []scenario
	for _, entry := range strings.Split(*mixFlag, ",") {
		name, weightStr, hasWeight := strings.Cut(strings.TrimSpace(entry), ":")
		sc, ok := all[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "grloadgen: unknown scenario %q (want degree, tree, connectivity, or sweep)\n", name)
			os.Exit(2)
		}
		weight := 1
		if hasWeight {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "grloadgen: bad weight in %q\n", entry)
				os.Exit(2)
			}
			weight = w
		}
		for i := 0; i < weight; i++ {
			slots = append(slots, sc)
		}
	}
	if len(slots) == 0 {
		fmt.Fprintln(os.Stderr, "grloadgen: empty -mix")
		os.Exit(2)
	}
	// Three sizes around -n keep the working set diverse without letting a
	// single huge job dominate the tail.
	sizes := []int{max(8, *n/2), max(8, *n), max(8, *n+*n/2)}

	client := &http.Client{
		Timeout: *timeout,
		Transport: &http.Transport{
			MaxIdleConns:        *conc,
			MaxIdleConnsPerHost: *conc,
		},
	}
	base := strings.TrimRight(*addr, "/")

	var next atomic.Int64
	results := make([][]sample, *conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(*requests) {
					return
				}
				sc := slots[i%int64(len(slots))]
				// Index sizes (and the async split) by the mix cycle count so
				// scenario, size, and sync/async mode all decorrelate even
				// when len(slots) == len(sizes).
				cycle := i / int64(len(slots))
				nn := sizes[cycle%int64(len(sizes))]
				traceID := ""
				if *traceIDs {
					traceID = fmt.Sprintf("grloadgen-%06d", i)
				}
				if *async && sc.job != nil && cycle%2 == 1 {
					results[w] = append(results[w], runAsync(client, base, sc, nn, *seed+i, cycle, *timeout, *edges, traceID))
					continue
				}
				body := sc.body(nn, *seed+i)
				if req, ok := body.(api.RealizeRequest); ok && !*edges {
					req.OmitEdges = true
					body = req
				}
				payload, err := json.Marshal(body)
				if err != nil {
					results[w] = append(results[w], sample{scenario: sc.name, err: err.Error()})
					continue
				}
				results[w] = append(results[w], runSync(client, base, sc, payload, *wireFmt, traceID))
			}
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	var samples []sample
	for _, rs := range results {
		samples = append(samples, rs...)
	}
	report(os.Stdout, samples, wall)
	fetchStats(client, base)

	failures := 0
	for _, s := range samples {
		if s.err != "" {
			failures++
			if failures <= 5 {
				fmt.Fprintf(os.Stderr, "grloadgen: %s: %s\n", s.scenario, s.err)
			}
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "grloadgen: %d/%d requests failed\n", failures, len(samples))
		os.Exit(1)
	}
}

// runSync issues one synchronous request and measures latency plus bytes
// on the wire. With -wire the request negotiates application/x-graphwire
// and the response stream is fully decoded — a truncated or corrupt stream
// is a request failure, so the tool end-to-end-checks the binary path the
// same way it checks JSON statuses. A non-empty traceID is sent as
// X-Request-Id and must come back verbatim.
func runSync(client *http.Client, base string, sc scenario, payload []byte, wireFmt bool, traceID string) sample {
	req, err := http.NewRequest(http.MethodPost, base+sc.path, bytes.NewReader(payload))
	if err != nil {
		return sample{scenario: sc.name, err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.HeaderRequestID, traceID)
	}
	if wireFmt {
		req.Header.Set("Accept", wire.MediaType)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{scenario: sc.name, latency: time.Since(t0), err: err.Error()}
	}
	defer resp.Body.Close()
	s := sample{scenario: sc.name}
	switch {
	case traceID != "" && resp.Header.Get(obs.HeaderRequestID) != traceID:
		io.Copy(io.Discard, resp.Body)
		s.err = fmt.Sprintf("trace ID not echoed: sent %q, got %q", traceID, resp.Header.Get(obs.HeaderRequestID))
	case resp.StatusCode != http.StatusOK:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		s.err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	case wireFmt && resp.Header.Get("Content-Type") == wire.MediaType:
		counted := &countingReader{r: resp.Body}
		if _, err := wire.Decode(counted); err != nil {
			s.err = fmt.Sprintf("graphwire stream: %v", err)
		}
		s.bytes = counted.n
	default:
		if wireFmt {
			s.err = fmt.Sprintf("server ignored Accept: got Content-Type %q", resp.Header.Get("Content-Type"))
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		s.bytes = n
	}
	s.latency = time.Since(t0)
	return s
}

// countingReader counts the bytes a decoder actually consumes.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// report prints the per-scenario and total latency/throughput table.
func report(out io.Writer, samples []sample, wall time.Duration) {
	byScenario := map[string][]sample{}
	var order []string
	for _, s := range samples {
		if _, seen := byScenario[s.scenario]; !seen {
			order = append(order, s.scenario)
		}
		byScenario[s.scenario] = append(byScenario[s.scenario], s)
	}
	sort.Strings(order)

	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\treqs\terrs\tmean\tp50\tp95\tp99\tmax\tresp-B")
	row := func(name string, ss []sample) {
		// Quantiles come from the same fixed-bucket histogram the server
		// exports on /metrics, so a table row is directly comparable to a
		// histogram_quantile over graphrealize_http_request_seconds.
		hist := obs.NewHistogram(obs.DefaultLatencyBuckets)
		var sum, maxLat time.Duration
		var totalBytes, counted int64
		ok, errs := 0, 0
		for _, s := range ss {
			if s.err != "" {
				errs++
				continue
			}
			ok++
			hist.ObserveDuration(s.latency)
			sum += s.latency
			maxLat = max(maxLat, s.latency)
			if s.bytes > 0 {
				totalBytes += s.bytes
				counted++
			}
		}
		if ok == 0 {
			fmt.Fprintf(tw, "%s\t%d\t%d\t-\t-\t-\t-\t-\t-\n", name, len(ss), errs)
			return
		}
		respB := "-"
		if counted > 0 {
			respB = fmt.Sprintf("%d", totalBytes/counted)
		}
		snap := hist.Snapshot()
		q := func(p float64) time.Duration {
			return time.Duration(snap.Quantile(p) * float64(time.Second))
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			name, len(ss), errs,
			fmtMS(sum/time.Duration(ok)),
			fmtMS(q(0.50)), fmtMS(q(0.95)), fmtMS(q(0.99)),
			fmtMS(maxLat), respB)
	}
	for _, name := range order {
		row(name, byScenario[name])
	}
	row("TOTAL", samples)
	tw.Flush()
	var totalBytes int64
	for _, s := range samples {
		totalBytes += s.bytes
	}
	fmt.Fprintf(out, "wall %.2fs, throughput %.1f req/s, %d bytes on the wire\n",
		wall.Seconds(), float64(len(samples))/wall.Seconds(), totalBytes)
}

// fetchStats surfaces the server-side Runner counters after the run.
func fetchStats(client *http.Client, base string) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if json.NewDecoder(resp.Body).Decode(&st) == nil {
		fmt.Printf("server: submitted=%d rejected=%d cache_hits=%d avg_wait=%.1fms avg_run=%.1fms\n",
			st.Submitted, st.Rejected, st.CacheHits, st.AvgWaitMS, st.AvgRunMS)
		if c := st.Cluster; c != nil {
			fmt.Printf("cluster: %d alive / %d suspect / %d dead, proxied=%d failovers=%d\n",
				c.Alive, c.Suspect, c.Dead, c.Proxied, c.Failovers)
			for _, w := range c.Workers {
				fmt.Printf("  worker %s: executed=%d cache_hits=%d\n", w.Name, w.Load.Executed, w.Load.CacheHits)
			}
		}
	}
}

// jobView is the slice of the job JSON the async flows need.
type jobView struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Round   int    `json:"round"`
	Error   string `json:"error"`
	TraceID string `json:"trace_id"`
}

// terminalState resolves a wire state against the jobs package's own
// lifecycle vocabulary, so this client cannot fall out of sync with the
// server when states are added.
func terminalState(s string) bool {
	st, ok := jobs.ParseState(s)
	return ok && st.Terminal()
}

// runAsync drives one request through the asynchronous job API and reports
// the end-to-end latency from submission to observed terminal state. The
// flow rotates deterministically over the (odd, async) mix cycles: half
// submit→poll, 3/8 submit→stream SSE progress (asserting monotone rounds),
// and 1/8 submit→cancel (accepting "canceled", or "done" if the job won the
// race). Like the sync path, result payloads omit edge lists unless -edges;
// a non-empty traceID must be echoed in the 202 header and persisted into
// the job document itself.
func runAsync(client *http.Client, base string, sc scenario, n int, seed, cycle int64, timeout time.Duration, edges bool, traceID string) sample {
	name := sc.name + "+async"
	payload, err := json.Marshal(sc.job(n, seed))
	if err != nil {
		return sample{scenario: name, err: err.Error()}
	}
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return sample{scenario: name, err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.HeaderRequestID, traceID)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sample{scenario: name, err: err.Error()}
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return sample{scenario: name, latency: time.Since(t0),
			err: fmt.Sprintf("submit HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))}
	}
	if traceID != "" && resp.Header.Get(obs.HeaderRequestID) != traceID {
		return sample{scenario: name, latency: time.Since(t0),
			err: fmt.Sprintf("trace ID not echoed: sent %q, got %q", traceID, resp.Header.Get(obs.HeaderRequestID))}
	}
	var job jobView
	if err := json.Unmarshal(msg, &job); err != nil || job.ID == "" {
		return sample{scenario: name, latency: time.Since(t0), err: fmt.Sprintf("bad submit body %q", msg)}
	}
	if traceID != "" && job.TraceID != traceID {
		return sample{scenario: name, latency: time.Since(t0),
			err: fmt.Sprintf("job %s lost its trace ID: sent %q, job carries %q", job.ID, traceID, job.TraceID)}
	}

	deadline := time.Now().Add(timeout)
	if timeout <= 0 {
		deadline = time.Now().Add(24 * time.Hour) // -timeout 0: effectively unbounded
	}
	var final jobView
	var flowErr error
	wantCanceled := false
	switch {
	case cycle%16 == 15:
		wantCanceled = true
		final, flowErr = cancelFlow(client, base, job.ID, deadline, edges)
	case cycle%4 == 3:
		final, flowErr = streamFlow(client, base, job.ID, deadline)
	default:
		final, flowErr = pollFlow(client, base, job.ID, deadline, edges)
	}
	s := sample{scenario: name, latency: time.Since(t0)}
	switch {
	case flowErr != nil:
		s.err = flowErr.Error()
	case final.State == "done":
	case wantCanceled && final.State == "canceled":
	default:
		s.err = fmt.Sprintf("job ended %s: %s", final.State, final.Error)
	}
	return s
}

// pollFlow GETs the job until a terminal state.
func pollFlow(client *http.Client, base, id string, deadline time.Time, edges bool) (jobView, error) {
	url := base + "/v1/jobs/" + id
	if !edges {
		url += "?omit_edges=1"
	}
	// Exponential backoff keeps latency resolution for short jobs without a
	// sustained poll storm perturbing the latencies under measurement.
	wait := 5 * time.Millisecond
	for {
		resp, err := client.Get(url)
		if err != nil {
			return jobView{}, err
		}
		// Read the whole body: a done job's -edges payload can exceed any
		// fixed cap, and a truncated document would fail to parse.
		msg, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return jobView{}, err
		}
		if resp.StatusCode != http.StatusOK {
			return jobView{}, fmt.Errorf("poll HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
		}
		var job jobView
		if err := json.Unmarshal(msg, &job); err != nil {
			return jobView{}, fmt.Errorf("bad poll body: %v", err)
		}
		if terminalState(job.State) {
			return job, nil
		}
		if time.Now().After(deadline) {
			return job, fmt.Errorf("job %s still %s at deadline", id, job.State)
		}
		time.Sleep(wait)
		if wait *= 2; wait > 250*time.Millisecond {
			wait = 250 * time.Millisecond
		}
	}
}

// streamFlow consumes the SSE event stream to the terminal event, checking
// that reported rounds never regress. The deadline bounds the whole stream
// even when the HTTP client itself has no timeout (-timeout 0).
func streamFlow(client *http.Client, base, id string, deadline time.Time) (jobView, error) {
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return jobView{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, fmt.Errorf("events HTTP %d", resp.StatusCode)
	}
	var last jobView
	lastRound := -1
	sawEvent := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobView
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			return jobView{}, fmt.Errorf("bad event payload: %v", err)
		}
		if ev.Round < lastRound {
			return jobView{}, fmt.Errorf("progress went backwards: round %d after %d", ev.Round, lastRound)
		}
		lastRound = ev.Round
		last = ev
		sawEvent = true
		if terminalState(ev.State) {
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobView{}, err
	}
	if !sawEvent {
		return jobView{}, fmt.Errorf("event stream for %s ended without events", id)
	}
	return last, fmt.Errorf("event stream for %s ended before a terminal event (last %s)", id, last.State)
}

// cancelFlow cancels the job and waits for it to settle. The job may finish
// before the DELETE lands; the caller accepts done as well as canceled.
func cancelFlow(client *http.Client, base, id string, deadline time.Time, edges bool) (jobView, error) {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return jobView{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return jobView{}, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return jobView{}, fmt.Errorf("cancel HTTP %d", resp.StatusCode)
	}
	return pollFlow(client, base, id, deadline, edges)
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
