package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"graphrealize"
	"graphrealize/internal/cluster"
	"graphrealize/internal/serve"
)

// stack.go starts the serving stack in-process, assembled from the same
// exported constructors grserved uses and with grserved's defaults (run
// with -quiet): a single node, or a coordinator with two joined workers.

// server is one HTTP listener on loopback.
type server struct {
	name   string
	url    string
	engine bool // has a local Runner, so /v1/stats carries engine phases
	srv    *http.Server
	served chan error
}

func listen(name string, engine bool, h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen for %s: %w", name, err)
	}
	s := &server{
		name:   name,
		url:    "http://" + ln.Addr().String(),
		engine: engine,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // nothing is in flight once the clients have returned
	<-s.served
}

// stack is a running serving topology.
type stack struct {
	entry   *server   // the server the clients talk to
	servers []*server // every server, entry first
	peer    *http.Client

	stopJoin context.CancelFunc
	joined   sync.WaitGroup
}

// newPeerClient is the transport for coordinator→worker and joiner calls:
// http.DefaultTransport's settings, owned by one stack so closing the stack
// leaves no idle connections behind.
func newPeerClient() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.Proxy = nil
	return &http.Client{Transport: tr}
}

// startNode starts one grserved node over a fresh Runner.
func startNode(name string, tr *tracer) (*server, *graphrealize.Runner, error) {
	runner := graphrealize.NewRunnerConfig(graphrealize.RunnerConfig{Queue: 256, JobTimeout: time.Minute})
	var backend serve.Backend = runner
	if tr != nil {
		backend = tracedRunner{&tracedBackend{Backend: runner, t: tr, node: name}, runner}
	}
	s, err := listen(name, true, wrapHandler(tr, name, serve.New(serve.Config{Backend: backend}).Handler()))
	return s, runner, err
}

func wrapHandler(tr *tracer, node string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return tr.handler(node, h)
}

// startStack starts a single node, or a coordinator and two workers joined
// with cluster.Joiner. It returns once every worker is routable.
func startStack(clustered bool, tr *tracer) (*stack, error) {
	st := &stack{peer: newPeerClient(), stopJoin: func() {}}
	if !clustered {
		node, _, err := startNode("node", tr)
		if err != nil {
			return nil, err
		}
		st.entry = node
		st.servers = []*server{node}
		return st, nil
	}
	registry := cluster.NewRegistry(cluster.RegistryConfig{})
	cb := cluster.NewBackend(cluster.BackendConfig{Registry: registry, Client: st.peer})
	var backend serve.Backend = cb
	if tr != nil {
		backend = &tracedBackend{Backend: cb, t: tr, node: "coordinator"}
	}
	h := serve.New(serve.Config{Backend: backend, Cluster: cb}).Handler()
	coord, err := listen("coordinator", false, wrapHandler(tr, "coordinator", h))
	if err != nil {
		return nil, err
	}
	st.entry = coord
	st.servers = []*server{coord}
	ctx, cancel := context.WithCancel(context.Background())
	st.stopJoin = cancel
	for _, name := range []string{"w1", "w2"} {
		node, runner, err := startNode(name, tr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, node)
		joiner, err := cluster.NewJoiner(cluster.JoinConfig{
			Coordinator: coord.url,
			Name:        name,
			Advertise:   node.url,
			Capacity:    runner.Stats().Workers,
			Interval:    time.Second,
			Stats:       runner.Stats,
			Client:      st.peer,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.joined.Add(1)
		go func() {
			defer st.joined.Done()
			joiner.Run(ctx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(registry.Routable()) < 2 {
		if time.Now().After(deadline) {
			st.close()
			return nil, errors.New("workers did not register within 10s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return st, nil
}

// close stops the joiners, then every server, and waits for all of them.
func (st *stack) close() {
	st.stopJoin()
	st.joined.Wait()
	for _, s := range st.servers {
		s.close()
	}
	st.peer.CloseIdleConnections()
}

// statsDoc is the part of GET /v1/stats the benchmark reads.
type statsDoc struct {
	Submitted int64               `json:"submitted"`
	Executed  int64               `json:"executed"`
	CacheHits int64               `json:"cache_hits"`
	AvgWaitMS float64             `json:"avg_wait_ms"`
	AvgRunMS  float64             `json:"avg_run_ms"`
	Phases    map[string]phaseDoc `json:"phases"`
	Cluster   *clusterCounts      `json:"cluster"`
}

type phaseDoc struct {
	Rounds    int64   `json:"rounds"`
	ComputeS  float64 `json:"compute_s"`
	DeliveryS float64 `json:"delivery_s"`
	BarrierS  float64 `json:"barrier_s"`
}

type clusterCounts struct {
	Failovers   int64 `json:"failovers"`
	Proxied     int64 `json:"proxied"`
	ProxyErrors int64 `json:"proxy_errors"`
}

func fetchStats(ctx context.Context, c *http.Client, s *server) (statsDoc, error) {
	var doc statsDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return doc, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return doc, fmt.Errorf("stats of %s: %w", s.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, fmt.Errorf("stats of %s: %s", s.name, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return doc, fmt.Errorf("stats of %s: %w", s.name, err)
	}
	return doc, nil
}

// statsSnap holds /v1/stats of every server, in stack order.
type statsSnap []statsDoc

func (st *stack) stats(ctx context.Context, c *http.Client) (statsSnap, error) {
	out := make(statsSnap, len(st.servers))
	for i, s := range st.servers {
		doc, err := fetchStats(ctx, c, s)
		if err != nil {
			return nil, err
		}
		out[i] = doc
	}
	return out, nil
}
