package main

import (
	"encoding/json"
	"math/rand/v2"
)

// kind is one of the service's six realization request types.
type kind int

const (
	degImplicit kind = iota
	degExplicit
	treeChain
	treeMinDiam
	connNCC1
	connNCC0
	numKinds
)

var kindNames = [numKinds]string{
	"degree-implicit", "degree-explicit", "tree-chain", "tree-mindiam",
	"connectivity-ncc1", "connectivity-ncc0",
}

func (k kind) String() string { return kindNames[k] }

func (k kind) path() string {
	switch k {
	case degImplicit, degExplicit:
		return "/v1/realize/degree"
	case treeChain, treeMinDiam:
		return "/v1/realize/tree"
	}
	return "/v1/realize/connectivity"
}

func (k kind) isDegree() bool { return k == degImplicit || k == degExplicit }
func (k kind) isTree() bool   { return k == treeChain || k == treeMinDiam }
func (k kind) isConn() bool   { return k == connNCC1 || k == connNCC0 }

// op is one request: its type, the sequence it asks the service to realize
// (kept for checking the answer) and the JSON body sent.
type op struct {
	kind kind
	seq  []int
	body []byte
	// key is the hot-key index of a warm or hot request, -1 for a fresh one.
	key int
}

// realizeRequest is the body of POST /v1/realize/{alg}. The scheduler is
// left unset, so every request runs on the server's default driver.
type realizeRequest struct {
	Sequence []int       `json:"sequence"`
	Variant  string      `json:"variant,omitempty"`
	Options  requestOpts `json:"options"`
}

type requestOpts struct {
	Model string `json:"model,omitempty"`
	Seed  int64  `json:"seed"`
}

// newOp draws a fresh (sequence, seed) pair of kind k on n vertices.
func newOp(r *rand.Rand, k kind, n, key int) op {
	req := realizeRequest{Options: requestOpts{Seed: 1 + r.Int64N(1<<31)}}
	switch k {
	case degImplicit, degExplicit:
		req.Sequence = gnpDegrees(r, n, 8/float64(n))
		if k == degExplicit {
			req.Variant = "explicit"
		}
	case treeChain, treeMinDiam:
		req.Sequence = treeDegrees(r, n)
		if k == treeMinDiam {
			req.Variant = "mindiam"
		}
	default:
		req.Sequence = uniformRho(r, n, 4)
		if k == connNCC1 {
			req.Options.Model = "ncc1"
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // ints and strings always marshal
	}
	return op{kind: k, seq: req.Sequence, body: body, key: key}
}

// gnpDegrees is the degree sequence of a G(n,p) sample: graphic by
// construction.
func gnpDegrees(r *rand.Rand, n int, p float64) []int {
	d := make([]int, n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				d[u]++
				d[v]++
			}
		}
	}
	return d
}

// treeDegrees is the degree sequence of a uniformly random labelled tree:
// one plus each vertex's multiplicity in a random Prüfer string.
func treeDegrees(r *rand.Rand, n int) []int {
	d := make([]int, n)
	for i := range d {
		d[i] = 1
	}
	for i := 0; i < n-2; i++ {
		d[r.IntN(n)]++
	}
	return d
}

// uniformRho is a connectivity threshold vector with ρ(v) uniform in [1, hi].
func uniformRho(r *rand.Rand, n, hi int) []int {
	rho := make([]int, n)
	for i := range rho {
		rho[i] = 1 + r.IntN(hi)
	}
	return rho
}

// Random streams: every op is drawn from its own PCG stream, so op i is a
// function of (seed, i) alone, whichever client sends it and whenever.
const (
	streamWarm  = 1 << 40
	streamTimed = 2 << 40
	streamCheck = 3 << 40
)

func opRand(seed int64, stream uint64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream+uint64(i)))
}

// workload is one closed-loop traffic mix. BENCHMARK.json records why
// each one is in the benchmark.
type workload struct {
	name    string
	cluster bool // coordinator plus two joined workers instead of one node
	wire    bool // responses negotiated as graphwire instead of JSON
	// warm lists the requests sent during set-up: every hot key once, or a
	// few fresh jobs of each kind to bring the process to a steady state.
	warm func(seed int64) []op
	// timed returns the i-th request of the timed phase.
	timed func(seed int64, warm []op, i int) op
}

// coldSizes equalizes per-kind engine cost so latency has one mode.
var coldSizes = [numKinds]int{
	degImplicit: 72, degExplicit: 72,
	treeChain: 416, treeMinDiam: 352,
	connNCC1: 768, connNCC0: 176,
}

const (
	coldWarmPerKind = 2
	hotEdgesKeys    = 8
	hotEdgesN       = 4096
	clusterKeys     = 400
	clusterN        = 64
)

func coldOp(seed int64, stream uint64, i int) op {
	k := kind(i % int(numKinds))
	return newOp(opRand(seed, stream, i), k, coldSizes[k], -1)
}

// cycle serves the hot keys round-robin.
func cycle(_ int64, warm []op, i int) op { return warm[i%len(warm)] }

var workloads = []*workload{
	{
		name: "cold-mix",
		wire: true,
		warm: func(seed int64) []op {
			ops := make([]op, coldWarmPerKind*int(numKinds))
			for i := range ops {
				ops[i] = coldOp(seed, streamWarm, i)
			}
			return ops
		},
		timed: func(seed int64, _ []op, i int) op { return coldOp(seed, streamTimed, i) },
	},
	{
		name: "hot-edges",
		warm: func(seed int64) []op {
			ops := make([]op, hotEdgesKeys)
			for i := range ops {
				ops[i] = newOp(opRand(seed, streamWarm, i), connNCC1, hotEdgesN, i)
			}
			return ops
		},
		timed: cycle,
	},
	{
		name:    "cluster-hot",
		cluster: true,
		wire:    true,
		warm: func(seed int64) []op {
			ops := make([]op, clusterKeys)
			for i := range ops {
				k := treeChain
				if i%2 == 1 {
					k = connNCC1
				}
				ops[i] = newOp(opRand(seed, streamWarm, i), k, clusterN, i)
			}
			return ops
		},
		timed: cycle,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
