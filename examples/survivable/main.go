// Survivable network design: connectivity-threshold realization (§6).
//
// A content-delivery operator runs 48 nodes in three tiers: 4 core nodes
// that must tolerate 5 simultaneous link failures between any pair, a
// distribution tier that needs 3-edge-connectivity, and edge caches that
// need only to stay attached. Each node knows only its own requirement
// ρ(v); the distributed algorithm builds an overlay with Conn(u,v) ≥
// min(ρ(u), ρ(v)) using at most twice the optimal number of links, in both
// knowledge models (Theorem 17 for NCC1, Algorithm 6 for NCC0). The example
// verifies the guarantee by computing exact max-flow min-cuts and then
// deletes random links to show the survivability in action.
//
//	go run ./examples/survivable
package main

import (
	"fmt"
	"log"
	"math/rand"

	"graphrealize"
	"graphrealize/internal/gen"
)

func main() {
	const n = 48
	rho := gen.TieredRho(n, 4, 6, 3, 1) // core ρ=6, mid ρ=3, edge ρ=1

	for _, model := range []graphrealize.Model{graphrealize.NCC0, graphrealize.NCC1} {
		name := "NCC0 (Algorithm 6, explicit)"
		if model == graphrealize.NCC1 {
			name = "NCC1 (Theorem 17, implicit)"
		}
		g, stats, err := graphrealize.RealizeConnectivity(rho, &graphrealize.Options{
			Model: model, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		lb := graphrealize.ConnectivityLowerBound(rho)
		fmt.Printf("%s\n  links=%d (lower bound %d, approx %.2f ≤ 2.00)\n  cost: %s\n",
			name, g.M(), lb, float64(g.M())/float64(lb), stats)

		// Verify the pairwise guarantee exactly: core-core pairs need ρ=6,
		// core-mid pairs only min(6,3)=3.
		worstCore, worstMixed := 1<<30, 1<<30
		for u := 0; u < 4; u++ {
			for v := u + 1; v < 8; v++ {
				want := min(rho[u], rho[v])
				got := g.EdgeConnectivity(u, v)
				if got < want {
					log.Fatalf("threshold violated: Conn(%d,%d)=%d < %d", u, v, got, want)
				}
				if v < 4 && got < worstCore {
					worstCore = got
				}
				if v >= 4 && got < worstMixed {
					worstMixed = got
				}
			}
		}
		fmt.Printf("  verified: worst core-core connectivity %d (required %d); worst core-mid %d (required %d)\n",
			worstCore, rho[0], worstMixed, min(rho[0], rho[7]))

		// Survivability demo: cut ρ(core)-1 random links touching node 0 and
		// confirm the core stays mutually reachable.
		h := clone(g)
		rng := rand.New(rand.NewSource(3))
		cut := 0
		for cut < rho[0]-1 && len(h.Adj[0]) > 0 {
			v := h.Adj[0][rng.Intn(len(h.Adj[0]))]
			removeEdge(h, 0, v)
			cut++
		}
		fmt.Printf("  after cutting %d links at core node 0: still connected to core peers: %v\n\n",
			cut, h.EdgeConnectivity(0, 1) >= 1)
	}
}

func clone(g *graphrealize.Graph) *graphrealize.Graph {
	h := &graphrealize.Graph{N: g.N, Adj: make([][]int, g.N)}
	for v, a := range g.Adj {
		h.Adj[v] = append([]int(nil), a...)
	}
	return h
}

func removeEdge(g *graphrealize.Graph, u, v int) {
	g.Adj[u] = remove(g.Adj[u], v)
	g.Adj[v] = remove(g.Adj[v], u)
}

func remove(a []int, x int) []int {
	out := a[:0]
	for _, v := range a {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}
