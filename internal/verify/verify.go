// Package verify is the result oracle: one check per realization family
// against the paper's definition of a correct result (DESIGN.md §8). A
// result is a graph in the Graph.Adj format: one ascending, duplicate-free,
// loop-free adjacency list per input index, every edge listed at both ends.
// Each check tests that format first, then its family's rules, and
// graphrealize.Result.Verify dispatches to them by job kind. The package
// imports only internal/graph and internal/seq, so the protocol packages'
// own tests can call it.
package verify

import (
	"cmp"
	"fmt"
	"slices"

	"graphrealize/internal/graph"
	"graphrealize/internal/seq"
)

// Degrees checks an exact degree realization (Theorems 11 and 12): adj
// realizes d.
func Degrees(adj [][]int, d []int) error {
	if err := format(adj, len(d)); err != nil {
		return err
	}
	for v, a := range adj {
		if len(a) != d[v] {
			return fmt.Errorf("verify: deg(%d) = %d, want %d", v, len(a), d[v])
		}
	}
	return nil
}

// Envelope checks an upper-envelope realization of d (Theorem 13): adj
// realizes env, env(v) ≥ c(v) where c is d clamped into [0, n−1], and
// Σenv ≤ 2Σc.
func Envelope(adj [][]int, d, env []int) error {
	if len(env) != len(d) {
		return fmt.Errorf("verify: envelope of length %d for %d inputs", len(env), len(d))
	}
	if err := Degrees(adj, env); err != nil {
		return err
	}
	sumC, sumE := 0, 0
	for v, e := range env {
		c := min(max(d[v], 0), len(d)-1)
		if e < c {
			return fmt.Errorf("verify: envelope d′(%d) = %d below d(%d) = %d", v, e, v, c)
		}
		sumC += c
		sumE += e
	}
	if sumE > 2*sumC {
		return fmt.Errorf("verify: envelope Σd′ = %d above 2Σd = %d", sumE, 2*sumC)
	}
	return nil
}

// ChainTree checks a chain-plus-leaves tree (Algorithm 4, Theorem 14): a
// tree with degrees d whose diameter is 1 plus the number of vertices of
// degree ≥ 2 (0 for a single vertex), the largest any such tree has.
func ChainTree(adj [][]int, d []int) error {
	diam := min(len(d)-1, 1)
	for _, x := range d {
		if x >= 2 {
			diam++
		}
	}
	return tree(adj, d, diam, "maximum")
}

// MinDiamTree checks a minimum-diameter tree (Lemma 15, Theorem 16): a
// tree with degrees d whose diameter is seq.MinTreeDiameter(d).
func MinDiamTree(adj [][]int, d []int) error {
	return tree(adj, d, seq.MinTreeDiameter(d), "minimum")
}

func tree(adj [][]int, d []int, diam int, which string) error {
	if err := Degrees(adj, d); err != nil {
		return err
	}
	g := graph.FromAdj(adj)
	if !g.IsTree() {
		return fmt.Errorf("verify: not a tree: %d edges on %d vertices", g.M(), g.N())
	}
	if got := g.TreeDiameter(); got != diam {
		return fmt.Errorf("verify: tree diameter %d, %s is %d", got, which, diam)
	}
	return nil
}

// Connectivity checks a realization of the edge-connectivity thresholds
// rho (Theorems 17 and 18): deg(v) ≥ ρ(v), m ≤ Σρ (twice
// seq.ConnectivityLowerBound), and λ(u,v) ≥ min(ρ(u), ρ(v)) on every pair,
// exactly, by n−1 flows (DESIGN.md §8): in non-increasing ρ, each vertex x
// needs λ(x,R) ≥ ρ(x) to the set R of the vertices before it.
func Connectivity(adj [][]int, rho []int) error {
	if err := format(adj, len(rho)); err != nil {
		return err
	}
	m, order := 0, make([]int, len(rho))
	for v, a := range adj {
		if len(a) < rho[v] {
			return fmt.Errorf("verify: deg(%d) = %d below ρ = %d", v, len(a), rho[v])
		}
		m, order[v] = m+len(a), v
	}
	if m, sum := m/2, seq.SumDegrees(rho); m > sum {
		return fmt.Errorf("verify: m = %d above Σρ = %d", m, sum)
	}
	slices.SortStableFunc(order, func(u, v int) int { return cmp.Compare(rho[v], rho[u]) })
	cuts := graph.FromAdj(adj).Cuts()
	for i := 1; i < len(order); i++ {
		x := order[i]
		cuts.AddSink(order[i-1])
		if lam := cuts.Flow(x, rho[x]); lam < rho[x] {
			// Its cut separates x from all of R, order[0] included.
			return fmt.Errorf("verify: λ(%d,%d) ≤ %d below min ρ = %d", order[0], x, lam, rho[x])
		}
	}
	return nil
}

// format checks the Graph.Adj format: one list per input, each ascending
// (hence duplicate-free), loop-free and in range, and every edge listed at
// both of its ends.
func format(adj [][]int, n int) error {
	if len(adj) != n {
		return fmt.Errorf("verify: %d adjacency lists for %d inputs", len(adj), n)
	}
	for u, a := range adj {
		for i, v := range a {
			switch {
			case v < 0 || v >= n:
				return fmt.Errorf("verify: list %d holds vertex %d, out of range", u, v)
			case v == u:
				return fmt.Errorf("verify: self-loop at %d", u)
			case i > 0 && a[i-1] >= v:
				return fmt.Errorf("verify: list %d is not ascending and duplicate-free at %d", u, v)
			}
		}
	}
	// Every list is sorted now, so each lookup may binary-search.
	for u, a := range adj {
		for _, v := range a {
			if _, ok := slices.BinarySearch(adj[v], u); !ok {
				return fmt.Errorf("verify: edge {%d,%d} listed at %d only", u, v, u)
			}
		}
	}
	return nil
}
