// Package seq implements the sequential (centralized) baselines the paper
// builds on: the Erdős–Gallai graphicality test, the Havel–Hakimi
// construction (§3.3), tree-sequence realization including the minimum
// diameter greedy tree of Smith–Székely–Wang used by Algorithm 5, and the
// lower bound on a connectivity realization's edge count (§6). The result
// oracle (internal/verify) checks the distributed algorithms against these
// baselines, and the benchmark harness reports them as the comparison
// points.
package seq

import "sort"

// IsGraphic reports whether the degree sequence d (any order) is realizable
// by a simple undirected graph, using the Erdős–Gallai characterization:
// Σdᵢ even and, for the non-increasing ordering and every k ∈ [1,n],
//
//	Σ_{i≤k} dᵢ ≤ k(k−1) + Σ_{i>k} min(dᵢ, k).
func IsGraphic(d []int) bool {
	n := len(d)
	if n == 0 {
		return true
	}
	s := append([]int(nil), d...)
	sort.Sort(sort.Reverse(sort.IntSlice(s)))
	if s[0] >= n || s[n-1] < 0 {
		return false
	}
	total := 0
	for _, v := range s {
		total += v
	}
	if total%2 != 0 {
		return false
	}
	// Prefix sums and the standard O(n) evaluation of the right-hand side.
	prefix := make([]int, n+1)
	for i, v := range s {
		prefix[i+1] = prefix[i] + v
	}
	// For each k we need Σ_{i>k} min(dᵢ,k). Since s is non-increasing, find
	// the first index j ≥ k where s[j] ≤ k (0-based); entries before j
	// contribute k each, the tail contributes its actual sum.
	for k := 1; k <= n; k++ {
		lhs := prefix[k]
		// binary search in s[k:] for first value ≤ k
		lo, hi := k, n
		for lo < hi {
			mid := (lo + hi) / 2
			if s[mid] <= k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		rhs := k*(k-1) + (lo-k)*k + (prefix[n] - prefix[lo])
		if lhs > rhs {
			return false
		}
	}
	return true
}

// IsTreeSequence reports whether d is realizable by a tree: n ≥ 2 with every
// dᵢ ≥ 1 and Σdᵢ = 2(n−1), or the single-vertex sequence (0).
func IsTreeSequence(d []int) bool {
	n := len(d)
	if n == 0 {
		return false
	}
	if n == 1 {
		return d[0] == 0
	}
	sum := 0
	for _, v := range d {
		if v < 1 {
			return false
		}
		sum += v
	}
	return sum == 2*(n-1)
}

// SumDegrees returns Σdᵢ.
func SumDegrees(d []int) int {
	s := 0
	for _, v := range d {
		s += v
	}
	return s
}

// MaxDegree returns max dᵢ (0 for an empty sequence).
func MaxDegree(d []int) int {
	m := 0
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	return m
}
