package seq

// ConnectivityLowerBound returns ⌈Σρ(v)/2⌉, a lower bound on the number of
// edges in any graph meeting the connectivity thresholds: every vertex v
// needs degree ≥ ρ(v) (§6, "Approximation factor").
func ConnectivityLowerBound(rho []int) int {
	s := 0
	for _, v := range rho {
		s += v
	}
	return (s + 1) / 2
}
