package lint

// defaults.go binds the checks to this repository's layout. DESIGN.md §12 is
// the prose catalog of the same bindings; TestCheckCatalogConsistency pins
// the two (and the golden testdata packages) to each other.

// TracePackages are the packages whose code can affect an engine trace: the
// engine itself plus every protocol package that runs under it (the same set
// the CI resumable-step suite drives). D001 and G001 scope to these.
var TracePackages = []string{
	"graphrealize/internal/ncc",
	"graphrealize/internal/primitives",
	"graphrealize/internal/aggregate",
	"graphrealize/internal/rankov",
	"graphrealize/internal/sortnet",
	"graphrealize/internal/core",
	"graphrealize/internal/trees",
	"graphrealize/internal/connectivity",
}

// RequestPathPackages are the packages where every context must descend from
// the request (C001).
var RequestPathPackages = []string{
	"graphrealize/internal/serve",
	"graphrealize/internal/cluster",
}

// DefaultChecks returns the full suite with its repo bindings.
func DefaultChecks() []Check {
	return []Check{
		&D001{Packages: TracePackages},
		&G001{Packages: TracePackages},
		&W001{
			Pkg:      "graphrealize/internal/wire",
			Files:    []string{"decoder.go", "wire.go"},
			Sentinel: "ErrFormat",
			Wrapper:  "formatErr",
		},
		&M001{TableFile: "internal/serve/metrics.go", Prefix: "graphrealize_"},
		&C001{Packages: RequestPathPackages},
		&X001{Known: []string{"D001", "G001", "W001", "M001", "C001", "X001"}},
	}
}
