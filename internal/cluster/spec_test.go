package cluster

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// specDirs are the packages whose sources carry CLUSTER.md citations: this
// package, the realization API schema the proxy hop speaks, the serving
// layer's cluster wiring, the job manager's ownership seam, and the root
// package's RouteKey.
var specDirs = []string{".", "../api", "../serve", "../jobs", "../../"}

func clusterSpecSections(t *testing.T) map[string]bool {
	t.Helper()
	spec, err := os.ReadFile(filepath.Join("..", "..", "CLUSTER.md"))
	if err != nil {
		t.Fatalf("reading CLUSTER.md: %v", err)
	}
	sections := map[string]bool{}
	heading := regexp.MustCompile(`(?m)^#{2,3}\s+(\d+(?:\.\d+)?)[.\s]`)
	for _, m := range heading.FindAllStringSubmatch(string(spec), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("no numbered section headings found in CLUSTER.md")
	}
	return sections
}

// TestClusterSpecSectionsResolve keeps the code ↔ spec links honest, the
// same contract TestSpecSectionsResolve gives WIRE.md: every "CLUSTER.md §x"
// citation anywhere in the cluster-touching packages must name a section
// heading that actually exists in CLUSTER.md.
func TestClusterSpecSectionsResolve(t *testing.T) {
	sections := clusterSpecSections(t)
	cite := regexp.MustCompile(`CLUSTER\.md\s+§(\d+(?:\.\d+)?)`)
	cited := 0
	for _, dir := range specDirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range cite.FindAllStringSubmatch(string(src), -1) {
				cited++
				if !sections[m[1]] {
					t.Errorf("%s cites CLUSTER.md §%s, but CLUSTER.md has no such section", f, m[1])
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no CLUSTER.md § citations found — the spec links are gone")
	}
}

// TestClusterSpecSectionsCovered is the reverse direction, which WIRE.md
// does not demand of itself: every numbered CLUSTER.md section must be cited
// by at least one test file, so each normative statement stays pinned by an
// executable check. Citing a subsection (§4.2) covers its parent (§4) too.
func TestClusterSpecSectionsCovered(t *testing.T) {
	sections := clusterSpecSections(t)
	cite := regexp.MustCompile(`CLUSTER\.md\s+§(\d+(?:\.\d+)?)`)
	covered := map[string]bool{}
	for _, dir := range specDirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range cite.FindAllStringSubmatch(string(src), -1) {
				covered[m[1]] = true
				if head, _, ok := strings.Cut(m[1], "."); ok {
					covered[head] = true
				}
			}
		}
	}
	for sec := range sections {
		// Subsections are covered transitively through their top-level
		// section: the coverage bar is every §N, plus any §N.M a test cites
		// directly resolving (checked above).
		if strings.Contains(sec, ".") {
			continue
		}
		if !covered[sec] {
			t.Errorf("CLUSTER.md §%s is not cited by any test — every normative section needs an executable check", sec)
		}
	}
}
