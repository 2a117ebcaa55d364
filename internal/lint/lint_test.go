package lint

import (
	"regexp"
	"strconv"
	"sync"
	"testing"
)

// One Loader (FileSet + source importer) is shared across all golden tests:
// stdlib dependencies are type-checked once instead of once per check.
var (
	loaderOnce sync.Once
	sharedLd   *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { sharedLd, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return sharedLd
}

// loadGolden loads one testdata/src package by explicit path (the "..."
// walker skips testdata directories; naming them directly is the sanctioned
// way in).
func loadGolden(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := testLoader(t).Load([]string{"./internal/lint/testdata/src/" + name})
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load(%s): got %d packages, want 1", name, len(pkgs))
	}
	for _, terr := range pkgs[0].TypeErrors {
		t.Errorf("golden package %s has a type error: %v", name, terr)
	}
	return pkgs
}

// want is one expected diagnostic, declared in the golden source as a
//
//	// want "<regex>"       — expected on the comment's own line
//	// want-next "<regex>"  — expected on the line below (for diagnostics
//	                          that land on a comment line, e.g. X001)
//
// The quoted pattern uses Go string escaping (\\. for a literal dot, \" for
// a quote) and is matched against "CHECK: message".
type want struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile(`^// want(-next)? "(.+)"$`)

func collectWants(t *testing.T, p *Package) []*want {
	t.Helper()
	var out []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(`"` + m[2] + `"`)
				if err != nil {
					t.Fatalf("%s: malformed want pattern %q: %v", p.Fset.Position(c.Pos()), m[2], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: want pattern does not compile: %v", p.Fset.Position(c.Pos()), err)
				}
				pos := p.Fset.Position(c.Pos())
				line := pos.Line
				if m[1] == "-next" {
					line++
				}
				out = append(out, &want{file: pos.Filename, line: line, re: re, raw: pat})
			}
		}
	}
	return out
}

// checkGolden runs the checks over the golden package and requires an exact
// match between produced diagnostics and want declarations: every diagnostic
// must satisfy a want on its file:line, and every want must be hit.
func checkGolden(t *testing.T, pkgs []*Package, checks []Check) {
	t.Helper()
	wants := collectWants(t, pkgs[0])
	for _, d := range Run(pkgs, checks) {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Check + ": " + d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: want %q: no diagnostic matched", w.file, w.line, w.raw)
		}
	}
}

func TestGoldenD001(t *testing.T) {
	pkgs := loadGolden(t, "d001")
	checkGolden(t, pkgs, []Check{&D001{Packages: []string{pkgs[0].PkgPath}}})
}

func TestGoldenG001(t *testing.T) {
	pkgs := loadGolden(t, "g001")
	checkGolden(t, pkgs, []Check{&G001{Packages: []string{pkgs[0].PkgPath}}})
}

func TestGoldenW001(t *testing.T) {
	pkgs := loadGolden(t, "w001")
	checkGolden(t, pkgs, []Check{&W001{
		Pkg:      pkgs[0].PkgPath,
		Files:    []string{"decoder.go"},
		Sentinel: "ErrFormat",
		Wrapper:  "formatErr",
	}})
}

func TestGoldenM001(t *testing.T) {
	pkgs := loadGolden(t, "m001")
	checkGolden(t, pkgs, []Check{&M001{TableFile: "m001/metrics.go", Prefix: "graphrealize_"}})
}

func TestGoldenC001(t *testing.T) {
	pkgs := loadGolden(t, "c001")
	checkGolden(t, pkgs, []Check{&C001{Packages: []string{pkgs[0].PkgPath}}})
}

func TestGoldenX001(t *testing.T) {
	pkgs := loadGolden(t, "x001")
	checkGolden(t, pkgs, []Check{&X001{Known: KnownIDs(DefaultChecks())}})
}

// TestGoldenScopedRunStaysSilent pins the scoped-run behavior of the suite:
// checks bound to packages or files absent from the load set produce nothing,
// so `grlint ./internal/lint/...` style partial runs cannot false-positive.
func TestGoldenScopedRunStaysSilent(t *testing.T) {
	pkgs := loadGolden(t, "c001") // any golden package outside every binding
	if diags := Run(pkgs, DefaultChecks()); len(diags) != 0 {
		t.Fatalf("default suite on an out-of-scope package produced %d diagnostics, first: %s",
			len(diags), diags[0])
	}
}

// TestLoadHonoursBuildConstraints: testdata/buildtags holds a //go:build
// race file and a //go:build !race file that each declare Race. Load keeps
// only the one the default build context selects, so the package
// type-checks without a redeclaration.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	pkgs, err := testLoader(t).Load([]string{"./internal/lint/testdata/buildtags"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	if p := pkgs[0]; len(p.Files) != 1 || len(p.TypeErrors) != 0 {
		t.Fatalf("loaded %d files with type errors %v, want one file and none", len(p.Files), p.TypeErrors)
	}
}
