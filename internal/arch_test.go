// Package internal_test enforces the repository's dependency
// architecture: the substrate packages must stay free of timing
// semantics, the engines must not reach into each other, and only the
// façade and tools may aggregate everything. A violated rule here
// usually means a shortcut that will rot the layering.
package internal_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// allowed maps each internal package to the internal packages it may
// import. Packages absent from the map may import nothing internal.
var allowed = map[string][]string{
	"faultinject": {},
	"graph":       {},
	"lp":          {"faultinject"},
	"delay":       {},
	"obs":         {},
	"core":        {"graph", "lp", "obs"},
	"verify":      {"core", "lp"},
	"mcr":         {"core", "graph", "obs"},
	"decomp":      {"core", "mcr", "obs"},
	"ettf":        {"core", "lp", "obs"},
	"nrip":        {"core", "ettf", "obs"},
	"agrawal":     {"core"},
	"parse":       {"core"},
	"render":      {"core"},
	"sim":         {"core", "obs"},
	"netex":       {"core", "delay"},
	"gen":         {"core", "delay", "netex", "circuits"},
	"circuits":    {"core"},
	"engine":      {"core", "decomp", "ettf", "lp", "mcr", "nrip", "obs", "sim", "verify"},
	"session":     {"core", "decomp", "engine", "lp", "obs"},
	"serve":       {"core", "engine", "faultinject", "obs", "parse", "session", "sim"},
	"experiments": {"agrawal", "circuits", "core", "ettf", "gen", "lp", "mcr", "nrip", "render"},
}

func TestInternalDependencyRules(t *testing.T) {
	root := ".."
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg := e.Name()
		allowedSet := map[string]bool{}
		rules, known := allowed[pkg]
		if !known {
			t.Errorf("package internal/%s has no dependency rule; add it to the architecture map", pkg)
			continue
		}
		for _, a := range rules {
			allowedSet[a] = true
		}
		dir := filepath.Join(root, "internal", pkg)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".go") {
				continue
			}
			isTest := strings.HasSuffix(f.Name(), "_test.go")
			src, err := parser.ParseFile(fset, filepath.Join(dir, f.Name()), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range src.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if !strings.HasPrefix(path, "mintc/internal/") {
					if path == "mintc" {
						t.Errorf("internal/%s/%s imports the façade package; internal code must not depend on the public layer", pkg, f.Name())
					}
					continue
				}
				dep := strings.TrimPrefix(path, "mintc/internal/")
				if dep == pkg {
					continue
				}
				if isTest {
					// Tests may reach broader (cross-validation tests
					// import sibling engines), but still never the
					// façade (checked above).
					continue
				}
				if !allowedSet[dep] {
					t.Errorf("internal/%s/%s imports internal/%s, which the architecture forbids", pkg, f.Name(), dep)
				}
			}
		}
	}
}

// TestSubstratesImportNoTimingPackages pins the key property: graph,
// lp, delay and obs are generic substrates with no knowledge of the
// SMO model. The only internal import a substrate may have is
// faultinject — the build-tag-gated fault hooks, itself a leaf with
// zero dependencies and no timing semantics.
func TestSubstratesImportNoTimingPackages(t *testing.T) {
	for _, pkg := range []string{"graph", "lp", "delay", "obs"} {
		for _, dep := range allowed[pkg] {
			if dep != "faultinject" {
				t.Errorf("substrate %s grew internal dependency %s", pkg, dep)
			}
		}
	}
	if len(allowed["faultinject"]) != 0 {
		t.Errorf("faultinject must stay a leaf; it imports %v", allowed["faultinject"])
	}
}
