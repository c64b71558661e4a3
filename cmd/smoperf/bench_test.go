package main

import (
	"regexp"
	"testing"
	"time"

	"mintc/internal/obs"
)

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func testSpec(t *testing.T) (string, *spec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, sp
}

// TestDeclaredNames checks BENCHMARK.json's names, and that the names
// the harness builds from circuit lists and obs counters are declared.
func TestDeclaredNames(t *testing.T) {
	_, sp := testSpec(t)
	seen := map[string]bool{}
	for _, m := range sp.all() {
		if !namePattern.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	fam, err := sweepFamilies()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range append(append(cliSuiteSet(), scaleDecompSet()...), fam...) {
		if n := "circuit." + b.Name + ".p50_ms"; !seen[n] {
			t.Errorf("%s is not declared", n)
		}
	}
	for n := range layerValues(obs.Stats{}, 1) {
		if !seen[n] {
			t.Errorf("%s is not declared", n)
		}
	}
}

// TestQuickRunAllWorkloads runs every workload for about a second and
// requires every answer to check out and every emitted name to be
// declared in BENCHMARK.json.
func TestQuickRunAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs smod and 100k-latch solves")
	}
	root, sp := testSpec(t)
	bin, err := buildSmod(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		cfg := runConfig{seed: 1, window: time.Second, smod: bin, tracer: newTracer()}
		o, err := workloads[w.Name](cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if o.attempted == 0 || o.failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", w.Name, o.attempted, o.failed, o.notes)
		}
		for _, traced := range []bool{false, true} {
			res, err := sp.result(o, traced)
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				continue
			}
			for name := range res.Metrics {
				if !namePattern.MatchString(name) {
					t.Errorf("%s emits %q", w.Name, name)
				}
			}
		}
		if len(cfg.tracer.spans) == 0 {
			t.Errorf("%s: a traced run recorded no spans", w.Name)
		}
	}
}
