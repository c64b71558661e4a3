package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mintc"
)

const example1SMO = `
clock 2
latch L1 phase 1 setup 10 dq 10
latch L2 phase 2 setup 10 dq 10
latch L3 phase 1 setup 10 dq 10
latch L4 phase 2 setup 10 dq 10
path L1 -> L2 delay 20 label La
path L2 -> L3 delay 20 label Lb
path L3 -> L4 delay 60 label Lc
path L4 -> L1 delay 80 label Ld
`

// cfg returns a config with the flag defaults (notably parametric=-1,
// meaning "no parametric sweep"), mirroring what flag parsing
// produces; tests then override individual fields.
func cfg(mut func(*config)) config {
	c := config{engine: "lp", cycles: 2, parametric: -1, paramTo: 200}
	if mut != nil {
		mut(&c)
	}
	return c
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	var buf strings.Builder
	b := make([]byte, 4096)
	for {
		n, err := r.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	return buf.String(), ferr
}

func TestRunOptimize(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error { return run(f, cfg(nil)) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optimal cycle time: Tc = 110", "phi1", "constraints:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMCREngine(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error { return run(f, cfg(func(c *config) { c.engine = "mcr" })) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optimal Tc = 110") {
		t.Errorf("mcr output:\n%s", out)
	}
	if !strings.Contains(out, "critical loop") {
		t.Errorf("missing critical loop:\n%s", out)
	}
}

func TestRunBaselines(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error { return run(f, cfg(func(c *config) { c.baseline = "nrip" })) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "NRIP baseline") || !strings.Contains(out, "borrowing gain") {
		t.Errorf("nrip output:\n%s", out)
	}
	out, err = capture(t, func() error { return run(f, cfg(func(c *config) { c.baseline = "ettf" })) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "edge-triggered baseline") {
		t.Errorf("ettf output:\n%s", out)
	}
	if err := run(f, cfg(func(c *config) { c.baseline = "bogus" })); err == nil {
		t.Error("unknown baseline accepted")
	}
}

func TestRunDiagramAndSVG(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	svg := filepath.Join(t.TempDir(), "out.svg")
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.diagram = true; c.svgOut = svg }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "La") {
		t.Errorf("diagram missing strips:\n%s", out)
	}
	data, err := os.ReadFile(svg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "<svg") {
		t.Error("svg file malformed")
	}
}

func TestRunDump(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error { return run(f, cfg(func(c *config) { c.dump = true })) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "minimize Tc") || !strings.Contains(out, "subject to") {
		t.Errorf("dump missing LP:\n%s", out)
	}
}

func TestRunParametricFlag(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.parametric = 3; c.paramTo = 150 }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "breakpoints: [20 100]") {
		t.Errorf("parametric output:\n%s", out)
	}
	if err := run(f, cfg(func(c *config) { c.parametric = 99; c.paramTo = 10 })); err == nil {
		t.Error("out-of-range path accepted")
	}
}

func TestRunLexFlag(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.lex = "min-departures" }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "min-departures tie-break") {
		t.Errorf("lex output:\n%s", out)
	}
	if err := run(f, cfg(func(c *config) { c.lex = "nonsense" })); err == nil {
		t.Error("unknown lex objective accepted")
	}
}

func TestRunCheckPass(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	s := writeTemp(t, "sched.smo", "schedule tc 110\nphase 1 start 0 width 80\nphase 2 start 80 width 30\n")
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.check = s; c.simulate = true }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "simulation: clean") {
		t.Errorf("check output:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("/nonexistent/file.smo", cfg(nil)); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeTemp(t, "bad.smo", "latch A phase 1\n")
	if err := run(bad, cfg(nil)); err == nil {
		t.Error("bad circuit accepted")
	}
	f := writeTemp(t, "ex1.smo", example1SMO)
	if err := run(f, cfg(func(c *config) { c.engine = "nope" })); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestRunOptionsAffectResult(t *testing.T) {
	// A clock-skew margin tightens every propagation constraint; the
	// four-edge loop gains 4×5 ns over its two cycles: Tc* = 120.
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.opts = mintc.Options{Skew: 5} }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Tc = 120") {
		t.Errorf("skew ignored (want Tc = 120):\n%s", out)
	}
}

const gnlSMO = `
netlist demo
clock 2
latch L1 phase 1 setup 1 dq 2 d n3 q n0
latch L2 phase 2 setup 1 dq 2 d n2 q n4
gate g1 in n0 out n1 intrinsic 5 drive 1 incap 0.1
gate g2 in n1 out n2 intrinsic 7 drive 1 incap 0.1
gate g3 in n4 out n3 intrinsic 4 drive 1 incap 0.1
`

func TestRunGateLevelNetlist(t *testing.T) {
	f := writeTemp(t, "demo.gnl", gnlSMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.gnl = true; c.model = "linear" }))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"extracted 2 synchronizers", "optimal cycle time"} {
		if !strings.Contains(out, want) {
			t.Errorf("gnl output missing %q:\n%s", want, out)
		}
	}
	if err := run(f, cfg(func(c *config) { c.gnl = true; c.model = "bogus" })); err == nil {
		t.Error("unknown delay model accepted")
	}
}

func TestRunAgrawalBaseline(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error { return run(f, cfg(func(c *config) { c.baseline = "agrawal" })) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "frequency-search baseline") {
		t.Errorf("agrawal output:\n%s", out)
	}
}

func TestRunTopLoopsAndDot(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	dot := filepath.Join(t.TempDir(), "g.dot")
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.toploops = 3; c.dotOut = dot }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "critical loops") || !strings.Contains(out, "ratio") {
		t.Errorf("toploops output:\n%s", out)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "digraph circuit") {
		t.Error("dot file malformed")
	}
}

func TestRunMonteCarloFlag(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.mcTrials = 10 }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "monte carlo: 10 trials, 0 failing") {
		t.Errorf("monte carlo output:\n%s", out)
	}
}

const holdSMO = `
clock 2
latch A phase 1 setup 1 dq 2
latch B phase 2 setup 1 dq 2 hold 8
path A -> B delay 30 min 0.5
path B -> A delay 10
`

func TestRunHoldFlag(t *testing.T) {
	f := writeTemp(t, "hold.smo", holdSMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.opts = mintc.Options{DesignForHold: true}; c.simulate = false }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "optimal cycle time") {
		t.Errorf("hold design output:\n%s", out)
	}
}

func TestRunMarginFlag(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.marginTc = 130 }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "worst setup margin") {
		t.Errorf("margin output:\n%s", out)
	}
	if err := run(f, cfg(func(c *config) { c.marginTc = 50 })); err == nil {
		t.Error("margin below Tc* accepted")
	}
}

func TestRunRegistryEngines(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	cases := []struct {
		engine string
		want   string
	}{
		{"nrip", "NRIP engine: Tc ="},
		{"ettf", "edge-triggered engine: Tc ="},
		{"sim", "sim engine: simulated the MLP-optimal schedule, Tc = 110"},
	}
	for _, tc := range cases {
		out, err := capture(t, func() error {
			return run(f, cfg(func(c *config) { c.engine = tc.engine }))
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.engine, err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s output missing %q:\n%s", tc.engine, tc.want, out)
		}
	}
}

func TestRunStatsAndTimeoutFlags(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.stats = true; c.timeout = time.Minute }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stats:") || !strings.Contains(out, "pivots=") {
		t.Errorf("stats output missing counters:\n%s", out)
	}
}

func TestRunTraceFlag(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	tr := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.trace = tr }))
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(tr)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if !strings.Contains(string(blob), `"stage"`) {
		t.Errorf("trace file has no stage events:\n%s", blob)
	}
}

// TestRunCertifyFlag: Example 1 certifies optimal under both the LP
// engine (with its duality gap) and the decomposed engine (through the
// binding component's critical cycle).
func TestRunCertifyFlag(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	for _, engine := range []string{"lp", "decomp"} {
		out, err := capture(t, func() error {
			return run(f, cfg(func(c *config) { c.certify = true; c.engine = engine }))
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !strings.Contains(out, "certificate: certified optimal") {
			t.Errorf("%s: missing certificate verdict:\n%s", engine, out)
		}
		if engine == "lp" && !strings.Contains(out, "duality gap:") {
			t.Errorf("%s: missing duality gap:\n%s", engine, out)
		}
	}
}

func TestRunCertifyInfeasible(t *testing.T) {
	f := writeTemp(t, "ex1.smo", example1SMO)
	out, err := capture(t, func() error {
		return run(f, cfg(func(c *config) { c.certify = true; c.opts = mintc.Options{FixedTc: 90} }))
	})
	if err == nil {
		t.Fatal("want an infeasibility error")
	}
	if !strings.Contains(out, "certificate: certified infeasible") {
		t.Errorf("infeasibility not certified in output:\n%s", out)
	}
}
