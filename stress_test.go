package mintc_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"mintc"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/netex"
)

// TestStressLargeRing exercises the full stack at a scale two orders
// of magnitude beyond the paper's examples: a 1000-latch two-phase
// ring with a known closed-form optimum, solved by the min-cycle-ratio
// engine, verified by the analysis, and spot-checked by simulation.
func TestStressLargeRing(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const n = 1000
	c, err := gen.Ring(2, n, 1, 2, func(i int) float64 { return 30 })
	if err != nil {
		t.Fatal(err)
	}
	// Uniform two-phase ring: Tc* = 2*(DQ+delay) = 64.
	r, err := mcr.Solve(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Tc-64) > 1e-6 {
		t.Fatalf("Tc = %g, want 64", r.Tc)
	}
	an, err := mintc.CheckTc(c, r.Schedule, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("large-ring optimum infeasible: %v", an.Violations[:min(3, len(an.Violations))])
	}
	tr, err := mintc.Simulate(c, r.Schedule, mintc.SimConfig{Cycles: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Violations) != 0 {
		t.Fatalf("simulation violations: %d", len(tr.Violations))
	}
}

// TestMonteCarloPhaseOrderScales guards the Monte-Carlo campaign
// against a per-call phase ordering that is quadratic in the latch
// count: one trial of one cycle on a 100k-latch ring must take
// milliseconds, so 3 s leaves room for slow and race-instrumented
// runs while still catching an O(L²) sort (seconds even uninstrumented).
func TestMonteCarloPhaseOrderScales(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-latch workload")
	}
	c, err := gen.Ring(2, 100000, 1, 2, func(int) float64 { return 30 })
	if err != nil {
		t.Fatal(err)
	}
	// Uniform two-phase ring: Tc* = 2*(DQ+delay) = 64.
	sched := mintc.SymmetricSchedule(2, 64, 0.5)
	start := time.Now()
	mc, err := mintc.SimulateMonteCarlo(c, sched, mintc.MCConfig{Trials: 1, Cycles: 1, Workers: 1}, rand.New(rand.NewSource(1)))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Trials != 1 {
		t.Fatalf("completed %d trials, want 1", mc.Trials)
	}
	if elapsed > 3*time.Second {
		t.Errorf("1-trial 1-cycle campaign on %d latches took %v, want < 3s", c.L(), elapsed)
	}
}

// TestStressLPMediumRing keeps the LP honest at a size where the dense
// simplex is still tractable, cross-checked against the ratio engine.
func TestStressLPMediumRing(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c, err := gen.Ring(4, 64, 1, 2, func(i int) float64 { return float64(10 + i%9) })
	if err != nil {
		t.Fatal(err)
	}
	lpRes, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := mintc.MinTcMCR(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpRes.Schedule.Tc-ratio.Tc) > 1e-5*(1+ratio.Tc) {
		t.Fatalf("LP %g vs MCR %g", lpRes.Schedule.Tc, ratio.Tc)
	}
}

// TestStressGateLevelExtraction runs the gate-level front end on a
// ~4000-gate netlist and validates the extracted model's optimum
// against the closed form.
func TestStressGateLevelExtraction(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	nl, err := gen.GateLevelRing(128, 32, 0.1, 0.2, 0.3, 0.1, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	c, info, err := nl.Extract(mintc.UnitDelay, netex.IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Stages != 128 || info.MaxDepth != 32 {
		t.Fatalf("extraction stats: %+v", info)
	}
	r, err := mintc.MinTcMCR(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := gen.GateLevelRingOptimalTcUnit(32, 0.1, 0.2)
	if math.Abs(r.Tc-want) > 1e-6 {
		t.Fatalf("Tc = %g, want %g", r.Tc, want)
	}
}
