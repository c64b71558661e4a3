package decomp

import (
	"context"
	"testing"

	"mintc/internal/core"
	"mintc/internal/mcr"
	"mintc/internal/obs"
)

// TestSweepPrimedStateZeroComponentSolves: a sweep over a
// cross-component arc with a pre-primed shared State performs ZERO
// component solves — priming is pure cache hits and the cross arc
// dirties no component — while the answers still match one exact solve
// per value.
func TestSweepPrimedStateZeroComponentSolves(t *testing.T) {
	cc, cross := banksWithCross(t)
	opts := core.Options{}
	st := NewState()
	if _, err := Solve(context.Background(), cc.Overlay(), opts, Config{}, st); err != nil {
		t.Fatal(err)
	}
	values := []float64{10, 20, 30, 40, 50}
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	got, errs := Sweep(ctx, cc, opts, cross, values, Config{Workers: 1}, st)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("value %g: %v", values[i], err)
		}
	}
	if n := rec.Snapshot().Counters["components_resolved"]; n != 0 {
		t.Errorf("primed cross-arc sweep solved %d components, want 0", n)
	}
	want, wantErrs := oracleSweep(cc, opts, cross, values)
	for i := range values {
		if wantErrs[i] != nil {
			t.Fatalf("oracle value %g: %v", values[i], wantErrs[i])
		}
		if d := relDiff(got[i], want[i]); d > 1e-9 {
			t.Errorf("value %g: Tc mismatch: sweep %.12g vs oracle %.12g", values[i], got[i], want[i])
		}
	}
}

// TestSweepPrimedStateIntraDirty: with priming served from the shared
// State, an intra-component sweep pays only the per-value re-solves of
// the one dirty bank.
func TestSweepPrimedStateIntraDirty(t *testing.T) {
	cc, _ := banksWithCross(t)
	opts := core.Options{}
	st := NewState()
	if _, err := Solve(context.Background(), cc.Overlay(), opts, Config{}, st); err != nil {
		t.Fatal(err)
	}
	values := []float64{10, 20, 30, 40, 50}
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	_, errs := Sweep(ctx, cc, opts, 4, values, Config{Workers: 1}, st)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("value %g: %v", values[i], err)
		}
	}
	if n := rec.Snapshot().Counters["components_resolved"]; n != int64(len(values)) {
		t.Errorf("primed intra sweep solved %d components, want %d (one per value)", n, len(values))
	}
}

// TestSolveTwoComponentEdit: an overlay whose edits land in two
// different banks re-solves exactly those two components, and the
// answer stays in lockstep with the monolithic solver.
func TestSolveTwoComponentEdit(t *testing.T) {
	cc, _ := banksWithCross(t)
	opts := core.Options{}
	st := NewState()
	ctx := context.Background()
	base := cc.Overlay()
	if _, err := Solve(ctx, base, opts, Config{}, st); err != nil {
		t.Fatal(err)
	}
	// Path 4 lives in bank 0, path 12 in bank 1.
	ov := base.With(4, 200).With(12, 210)
	if comps, crossEdit := ov.DirtyComponents(); crossEdit || len(comps) != 2 {
		t.Fatalf("DirtyComponents = %v, cross=%v; want two components", comps, crossEdit)
	}
	res, err := Solve(ctx, ov, opts, Config{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved != 2 {
		t.Errorf("two-component edit resolved %d components, want 2", res.Resolved)
	}
	ref, err := mcr.SolveCtx(ctx, ov.Materialize(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(res.Tc, ref.Tc); d > 1e-9 {
		t.Errorf("Tc mismatch: decomp %.12g vs mcr %.12g", res.Tc, ref.Tc)
	}
}

// TestWarmPotentialReuse: with a shared State, an edited re-solve
// warm-starts its probes from persisted base-overlay potentials — the
// Result reports the hits, and the warm solve performs strictly fewer
// edge relaxations than the same solve cold — without moving the
// answer.
func TestWarmPotentialReuse(t *testing.T) {
	cc, _ := banksWithCross(t)
	// Force the probe backend on every component so the component-level
	// potential reuse engages alongside the coupling pass's.
	cfg := Config{LPCutoff: -1}
	opts := core.Options{}
	base := cc.Overlay()
	edited := base.With(4, 200)

	st := NewState()
	prime, err := Solve(context.Background(), base, opts, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if prime.WarmPotentialHits != 0 {
		t.Errorf("base prime reported %d warm hits, want 0 (nothing persisted yet)", prime.WarmPotentialHits)
	}

	coldRec := obs.New()
	cold, err := Solve(obs.With(context.Background(), coldRec), edited, opts, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warmRec := obs.New()
	warm, err := Solve(obs.With(context.Background(), warmRec), edited, opts, cfg, st)
	if err != nil {
		t.Fatal(err)
	}

	// The dirty component's re-solve and the coupling pass both seed.
	if warm.WarmPotentialHits < 2 {
		t.Errorf("warm solve reported %d warm-potential hits, want >= 2", warm.WarmPotentialHits)
	}
	if cold.WarmPotentialHits != 0 {
		t.Errorf("stateless solve reported %d warm hits, want 0", cold.WarmPotentialHits)
	}
	coldRelax := coldRec.Snapshot().Counters["probe_relaxations"]
	warmRelax := warmRec.Snapshot().Counters["probe_relaxations"]
	if warmRelax >= coldRelax {
		t.Errorf("warm solve relaxed %d edges, cold %d: potentials bought nothing", warmRelax, coldRelax)
	}

	ref, err := mcr.SolveCtx(context.Background(), edited.Materialize(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]float64{"warm": warm.Tc, "cold": cold.Tc} {
		if d := relDiff(tc, ref.Tc); d > 1e-9 {
			t.Errorf("%s Tc %.12g vs monolithic %.12g (rel %.3g)", name, tc, ref.Tc, d)
		}
	}
}

// TestCouplingPassAllocs gates the steady-state allocation count of a
// repeat decomposed solve with a shared State: every component answer
// is a cache hit and the coupling pass reuses the persistent compiled
// solver, so allocations are limited to the Result (schedule, D,
// per-component bounds) and the worker scaffolding — a constant count,
// independent of how many solves came before.
func TestCouplingPassAllocs(t *testing.T) {
	cc, _ := banksWithCross(t)
	opts := core.Options{}
	st := NewState()
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	base := cc.Overlay()
	cfg := Config{Workers: 1}
	if _, err := Solve(ctx, base, opts, cfg, st); err != nil {
		t.Fatal(err)
	}
	var solveErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(ctx, base, opts, cfg, st); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	// Measured ~36 on a repeat solve of the 3-bank circuit; the ceiling
	// leaves headroom for runtime noise while still tripping on any
	// per-solve rebuild of the constraint graph (O(paths) allocations).
	const ceiling = 100
	if allocs > ceiling {
		t.Errorf("repeat decomposed solve allocated %.0f objects/op, gate is %d", allocs, ceiling)
	}
}
