package decomp

import (
	"context"
	"math"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/obs"
	"mintc/internal/verify"
)

// relDiff is the relative difference |a−b|/(1+|b|), the measure every
// parity assertion uses (matching verify's residual convention).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(b))
}

func ratioArcs(arcs []mcr.CycleArc) []verify.RatioArc {
	out := make([]verify.RatioArc, len(arcs))
	for i, a := range arcs {
		out[i] = verify.RatioArc{From: a.From, To: a.To, A: a.A, B: a.B}
	}
	return out
}

// optionVariants are the option sets the parity tests exercise: the
// plain problem, skew margins, hold-constrained design, and minimum
// phase widths/separations (the clock-only cycles the per-component
// bounds deliberately ignore).
func optionVariants() []core.Options {
	return []core.Options{
		{},
		{Skew: 0.3},
		{DesignForHold: true},
		{MinPhaseWidth: 4, MinSeparation: 0.5},
	}
}

// TestSolveParitySuite: the decomposed solve must agree with both
// monolithic solvers on every suite circuit under every option
// variant, and any witness cycle it reports must verify as an
// optimality certificate.
func TestSolveParitySuite(t *testing.T) {
	ctx := context.Background()
	for _, b := range gen.Suite() {
		for vi, opts := range optionVariants() {
			ref, refErr := mcr.Solve(b.Circuit, opts)
			cc, err := b.Circuit.Freeze()
			if err != nil {
				t.Fatalf("%s: Freeze: %v", b.Name, err)
			}
			res, err := Solve(ctx, cc.Overlay(), opts, Config{}, NewState())
			if refErr != nil {
				if err == nil {
					t.Errorf("%s/v%d: monolithic failed (%v) but decomposed returned Tc=%g", b.Name, vi, refErr, res.Tc)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s/v%d: decomposed solve failed: %v", b.Name, vi, err)
				continue
			}
			if d := relDiff(res.Tc, ref.Tc); d > 1e-9 {
				t.Errorf("%s/v%d: Tc mismatch: decomp %.12g vs mcr %.12g (rel %.3g)", b.Name, vi, res.Tc, ref.Tc, d)
			}
			if lpRef, err := core.MinTc(b.Circuit, opts); err == nil {
				if d := relDiff(res.Tc, lpRef.Schedule.Tc); d > 1e-9 {
					t.Errorf("%s/v%d: Tc mismatch vs LP: decomp %.12g vs mlp %.12g (rel %.3g)", b.Name, vi, res.Tc, lpRef.Schedule.Tc, d)
				}
			}
			if len(res.CriticalArcs) > 0 {
				cert := verify.CriticalCycle(ratioArcs(res.CriticalArcs), res.Tc, 0)
				if !cert.Certified() {
					t.Errorf("%s/v%d: witness cycle failed verification: %v", b.Name, vi, cert.Failed())
				}
			}
			if res.Components < 1 || len(res.CompTc) != res.Components {
				t.Errorf("%s/v%d: malformed decomposition: %d components, %d bounds", b.Name, vi, res.Components, len(res.CompTc))
			}
			for ci, lo := range res.CompTc {
				if lo > res.Tc+1e-9*(1+res.Tc) {
					t.Errorf("%s/v%d: component %d bound %.12g exceeds answer %.12g", b.Name, vi, ci, lo, res.Tc)
				}
			}
		}
	}
}

// TestSolveFixedTcParity: a pinned cycle time must behave exactly as
// in the monolithic solver — accepted verbatim when feasible, rejected
// when below the minimum — even though per-component solves drop the
// pin.
func TestSolveFixedTcParity(t *testing.T) {
	ctx := context.Background()
	c := gen.Banks(3, 8, 1, 2, 30)
	cc, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mcr.Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ok := core.Options{FixedTc: ref.Tc * 2}
	res, err := Solve(ctx, cc.Overlay(), ok, Config{}, nil)
	if err != nil {
		t.Fatalf("feasible FixedTc rejected: %v", err)
	}
	if res.Tc != ok.FixedTc {
		t.Errorf("FixedTc not pinned: got %g want %g", res.Tc, ok.FixedTc)
	}

	bad := core.Options{FixedTc: ref.Tc / 2}
	if _, err := Solve(ctx, cc.Overlay(), bad, Config{}, nil); err == nil {
		t.Error("FixedTc below the minimum was accepted")
	}
}

// banksWithCross builds the incremental-test circuit: three banks plus
// one cross-component feedforward arc from bank 0 to bank 1.
func banksWithCross(t *testing.T) (*core.Compiled, int) {
	t.Helper()
	c := gen.Banks(3, 8, 1, 2, 30)
	cross := c.AddPath(0, 9, 5)
	cc, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return cc, cross
}

// TestIncrementalResolve: with a shared State, a repeat solve resolves
// nothing, an intra-component edit resolves exactly the dirty
// component, and a cross-arc edit resolves none — while every answer
// stays in lockstep with the monolithic solver.
func TestIncrementalResolve(t *testing.T) {
	cc, cross := banksWithCross(t)
	pt := cc.Partition()
	if pt.NumComponents() != 3 {
		t.Fatalf("banks circuit has %d components, want 3", pt.NumComponents())
	}
	if pt.PathComp(cross) != -1 {
		t.Fatalf("cross arc classified as intra-component")
	}
	st := NewState()
	opts := core.Options{}
	ctx := context.Background()

	check := func(name string, ov core.DelayOverlay, wantResolved int) {
		t.Helper()
		res, err := Solve(ctx, ov, opts, Config{}, st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Resolved != wantResolved {
			t.Errorf("%s: resolved %d components, want %d", name, res.Resolved, wantResolved)
		}
		ref, err := mcr.SolveCtx(ctx, ov.Materialize(), opts)
		if err != nil {
			t.Fatalf("%s: monolithic: %v", name, err)
		}
		if d := relDiff(res.Tc, ref.Tc); d > 1e-9 {
			t.Errorf("%s: Tc mismatch: decomp %.12g vs mcr %.12g", name, res.Tc, ref.Tc)
		}
	}

	base := cc.Overlay()
	check("base", base, 3)
	check("repeat", base, 0)
	// Path 4 is inside bank 0 (the first 8 ring arcs belong to it).
	dirty := base.With(4, 200)
	if comps, crossEdit := dirty.DirtyComponents(); crossEdit || len(comps) != 1 {
		t.Fatalf("DirtyComponents(With(4)) = %v, %v", comps, crossEdit)
	}
	check("intra-edit", dirty, 1)
	check("intra-edit-repeat", dirty, 0)
	check("cross-edit", base.With(cross, 300), 0)
	check("base-again", base, 0)
}

// TestObsCounters: the decomposition counters must land in the Stats
// snapshot under their wire names.
func TestObsCounters(t *testing.T) {
	cc, _ := banksWithCross(t)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	if _, err := Solve(ctx, cc.Overlay(), core.Options{}, Config{}, nil); err != nil {
		t.Fatal(err)
	}
	stats := rec.Snapshot()
	if got := stats.Counters["components_total"]; got != 3 {
		t.Errorf("components_total = %d, want 3", got)
	}
	if got := stats.Counters["components_resolved"]; got != 3 {
		t.Errorf("components_resolved = %d, want 3", got)
	}
}

// TestTrivialFastPath: a pure flip-flop pipeline is all singleton
// components — no subproblem may run, and the answer must still match
// the monolithic solver (the bound comes from clock cycles the global
// phase supplies).
func TestTrivialFastPath(t *testing.T) {
	c := gen.Pipeline(3, 12, 1, 2, func(i int) float64 { return float64(15 + 3*(i%4)) })
	cc, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), cc.Overlay(), core.Options{}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FastPaths != res.Components {
		t.Errorf("expected every component on the fast path: %d of %d", res.FastPaths, res.Components)
	}
	if res.Resolved != 0 {
		t.Errorf("trivial components were resolved: %d", res.Resolved)
	}
	ref, err := mcr.Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(res.Tc, ref.Tc); d > 1e-9 {
		t.Errorf("Tc mismatch: decomp %.12g vs mcr %.12g", res.Tc, ref.Tc)
	}
}

// TestLPBackendParity: forcing every component through the LP backend
// (huge cutoff) and forcing none (negative cutoff) must agree.
func TestLPBackendParity(t *testing.T) {
	cc, _ := banksWithCross(t)
	ctx := context.Background()
	for _, opts := range optionVariants() {
		viaLP, err := Solve(ctx, cc.Overlay(), opts, Config{LPCutoff: 1 << 20}, NewState())
		if err != nil {
			t.Fatalf("LP backend: %v", err)
		}
		viaMCR, err := Solve(ctx, cc.Overlay(), opts, Config{LPCutoff: -1}, NewState())
		if err != nil {
			t.Fatalf("probe backend: %v", err)
		}
		if d := relDiff(viaLP.Tc, viaMCR.Tc); d > 1e-9 {
			t.Errorf("backend mismatch: LP %.12g vs probe %.12g", viaLP.Tc, viaMCR.Tc)
		}
	}
}
