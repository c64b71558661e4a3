package decomp

import (
	"context"
	"math"
	"reflect"
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

// TestSolveParitySuite: on every suite circuit (through the 10k-latch
// family) under every option variant, the decomposed solve must be
// bitwise equal to the monolithic cycle-ratio solver, agree with the
// LP, and carry a witness cycle that verifies as an optimality
// certificate whenever the answer is positive.
func TestSolveParitySuite(t *testing.T) {
	ctx := context.Background()
	// The monolithic LP takes seconds to minutes past gen.Suite(), so
	// the LP cross-check covers the suite only; mcr.Solve covers every
	// circuit.
	lpSuite := gen.Suite()
	suite := append(append(lpSuite[:len(lpSuite):len(lpSuite)], gen.XLarge()...), gen.Huge()...)
	for bi, b := range suite {
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
			if math.Float64bits(res.Tc) != math.Float64bits(ref.Tc) {
				t.Errorf("%s/v%d: Tc not bitwise equal: decomp %.17g vs mcr %.17g", b.Name, vi, res.Tc, ref.Tc)
			}
			if bi < len(lpSuite) {
				if lpRef, err := core.MinTc(b.Circuit, opts); err == nil {
					if d := relDiff(res.Tc, lpRef.Schedule.Tc); d > 1e-9 {
						t.Errorf("%s/v%d: Tc mismatch vs LP: decomp %.12g vs mlp %.12g (rel %.3g)", b.Name, vi, res.Tc, lpRef.Schedule.Tc, d)
					}
				}
			}
			if res.Tc > 0 {
				if len(res.CriticalArcs) == 0 {
					t.Errorf("%s/v%d: Tc=%.12g carries no witness cycle", b.Name, vi, res.Tc)
				} else if cert := verify.CriticalCycle(ratioArcs(res.CriticalArcs), res.Tc, 0); !cert.Certified() {
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
		ref, err := mcr.SolveOverlayCtx(ctx, ov.Materialize().MustFreeze().Overlay(), opts)
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

// TestTrivialBindingWitness: when a closed-form singleton's setup loop
// binds, the global phase certifies the candidate on its first probe
// and finds no witness of its own, so the answer's critical cycle is
// the setup loop Solve synthesizes for that one component:
// u → e (A = Setup) → s (B = −1) → u, closed, of ratio Tc.
func TestTrivialBindingWitness(t *testing.T) {
	c := core.NewCircuit(2)
	c.AddLatch("slow", 0, 7, 8)
	c.AddLatch("a", 1, 1, 2)
	c.AddLatch("b", 0, 1, 2)
	c.AddPath(1, 2, 1)
	cc, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), cc.Overlay(), core.Options{}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tc != 7 || res.FastPaths != res.Components {
		t.Fatalf("Tc = %v with %d of %d components closed-form; want 7 from the setup loop of %q, all closed-form",
			res.Tc, res.FastPaths, res.Components, "slow")
	}
	want := []mcr.CycleArc{
		{From: "u.slow", To: "e.phi1", A: 7, B: 0},
		{From: "e.phi1", To: "s.phi1", A: 0, B: -1},
		{From: "s.phi1", To: "u.slow", A: 0, B: 0},
	}
	if !reflect.DeepEqual(res.CriticalArcs, want) || res.CriticalRatio != 7 {
		t.Fatalf("critical cycle %+v (ratio %v), want the setup loop %+v", res.CriticalArcs, res.CriticalRatio, want)
	}
}

// TestSharedStateMatchesFreshBitwise: Solve reconciles its State's
// coupling solver to each overlay through mcr.Solver.SetDelayMin, so
// a solve with one State shared across edits must answer bit for bit
// like a solve without a State. Every gen.Suite path is raised to
// 2d+5 in turn, on the plain circuits and on hold variants under
// DesignForHold.
func TestSharedStateMatchesFreshBitwise(t *testing.T) {
	ctx := context.Background()
	sameBits := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return len(x) == len(y)
	}
	for _, bm := range gen.Suite() {
		hold := core.NewCircuit(bm.Circuit.K())
		for _, s := range bm.Circuit.Syncs() {
			s.Hold = 0.1
			hold.AddSync(s)
		}
		for _, p := range bm.Circuit.Paths() {
			p.MinDelay = p.Delay / 2
			hold.AddPathFull(p)
		}
		for _, v := range []struct {
			c    *core.Circuit
			opts core.Options
		}{
			{bm.Circuit, core.Options{}},
			{hold, core.Options{DesignForHold: true}},
		} {
			base := v.c.MustFreeze().Overlay()
			st := NewState()
			for p, path := range v.c.Paths() {
				ov := base.With(p, 2*path.Delay+5)
				got, gerr := Solve(ctx, ov, v.opts, Config{Workers: 1}, st)
				want, werr := Solve(ctx, ov, v.opts, Config{Workers: 1}, nil)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s hold=%v path %d: shared State err %v, none %v", bm.Name, v.opts.DesignForHold, p, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				if math.Float64bits(got.Tc) != math.Float64bits(want.Tc) || !sameBits(got.D, want.D) ||
					!reflect.DeepEqual(got.Schedule, want.Schedule) {
					t.Fatalf("%s hold=%v path %d: shared State Tc %v, none %v", bm.Name, v.opts.DesignForHold, p, got.Tc, want.Tc)
				}
			}
		}
	}
}
