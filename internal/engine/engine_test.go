package engine_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/obs"
)

func TestRegistryHasAllEngines(t *testing.T) {
	want := []string{"decomp", "ettf", "mcr", "mlp", "nrip", "sim"}
	got := engine.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, n := range want {
		s, ok := engine.Get(n)
		if !ok {
			t.Fatalf("Get(%q) not found", n)
		}
		if s.Name() != n {
			t.Fatalf("Get(%q).Name() = %q", n, s.Name())
		}
	}
}

func TestSolveUnknownEngine(t *testing.T) {
	_, err := engine.Solve(context.Background(), "simplex2000", circuits.Example1(80).MustFreeze().Overlay(), engine.Options{})
	if err == nil {
		t.Fatal("expected error for unknown engine")
	}
}

// TestAllEnginesSolveExample1 checks every engine through the common
// entry point on the paper's Example 1: the exact engines (mlp, mcr)
// and the simulator of the optimal schedule must report the paper's
// Tc* = 110; the conservative engines (ettf, nrip) must upper-bound
// it. All must populate Stats.
func TestAllEnginesSolveExample1(t *testing.T) {
	ov := circuits.Example1(80).MustFreeze().Overlay()
	const want = 110.0
	for _, name := range engine.Names() {
		res, err := engine.Solve(context.Background(), name, ov, engine.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Engine != name {
			t.Errorf("%s: Result.Engine = %q", name, res.Engine)
		}
		switch name {
		case "mlp", "mcr", "sim":
			if math.Abs(res.Tc-want) > 1e-6 {
				t.Errorf("%s: Tc = %g, want %g", name, res.Tc, want)
			}
		default: // conservative upper bounds
			if res.Tc < want-1e-6 {
				t.Errorf("%s: Tc = %g below the exact optimum %g", name, res.Tc, want)
			}
		}
		if res.Schedule == nil {
			t.Errorf("%s: nil Schedule", name)
		}
		if len(res.Stats.Counters) == 0 && len(res.Stats.StageNs) == 0 {
			t.Errorf("%s: empty Stats", name)
		}
		if res.Detail == nil {
			t.Errorf("%s: nil Detail", name)
		}
	}
}

// TestAllEnginesSolveOverlay drives every engine through an edited
// overlay — read natively by mlp/decomp/sim, materialized by the
// rest — with an edit moving Example 1 from Δ41=50 to Δ41=80, and
// requires exact agreement with solving a circuit built at Δ41=80.
func TestAllEnginesSolveOverlay(t *testing.T) {
	cc, err := circuits.Example1(50).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ov := cc.Overlay().With(3, 80)
	for _, name := range engine.Names() {
		got, err := engine.Solve(context.Background(), name, ov, engine.Options{Seed: 1, Trials: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := engine.Solve(context.Background(), name, circuits.Example1(80).MustFreeze().Overlay(), engine.Options{Seed: 1, Trials: 8})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Tc != want.Tc {
			t.Errorf("%s: overlay Tc %v != direct Tc %v", name, got.Tc, want.Tc)
		}
		if got.Engine != name {
			t.Errorf("%s: Result.Engine = %q", name, got.Engine)
		}
		if len(got.Stats.Counters) == 0 && len(got.Stats.StageNs) == 0 {
			t.Errorf("%s: empty Stats", name)
		}
	}
	// The snapshot's own delays must be untouched.
	if d := cc.Circuit().Paths()[3].Delay; d != 50 {
		t.Errorf("snapshot Δ41 = %g after engine solves, want 50", d)
	}
}

func TestSolveOverlayZeroOverlay(t *testing.T) {
	_, err := engine.Solve(context.Background(), "mlp", core.DelayOverlay{}, engine.Options{})
	if err == nil {
		t.Fatal("expected error for a zero overlay")
	}
}

// TestSolveCertifiedZeroOverlay: the certified supervisor rejects the
// zero overlay before its ladder starts, as an error (not a panic in
// certification) attributed to the requested engine.
func TestSolveCertifiedZeroOverlay(t *testing.T) {
	var rungs []string
	res, err := engine.SolveCertifiedOverlay(context.Background(), "mlp", core.DelayOverlay{}, engine.Options{},
		engine.Policy{OnRung: func(_, r string) { rungs = append(rungs, r) }})
	if err == nil {
		t.Fatal("expected error for a zero overlay")
	}
	if res == nil || res.Engine != "mlp" {
		t.Fatalf("Result = %+v, want a non-nil Result for engine mlp", res)
	}
	if len(rungs) != 0 {
		t.Errorf("rungs tried = %v, want none", rungs)
	}
}

// TestSolveCertifiedInvalidCircuit: a circuit that fails validation is
// an input error reported by the up-front Freeze — no ladder rung runs,
// no fallback is counted, and the error is not ladder exhaustion.
func TestSolveCertifiedInvalidCircuit(t *testing.T) {
	c := core.NewCircuit(2)
	_, verr := c.Freeze()
	if verr == nil {
		t.Fatal("empty circuit froze")
	}
	var rungs []string
	rec := obs.New()
	res, err := engine.SolveCertified(context.Background(), "mlp", c, engine.Options{Rec: rec},
		engine.Policy{OnRung: func(_, r string) { rungs = append(rungs, r) }})
	if inner := errors.Unwrap(err); inner == nil || inner.Error() != verr.Error() {
		t.Fatalf("err = %v, want it to wrap the validation error %q", err, verr)
	}
	if errors.Is(err, engine.ErrLadderExhausted) {
		t.Errorf("err = %v wraps ErrLadderExhausted", err)
	}
	if res == nil || len(res.Trail) != 0 {
		t.Errorf("Result = %+v, want a non-nil Result with an empty Trail", res)
	}
	if len(rungs) != 0 {
		t.Errorf("rungs tried = %v, want none", rungs)
	}
	if got := rec.Get(obs.Fallbacks); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}
}

func TestRunRejectsInvalidOptions(t *testing.T) {
	ov := circuits.Example1(80).MustFreeze().Overlay()
	opts := engine.Options{Core: core.Options{Skew: -1}}
	for _, name := range engine.Names() {
		res, err := engine.Solve(context.Background(), name, ov, opts)
		if err == nil {
			t.Errorf("%s: negative Skew accepted", name)
		}
		if res == nil {
			t.Errorf("%s: Solve must return a non-nil Result even on error", name)
		}
	}
}

func TestRunUsesProvidedRecorder(t *testing.T) {
	rec := obs.New()
	ov := circuits.Example1(80).MustFreeze().Overlay()
	res, err := engine.Solve(context.Background(), "mlp", ov, engine.Options{Rec: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Get(obs.Pivots); got == 0 {
		t.Error("provided recorder saw no pivots")
	}
	if res.Stats.Counter(obs.Pivots) != rec.Get(obs.Pivots) {
		t.Error("Result.Stats does not snapshot the provided recorder")
	}
}

func TestCancelledContextReturnsPartialStats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ov := circuits.Example1(80).MustFreeze().Overlay()
	for _, name := range engine.Names() {
		res, err := engine.Solve(ctx, name, ov, engine.Options{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res == nil {
			t.Errorf("%s: nil Result on cancellation", name)
		}
	}
}

func TestSimEngineValidatesGivenSchedule(t *testing.T) {
	ov := circuits.Example1(80).MustFreeze().Overlay()
	opt, err := engine.Solve(context.Background(), "mlp", ov, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Solve(context.Background(), "sim", ov, engine.Options{
		Schedule: opt.Schedule,
		Trials:   10,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	det, ok := res.Detail.(*engine.SimDetail)
	if !ok {
		t.Fatalf("sim Detail is %T", res.Detail)
	}
	if len(det.Trace.Violations) != 0 {
		t.Errorf("optimal schedule simulated with violations: %v", det.Trace.Violations)
	}
	if det.MC == nil || det.MC.Trials != 10 {
		t.Errorf("Monte-Carlo detail missing or wrong trial count: %+v", det.MC)
	}
	if det.MC != nil && det.MC.FailingTrials != 0 {
		t.Errorf("optimal schedule failed %d Monte-Carlo trials", det.MC.FailingTrials)
	}
	if got := res.Stats.Counter(obs.SimCycles); got == 0 {
		t.Error("sim engine recorded no simulated cycles")
	}
	if got := res.Stats.Counter(obs.Trials); got != 10 {
		t.Errorf("Trials counter = %d, want 10", got)
	}
}
