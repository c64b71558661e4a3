// Schedule objectives through the engine layer: certified solves for
// each objective, and the certify-or-bypass routing — the cycle-ratio
// engines reject schedule objectives outright, so their certified
// ladders must route straight to the LP rungs.
package engine_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/engine"
)

// TestCertifiedScheduleObjectives: each schedule objective solves and
// certifies on the mlp engine's first rung, returns the pinned cycle
// time, and carries a sensible achieved value.
func TestCertifiedScheduleObjectives(t *testing.T) {
	c := circuits.GaAsMIPS()
	const fixedTc = 5.0 // above the GaAs optimum 4.4
	for _, obj := range []core.Objective{
		core.MaxMarginAt(fixedTc),
		core.MinPhaseWidthAt(fixedTc),
		core.MinSkewBudgetAt(fixedTc),
	} {
		t.Run(obj.String(), func(t *testing.T) {
			res, err := engine.SolveCertified(context.Background(), "mlp", c,
				engine.Options{Core: core.Options{Objective: obj}}, engine.Policy{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certificate.Certified() {
				t.Fatalf("certificate rejected: %s", res.Certificate)
			}
			if len(res.Trail) != 1 || !res.Trail[0].Certified {
				t.Fatalf("trail = %+v, want one certified attempt", res.Trail)
			}
			if res.Schedule.Tc != fixedTc {
				t.Errorf("schedule Tc = %g, want pinned %g", res.Schedule.Tc, fixedTc)
			}
			det := res.Detail.(*core.Result)
			if det.Objective != obj {
				t.Errorf("detail objective = %s, want %s", det.Objective, obj)
			}
			if math.IsNaN(det.ObjectiveValue) || det.ObjectiveValue < -1e-9 {
				t.Errorf("objective value = %g, want >= 0 at a relaxed Tc", det.ObjectiveValue)
			}
		})
	}
}

// TestScheduleObjectiveBypassesCycleRatioRungs: asking the mcr or
// decomp engine for a schedule objective must not run their primaries
// (which reject non-min-Tc objectives); the certified ladder routes to
// the LP rungs and still delivers a certified answer.
func TestScheduleObjectiveBypassesCycleRatioRungs(t *testing.T) {
	c := circuits.GaAsMIPS()
	obj := core.MaxMarginAt(5)
	opts := engine.Options{Core: core.Options{Objective: obj}}

	// The plain (uncertified) solves reject: certify-or-bypass means a
	// schedule objective never silently runs a min-Tc algorithm.
	for _, name := range []string{"mcr", "decomp", "ettf", "nrip"} {
		if _, err := engine.Solve(context.Background(), name, c.MustFreeze().Overlay(), opts); err == nil ||
			!strings.Contains(err.Error(), "min-Tc only") {
			t.Errorf("engine %q plain solve: err = %v, want a min-Tc-only rejection", name, err)
		}
	}

	for _, name := range []string{"mcr", "decomp"} {
		t.Run(name, func(t *testing.T) {
			var rungs []string
			res, err := engine.SolveCertified(context.Background(), name, c, opts,
				engine.Policy{OnRung: func(_, r string) { rungs = append(rungs, r) }})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Certificate.Certified() {
				t.Fatalf("certificate rejected: %s", res.Certificate)
			}
			if len(rungs) == 0 || rungs[0] != "mlp" {
				t.Fatalf("rungs = %v, want the ladder to start at the LP rung", rungs)
			}
			for _, r := range rungs {
				if r == "primary" || r == "mcr" {
					t.Fatalf("rungs = %v: a cycle-ratio rung ran under a schedule objective", rungs)
				}
			}
			if _, ok := res.Detail.(*core.Result); !ok {
				t.Fatalf("detail = %T, want the LP result", res.Detail)
			}
		})
	}
}

// TestScheduleObjectiveMatchesDirectSolve: the engine path and the
// direct core solve agree on the achieved value — the supervisor adds
// certification, not different numbers.
func TestScheduleObjectiveMatchesDirectSolve(t *testing.T) {
	c := circuits.GaAsMIPS()
	obj := core.MinPhaseWidthAt(5)
	direct, err := core.MinTc(c, core.Options{Objective: obj})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.SolveCertified(context.Background(), "mlp", c,
		engine.Options{Core: core.Options{Objective: obj}}, engine.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Detail.(*core.Result).ObjectiveValue
	if math.Abs(got-direct.ObjectiveValue) > 1e-9 {
		t.Errorf("engine value %g != direct value %g", got, direct.ObjectiveValue)
	}
}
