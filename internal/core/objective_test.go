// Schedule-objective behaviour at the core layer: validation of the
// Objective type, the achieved values of the min-phase-width and
// min-skew-budget objectives (max-margin has its own suite in
// margin_test.go), and the guards keeping schedule objectives out of
// the min-Tc-only workflows.
package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"mintc/internal/lp"
)

func TestObjectiveValidate(t *testing.T) {
	c := example1(80) // Tc* = 110
	bad := []struct {
		name string
		opts Options
		want string
	}{
		{"min-tc with FixedTc on the objective",
			Options{Objective: Objective{Kind: ObjMinTc, FixedTc: 120}}, "must not set FixedTc"},
		{"margin without FixedTc",
			Options{Objective: Objective{Kind: ObjMaxMargin}}, "positive finite FixedTc"},
		{"width with negative FixedTc",
			Options{Objective: Objective{Kind: ObjMinPhaseWidth, FixedTc: -1}}, "positive finite FixedTc"},
		{"skew budget with NaN FixedTc",
			Options{Objective: Objective{Kind: ObjMinSkewBudget, FixedTc: math.NaN()}}, "positive finite FixedTc"},
		{"margin with Inf FixedTc",
			Options{Objective: Objective{Kind: ObjMaxMargin, FixedTc: math.Inf(1)}}, "positive finite FixedTc"},
		{"conflicting Options.FixedTc",
			Options{FixedTc: 130, Objective: MaxMarginAt(120)}, "Options.FixedTc"},
		{"unknown kind",
			Options{Objective: Objective{Kind: ObjectiveKind(99), FixedTc: 120}}, "unknown objective kind"},
	}
	for _, tt := range bad {
		if _, err := MinTc(c, tt.opts); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: err = %v, want substring %q", tt.name, err, tt.want)
		}
	}
	// Agreeing Options.FixedTc and Objective.FixedTc is explicitly
	// allowed (the CLI sets both from -tc).
	if _, err := MinTc(c, Options{FixedTc: 120, Objective: MaxMarginAt(120)}); err != nil {
		t.Errorf("agreeing FixedTc rejected: %v", err)
	}
}

func TestMinPhaseWidthValue(t *testing.T) {
	c := example1(80)
	const tc = 130.0
	r, err := MinTc(c, Options{Objective: MinPhaseWidthAt(tc)})
	if err != nil {
		t.Fatal(err)
	}
	if r.Objective.Kind != ObjMinPhaseWidth {
		t.Fatalf("result objective = %s", r.Objective)
	}
	// The achieved value is the schedule's own total width.
	sum := 0.0
	for _, w := range r.Schedule.T {
		sum += w
	}
	if math.Abs(sum-r.ObjectiveValue) > 1e-9 {
		t.Errorf("ObjectiveValue = %g, schedule total width = %g", r.ObjectiveValue, sum)
	}
	if r.Schedule.Tc != tc {
		t.Errorf("schedule Tc = %g, want pinned %g", r.Schedule.Tc, tc)
	}
	an, err := CheckTc(c, r.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("min-width schedule infeasible: %v", an.Violations)
	}
	// It can only be narrower than what the plain fixed-Tc solve picks.
	base, err := MinTc(c, Options{FixedTc: tc})
	if err != nil {
		t.Fatal(err)
	}
	baseSum := 0.0
	for _, w := range base.Schedule.T {
		baseSum += w
	}
	if r.ObjectiveValue > baseSum+1e-9 {
		t.Errorf("min-width total %g exceeds plain solve's %g", r.ObjectiveValue, baseSum)
	}
	// Below the optimum the pinned system has no feasible schedule.
	if _, err := MinTc(c, Options{Objective: MinPhaseWidthAt(100)}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("below-optimum width solve: err = %v, want ErrInfeasible", err)
	}
}

func TestMinSkewBudgetMaximal(t *testing.T) {
	c := example1(80)
	const tc = 130.0
	r, err := MinTc(c, Options{Objective: MinSkewBudgetAt(tc)})
	if err != nil {
		t.Fatal(err)
	}
	budget := r.ObjectiveValue
	if budget <= 0 {
		t.Fatalf("skew budget = %g, want positive at relaxed Tc", budget)
	}
	// The achieved schedule must close timing with the full budget
	// spent as uniform skew.
	an, err := CheckTc(c, r.Schedule, Options{Skew: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("schedule infeasible under its own skew budget: %v", an.Violations)
	}
	// Maximality: no schedule at this Tc tolerates noticeably more.
	if _, err := MinTc(c, Options{FixedTc: tc, Skew: budget + 0.01}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("budget not maximal: Skew = %g still feasible at Tc = %g (err = %v)", budget+0.01, tc, err)
	}
	// And slightly under it a schedule must exist. The probe stays at
	// the LP level: this close to criticality the departure-update
	// slide may legitimately fail to converge, which is a different
	// contract than feasibility of the pinned system.
	prob, _, _ := BuildLP(c, Options{FixedTc: tc, Skew: budget - 0.01})
	sol, err := lp.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Errorf("Skew just under the budget: LP status %v, want Optimal", sol.Status)
	}
}

// TestScheduleObjectivesGatedWorkflows pins the requireMinTc guards:
// the workflows whose semantics are tied to cycle-time minimization
// must reject schedule objectives with a clear error instead of
// optimizing the wrong thing.
func TestScheduleObjectivesGatedWorkflows(t *testing.T) {
	c := example1(80)
	opts := Options{Objective: MaxMarginAt(130)}
	if _, err := MinTcLex(c, opts, Secondary(0)); err == nil || !strings.Contains(err.Error(), "min-Tc objective") {
		t.Errorf("MinTcLex: err = %v, want a min-Tc-only rejection", err)
	}
	if _, err := ParametricDelay(c, opts, 0, 1, 2); err == nil || !strings.Contains(err.Error(), "min-Tc objective") {
		t.Errorf("ParametricDelay: err = %v, want a min-Tc-only rejection", err)
	}
	// The delay sweep's guard is pinned by TestSweepRejectsScheduleObjectives
	// (sweep_test.go): the sweep lives in internal/decomp, which this
	// in-package test cannot import.
}
