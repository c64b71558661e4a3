package core

import (
	"fmt"
	"math"
)

// ObjectiveKind selects what the design LP optimizes. The zero value is
// the paper's problem: minimize the cycle time Tc.
type ObjectiveKind int

// Objective kinds. Every kind other than ObjMinTc optimizes the clock
// *schedule* at a fixed cycle time (Objective.FixedTc), the design-side
// workloads of the roadmap: once a frequency target is set, pick the
// schedule that maximizes robustness (margin, skew tolerance) or
// minimizes clock cost (total phase width).
const (
	// ObjMinTc minimizes the cycle time (the paper's problem P2).
	ObjMinTc ObjectiveKind = iota
	// ObjMaxMargin maximizes the worst setup margin at a fixed cycle
	// time: a slack variable m >= 0 is added to every setup-type row
	// (L1 latch setup, FF setup) and maximized. The optimum is the
	// largest uniform setup padding every synchronizer can absorb.
	ObjMaxMargin
	// ObjMinPhaseWidth minimizes the total active phase width sum(T_i)
	// at a fixed cycle time: the narrowest clock waveforms that still
	// meet timing (minimum duty, lowest clock power). The LP rows are
	// identical to the min-Tc build at the same FixedTc — only the cost
	// vector changes, so warm starts from a min-Tc basis carry over.
	ObjMinPhaseWidth
	// ObjMinSkewBudget maximizes the uniform extra clock-skew allowance
	// b >= 0 tolerated at a fixed cycle time: b tightens every setup,
	// propagation and hold row exactly like the Skew option, and the
	// optimum is the loosest skew specification the clock network may
	// be built to. (The name reads as minimizing the precision budget
	// demanded of the clock tree.)
	ObjMinSkewBudget
)

// String names the objective kind.
func (k ObjectiveKind) String() string {
	switch k {
	case ObjMinTc:
		return "min-tc"
	case ObjMaxMargin:
		return "max-margin"
	case ObjMinPhaseWidth:
		return "min-phase-width"
	case ObjMinSkewBudget:
		return "min-skew-budget"
	}
	return fmt.Sprintf("ObjectiveKind(%d)", int(k))
}

// Objective is a first-class optimization goal threaded through
// constraint generation (BuildLP), the solvers, the certificate
// checker and the session cache. The zero value is plain cycle-time
// minimization and reproduces the legacy LP bit for bit.
//
// Schedule objectives (every kind except ObjMinTc) require FixedTc > 0:
// they optimize over the family of feasible schedules at that cycle
// time. FixedTc must be at least the circuit's minimum cycle time or
// the LP is infeasible.
type Objective struct {
	Kind ObjectiveKind
	// FixedTc is the pinned cycle time for schedule objectives. It
	// must be zero for ObjMinTc (use Options.FixedTc to analyze a
	// given frequency) and positive for every other kind.
	FixedTc float64
}

// MaxMarginAt returns the objective maximizing the worst setup margin
// at cycle time tc.
func MaxMarginAt(tc float64) Objective { return Objective{Kind: ObjMaxMargin, FixedTc: tc} }

// MinPhaseWidthAt returns the objective minimizing the total phase
// width at cycle time tc.
func MinPhaseWidthAt(tc float64) Objective { return Objective{Kind: ObjMinPhaseWidth, FixedTc: tc} }

// MinSkewBudgetAt returns the objective maximizing the tolerated
// uniform skew allowance at cycle time tc.
func MinSkewBudgetAt(tc float64) Objective { return Objective{Kind: ObjMinSkewBudget, FixedTc: tc} }

// IsMinTc reports whether the objective is plain cycle-time
// minimization (the zero value).
func (o Objective) IsMinTc() bool { return o.Kind == ObjMinTc }

// String renders the objective for diagnostics.
func (o Objective) String() string {
	if o.IsMinTc() {
		return o.Kind.String()
	}
	return fmt.Sprintf("%s@Tc=%g", o.Kind, o.FixedTc)
}

// validate checks the objective on its own and against the fixed-Tc
// option (the two must agree when both are set).
func (o Objective) validate(optFixedTc float64) error {
	switch o.Kind {
	case ObjMinTc:
		if o.FixedTc != 0 {
			return fmt.Errorf("core: objective %s must not set FixedTc (%g); use Options.FixedTc", o.Kind, o.FixedTc)
		}
		return nil
	case ObjMaxMargin, ObjMinPhaseWidth, ObjMinSkewBudget:
		if !(o.FixedTc > 0) || math.IsInf(o.FixedTc, 0) || math.IsNaN(o.FixedTc) {
			return fmt.Errorf("core: objective %s requires a positive finite FixedTc, got %g", o.Kind, o.FixedTc)
		}
		if optFixedTc > 0 && optFixedTc != o.FixedTc {
			return fmt.Errorf("core: objective %s pins Tc = %g but Options.FixedTc = %g", o.Kind, o.FixedTc, optFixedTc)
		}
		return nil
	}
	return fmt.Errorf("core: unknown objective kind %d", int(o.Kind))
}

// effectiveFixedTc resolves the cycle-time pin the LP must carry: the
// objective's FixedTc for schedule objectives, else Options.FixedTc.
func (o Objective) effectiveFixedTc(optFixedTc float64) float64 {
	if !o.IsMinTc() {
		return o.FixedTc
	}
	return optFixedTc
}

// auxVarName names the LP slack variable a schedule objective adds
// ("" when the objective adds none).
func (o Objective) auxVarName() string {
	switch o.Kind {
	case ObjMaxMargin:
		return "margin"
	case ObjMinSkewBudget:
		return "skewBudget"
	}
	return ""
}

// requireMinTc rejects schedule objectives from workflows whose
// semantics are tied to cycle-time minimization (parametric walks,
// lexicographic tie-breaks, incremental reoptimization).
func requireMinTc(op string, opts Options) error {
	if opts.Objective.IsMinTc() {
		return nil
	}
	return fmt.Errorf("core: %s requires the min-Tc objective, got %s", op, opts.Objective)
}

// FeasibilityOptions returns the Options the achieved schedule must be
// verified (and its departures slid) under: schedule objectives pin
// FixedTc, and the skew-budget objective additionally folds the
// achieved allowance value into the uniform Skew margin — the claim
// being certified is precisely "the schedule still passes with Skew
// increased by value".
func (o Objective) FeasibilityOptions(opts Options, value float64) Options {
	if o.IsMinTc() {
		return opts
	}
	opts.FixedTc = o.FixedTc
	if o.Kind == ObjMinSkewBudget && value > 0 {
		opts.Skew += value
	}
	// The verification options describe a plain feasibility question;
	// the objective itself is not part of them.
	opts.Objective = Objective{}
	return opts
}
