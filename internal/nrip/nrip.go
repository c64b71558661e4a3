// Package nrip reconstructs the NRIP ("null retardation in the initial
// phase") heuristic of Dagenais & Rumin, the baseline the paper
// compares Algorithm MLP against in its Figs. 6, 7 and 9.
//
// The original NRIP is an iterative graph-based procedure from a MOS
// timing tool (TAMIA); its source is not reproduced in the paper.
// Following the paper's characterization — the heuristic produces a
// unique schedule because of "implicit minimum constraints on phase
// widths and separations", performs essentially one borrowing
// refinement, and is suboptimal except at isolated parameter values —
// this reconstruction proceeds in two steps:
//
//  1. Null-retardation pass: compute the minimum-Tc clock schedule
//     under the edge-triggered approximation (package ettf), in which
//     every departure is pinned to its phase's opening edge. This
//     fixes the *shape* of the clock (the relative phase positions and
//     widths), exactly the kind of implicit commitment the paper
//     ascribes to NRIP.
//  2. Single borrowing pass: keeping that shape fixed, shrink the
//     whole schedule uniformly (s_i, T_i, Tc scaled together, with
//     phase widths clamped at their setup floors — the "implicit
//     minimum phase widths") to the smallest cycle time that still
//     passes the exact level-sensitive analysis (core.CheckTc). This
//     recovers the slack that latch transparency ("borrowing") makes
//     available along the edge-triggered critical path, but cannot
//     re-balance the clock — which is why the result is suboptimal
//     whenever the optimal schedule's shape differs from the
//     edge-triggered one.
//
// The reconstruction preserves the comparison's qualitative shape:
// NRIP >= MLP everywhere, with equality only where the edge-triggered
// shape happens to be optimal. It does not reproduce Dagenais' exact
// numbers (see EXPERIMENTS.md).
package nrip

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mintc/internal/core"
	"mintc/internal/ettf"
	"mintc/internal/obs"
)

// Result is the outcome of the NRIP heuristic.
type Result struct {
	// Schedule is the final (borrowed) schedule.
	Schedule *core.Schedule
	// EdgeTriggeredTc is the cycle time after the null-retardation
	// pass, before borrowing.
	EdgeTriggeredTc float64
	// BorrowingGain is EdgeTriggeredTc − Schedule.Tc.
	BorrowingGain float64
	// Probes counts CheckTc evaluations in the borrowing pass.
	Probes int
	// Stats is the observability snapshot of the solve (probe counter,
	// "edge-triggered"/"borrow" stage durations).
	Stats obs.Stats
}

// MinTcCtx runs the NRIP reconstruction on the snapshot behind ov,
// with path delays read through the overlay. The tolerance of the
// borrowing bisection is 1e-9 relative to the edge-triggered cycle
// time. The context is honored inside the edge-triggered LP solve and
// between borrowing probes, and probe counts plus stage timings are
// reported into the obs recorder carried by the context (one is
// created when absent, so Result.Stats is always populated).
func MinTcCtx(ctx context.Context, ov core.DelayOverlay, opts core.Options) (*Result, error) {
	if !ov.Valid() {
		return nil, errors.New("nrip: solve on a zero DelayOverlay (start from Circuit.Freeze)")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !opts.Objective.IsMinTc() {
		return nil, fmt.Errorf("nrip: objective %s is not supported (min-Tc only)", opts.Objective)
	}
	c := ov.Base().Circuit()
	rec := obs.From(ctx)
	if rec == nil {
		rec = obs.New()
		ctx = obs.With(ctx, rec)
	}
	var et *ettf.Result
	if err := rec.Phase(ctx, "edge-triggered", func(ctx context.Context) error {
		var serr error
		et, serr = ettf.MinTcCtx(ctx, ov, opts)
		return serr
	}); err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("nrip: null-retardation pass failed: %w", err)
	}
	res := &Result{EdgeTriggeredTc: et.Schedule.Tc}
	base := et.Schedule
	if base.Tc <= 0 {
		res.Schedule = base
		res.Stats = rec.Snapshot()
		return res, nil
	}

	// Phase-width floors: the setup times of the latches on each phase
	// (plus any explicit MinPhaseWidth option).
	floors := make([]float64, c.K())
	for i := range floors {
		floors[i] = opts.MinPhaseWidth
	}
	for _, sy := range c.Syncs() {
		if sy.Kind == core.Latch && sy.Setup+opts.Skew > floors[sy.Phase] {
			floors[sy.Phase] = sy.Setup + opts.Skew
		}
	}

	err := rec.Phase(ctx, "borrow", func(ctx context.Context) error {
		feasibleAt := func(alpha float64) (bool, error) {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			res.Probes++
			rec.Add(obs.Probes, 1)
			an, err := core.CheckTcOverlay(ov, scale(base, alpha, floors), opts)
			return err == nil && an.Feasible, nil
		}
		ok, err := feasibleAt(1)
		if err != nil {
			return err
		}
		if !ok {
			// The edge-triggered schedule must satisfy the exact
			// constraints (it is strictly conservative); failure would be
			// a modeling bug.
			return fmt.Errorf("nrip: edge-triggered schedule fails exact analysis")
		}
		// Bisect the scale factor in (0, 1]: larger schedules are more
		// feasible, so feasibility is monotone in alpha for a fixed shape.
		lo, hi := 0.0, 1.0
		tol := 1e-9
		for hi-lo > tol {
			mid := (lo + hi) / 2
			ok, err := feasibleAt(mid)
			if err != nil {
				return err
			}
			if ok {
				hi = mid
			} else {
				lo = mid
			}
		}
		res.Schedule = scale(base, hi, floors)
		res.BorrowingGain = res.EdgeTriggeredTc - res.Schedule.Tc
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Stats = rec.Snapshot()
	return res, nil
}

// scale returns the schedule with every time multiplied by alpha,
// except that phase widths never drop below their floors.
func scale(sc *core.Schedule, alpha float64, floors []float64) *core.Schedule {
	out := sc.Clone()
	out.Tc *= alpha
	for i := range out.S {
		out.S[i] *= alpha
		out.T[i] *= alpha
		if out.T[i] < floors[i] {
			out.T[i] = floors[i]
		}
	}
	return out
}

// Gap returns the relative suboptimality of an NRIP result versus the
// optimal cycle time, e.g. 0.35 for the paper's "35% higher" example.
func Gap(nripTc, optTc float64) float64 {
	if optTc <= 0 {
		return math.Inf(1)
	}
	return nripTc/optTc - 1
}
