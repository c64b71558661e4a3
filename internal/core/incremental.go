package core

import "fmt"

// TryReoptimizeDual computes the optimal cycle time after changing one
// path's worst-case delay purely from the solved LP's dual
// information, without mutating the circuit, the result, or anything
// else: if the new delay keeps the constraint's RHS inside the final
// basis's validity interval (Solution.RHSRange), the new optimum
// follows from the dual without a simplex solve and ok is true. When
// the basis would change, ok is false and the caller must run a full
// solve (MinTcOverlayWarmCtx on r.Overlay.With(pathIndex, newDelay),
// warm-started from r.LPBasis). Because it is pure, it is safe from
// concurrent goroutines on one shared result — the analysis session's
// Reoptimize, the library's what-if API, is built on it.
//
// Under DesignForHold an edit below the path's MinDelay also clamps
// MinDelay (SetPathDelay / DelayOverlay.With semantics), which raises
// the path's hold-row RHS too; the shortcut then ranges the final
// basis along that two-row RHS direction (Solution.RHSStepRange) and
// prices both rows. A ranging failure declines the shortcut.
func (r *Result) TryReoptimizeDual(pathIndex int, newDelay float64) (tc float64, ok bool, err error) {
	c := r.Circuit
	if pathIndex < 0 || pathIndex >= len(c.Paths()) {
		return 0, false, fmt.Errorf("core: path index %d out of range", pathIndex)
	}
	if newDelay < 0 {
		return 0, false, fmt.Errorf("core: negative delay %g", newDelay)
	}
	if err := requireMinTc("Reoptimize", r.Options); err != nil {
		return 0, false, err
	}
	row, sign, hold, err := r.pathRows(pathIndex)
	if err != nil {
		return 0, false, err
	}
	oldDelay, oldMin := r.Overlay.Delay(pathIndex), r.Overlay.MinDelay(pathIndex)
	sol := r.LPSol
	if hold >= 0 && newDelay < oldMin {
		dDelay, dHold := sign*(newDelay-oldDelay), oldMin-newDelay
		lo, hi, err := sol.RHSStepRange([]int{row, hold}, []float64{dDelay, dHold})
		if err != nil || lo > 1+1e-12 || hi < 1-1e-12 {
			return 0, false, nil
		}
		return r.Schedule.Tc + sol.Dual[row]*dDelay + sol.Dual[hold]*dHold, true, nil
	}
	rhsOld := r.LP.Constraint(row).RHS
	rhsNew := rhsOld + sign*(newDelay-oldDelay)
	rng, err := sol.RHSRange(row)
	if err != nil || rhsNew < rng[0][0]-1e-12 || rhsNew > rng[0][1]+1e-12 {
		return 0, false, nil
	}
	// Same optimal basis: the objective moves at the dual rate.
	return r.Schedule.Tc + sol.Dual[row]*(rhsNew-rhsOld), true, nil
}
