package core

import (
	"context"
	"fmt"
)

// TryReoptimizeDual computes the optimal cycle time after changing one
// path's worst-case delay purely from the solved LP's dual
// information, without mutating the circuit, the result, or anything
// else: if the new delay keeps the constraint's RHS inside the final
// basis's validity interval (Solution.RHSRange), the new optimum
// follows from the dual without a simplex solve and ok is true. When
// the basis would change, ok is false and the caller must run a full
// solve. Because it is pure, it is safe against results backed by a
// frozen snapshot (MinTcOverlay) and from concurrent goroutines — the
// analysis session's Reoptimize is built on it.
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
	oldDelay, oldMin := c.Paths()[pathIndex].Delay, c.Paths()[pathIndex].MinDelay
	if r.Overlay.Valid() {
		oldDelay, oldMin = r.Overlay.Delay(pathIndex), r.Overlay.MinDelay(pathIndex)
	}
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

// Reoptimize returns the optimal cycle time after changing one path's
// worst-case delay, reusing the solved LP when possible (see
// TryReoptimizeDual) and falling back to a full MinTc when the optimal
// basis changes — the incremental analysis pattern of interactive
// timing tools.
//
// On success the circuit is left set to newDelay (mirroring what a
// design iteration does); if the fallback solve fails, the circuit is
// restored to its pre-call delays so an error never leaves it silently
// mutated. resolved reports whether a full solve was needed.
//
// Results backed by a frozen snapshot (MinTcOverlay) reject Reoptimize
// — their circuit is immutable; layer the edit with
// DelayOverlay.With and re-solve, or use a session, instead.
func (r *Result) Reoptimize(pathIndex int, newDelay float64) (tc float64, resolved bool, err error) {
	if r.Overlay.Valid() {
		return 0, false, fmt.Errorf("core: Reoptimize on a snapshot-backed result would mutate the frozen circuit; use DelayOverlay.With + MinTcOverlay (or Session.Reoptimize)")
	}
	tc, ok, err := r.TryReoptimizeDual(pathIndex, newDelay)
	if err != nil {
		return 0, false, err
	}
	c := r.Circuit
	oldDelay := c.paths[pathIndex].Delay
	oldMin := c.paths[pathIndex].MinDelay
	c.SetPathDelay(pathIndex, newDelay)
	if ok {
		return tc, false, nil
	}
	// The edit only moved one constraint's RHS, so the solved LP's
	// basis warm-starts the fallback: the dual simplex repairs it in a
	// few pivots instead of re-running phase 1 (the solver falls back
	// to a cold solve on its own if the basis turns out unusable).
	full, err := minTcCtxWarm(context.Background(), c, nil, r.Options, r.LPBasis())
	if err != nil {
		// Restore both fields: SetPathDelay clamps MinDelay down to the
		// new delay, so undoing it must undo the clamp too.
		c.paths[pathIndex].Delay = oldDelay
		c.paths[pathIndex].MinDelay = oldMin
		return 0, true, err
	}
	return full.Schedule.Tc, true, nil
}
