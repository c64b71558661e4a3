package mcr

import (
	"context"

	"mintc/internal/core"
)

// NewSolverOverlay compiles the full constraint graph with path delays
// read through a snapshot overlay, for repeated solves: design
// iterations (SetDelay between solves), sweeps and the decomposed
// solver's global coupling phase. The snapshot is already validated
// (Freeze), so only the options are checked. SetDelay edits layer on
// top of the overlay's delays.
func NewSolverOverlay(ov core.DelayOverlay, opts core.Options) (*Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newSolverOn(newBuilder(ov, opts, nil), opts, ov), nil
}

// NewComponentSolver compiles the restriction of the constraint system
// to one latch-graph component: the clock rows plus the member
// synchronizers' rows and the intra-component path arcs, with delays
// read through the overlay. Because the subsystem's constraints are a
// subset of the full system's, its optimal cycle time is a sound lower
// bound on the circuit's — the bound the decomposed solver maximizes
// over components. members is the component's synchronizer set
// (core.Partition.Members).
func NewComponentSolver(ov core.DelayOverlay, opts core.Options, members []int32) (*Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newSolverOn(newBuilder(ov, opts, members), opts, ov), nil
}

// SolveFromCtx runs the witness-jumping loop starting from a
// caller-supplied cycle-time lower bound (any sound bound; the
// decomposed solver passes the max over per-component optima). If the
// system is feasible at the bound, the bound is returned as the
// optimum — feasible + lower bound = optimal — with a cold extraction
// probe producing the canonical least schedule.
func (s *Solver) SolveFromCtx(ctx context.Context, lower float64) (*Result, error) {
	return solveFrom(ctx, s.b, s.opts, lower, true, false)
}

// SolveFromWarmCtx is SolveFromCtx with the first probe warm-started
// from the potentials left by the previous solve on this Solver (or
// installed by SeedPotentials), at max(lower, the stored witness
// cycle's ratio re-priced at the current delays). The verdict and
// optimum are unchanged — warm starts are sound feasibility oracles
// and the re-priced witness is a real cycle, so its ratio is a sound
// lower bound — and extraction still finishes with a cold probe, so the
// returned schedule is the same canonical least schedule SolveFromCtx
// produces.
func (s *Solver) SolveFromWarmCtx(ctx context.Context, lower float64) (*Result, error) {
	return solveFrom(ctx, s.b, s.opts, lower, true, true)
}

// MinTcFromCtx is SolveFromCtx without schedule extraction: the result
// carries Tc (and the witness cycle when one binds) but nil Schedule
// and D, skipping the cold re-probe entirely. Sweeps use it — they
// report cycle times only.
func (s *Solver) MinTcFromCtx(ctx context.Context, lower float64) (*Result, error) {
	return solveFrom(ctx, s.b, s.opts, lower, false, false)
}

// MinTcFromWarmCtx is MinTcFromCtx with the first probe warm-started
// from the potentials the previous solve on this Solver left behind,
// at max(lower, the stored witness cycle's ratio re-priced at the
// current delays). Warm potentials are sound starting points for the
// Bellman–Ford feasibility probe at any tc (shift invariance of
// difference constraints), and the re-priced witness is a real cycle
// of the graph, so the verdict — and the optimum the jumps converge
// to, within the probe tolerance — is unchanged; only the work is.
// Sweeps use it for every point after the first: successive sweep
// points move one edge weight, so the previous potentials already
// satisfy almost the whole graph, and while the previous critical
// cycle stays critical the first probe at its re-priced ratio is
// feasible and ends the solve. Such a re-solve carries no witness
// cycle: it is the stored one, and rendering its arcs would cost more
// than the probe on every sweep point, which reports Tc only.
// SolveFromWarmCtx does report it.
func (s *Solver) MinTcFromWarmCtx(ctx context.Context, lower float64) (*Result, error) {
	return solveFrom(ctx, s.b, s.opts, lower, false, true)
}
