package engine

import (
	"context"
	"math/rand"

	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/ettf"
	"mintc/internal/mcr"
	"mintc/internal/nrip"
	"mintc/internal/obs"
	"mintc/internal/sim"
)

func init() {
	Register(mlpSolver{})
	Register(mcrSolver{})
	Register(decompSolver{})
	Register(nripSolver{})
	Register(ettfSolver{})
	Register(simSolver{})
}

// DecompThreshold is the synchronizer count at which the "mlp" engine
// stops running the monolithic LP and routes through the decomposed
// solver instead: past a few thousand latches a cold simplex solve
// takes minutes while the decomposed per-component pass plus a global
// coupling probe takes seconds, for the same (certified) answer. The
// explicit "decomp" engine ignores the threshold and always
// decomposes.
const DecompThreshold = 4096

// mlpSolver runs the paper's Algorithm MLP (LP solve + departure
// slide) — the exact optimum. Above DecompThreshold synchronizers the
// answer comes from the decomposed solver (the LP is the bottleneck,
// not the model; the optimum is the same), with the engine's Detail
// switching to *decomp.Result accordingly.
type mlpSolver struct{}

func (mlpSolver) Name() string { return "mlp" }

func (mlpSolver) Solve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error) {
	// Schedule objectives (max-margin, min-phase-width, skew-budget)
	// always run the monolithic LP: the decomposed solver's
	// lower-bound/coupling argument only applies to min-Tc.
	if ov.Base().L() >= DecompThreshold && opts.Core.Objective.IsMinTc() {
		return decompSolve(ctx, ov, opts)
	}
	r, err := core.MinTcOverlayWarmCtx(ctx, ov, opts.Core, opts.WarmBasis)
	if err != nil {
		return nil, err
	}
	return &Result{Tc: r.Schedule.Tc, Schedule: r.Schedule, D: r.D, Detail: r}, nil
}

// decompSolver is the SCC-decomposed solver as an explicit engine:
// per-component subproblems (closed-form or min-cycle-ratio) in
// parallel, then one global coupling pass that certifies or repairs
// the combined bound — the incremental/100k-scale path.
type decompSolver struct{}

func (decompSolver) Name() string { return "decomp" }

func (decompSolver) Solve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error) {
	return decompSolve(ctx, ov, opts)
}

func decompSolve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error) {
	r, err := decomp.Solve(ctx, ov, opts.Core, decomp.Config{Workers: opts.Workers}, opts.DecompState)
	if err != nil {
		return nil, err
	}
	return &Result{Tc: r.Tc, Schedule: r.Schedule, D: r.D, Detail: r}, nil
}

// mcrSolver runs the min-cycle-ratio formulation — the same optimum by
// Bellman–Ford witness jumping instead of simplex.
type mcrSolver struct{}

func (mcrSolver) Name() string { return "mcr" }

func (mcrSolver) Solve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error) {
	r, err := mcr.SolveOverlayCtx(ctx, ov, opts.Core)
	if err != nil {
		return nil, err
	}
	return &Result{Tc: r.Tc, Schedule: r.Schedule, D: r.D, Detail: r}, nil
}

// nripSolver runs the NRIP heuristic reconstruction (edge-triggered
// shape + one borrowing pass) — an upper bound on the optimum.
type nripSolver struct{}

func (nripSolver) Name() string { return "nrip" }

func (nripSolver) Solve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error) {
	r, err := nrip.MinTcCtx(ctx, ov, opts.Core)
	if err != nil {
		return nil, err
	}
	return &Result{Tc: r.Schedule.Tc, Schedule: r.Schedule, Detail: r}, nil
}

// ettfSolver runs the plain edge-triggered approximation — the
// baseline upper bound with no borrowing at all.
type ettfSolver struct{}

func (ettfSolver) Name() string { return "ettf" }

func (ettfSolver) Solve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error) {
	r, err := ettf.MinTcCtx(ctx, ov, opts.Core)
	if err != nil {
		return nil, err
	}
	return &Result{Tc: r.Schedule.Tc, Schedule: r.Schedule, Detail: r}, nil
}

// SimDetail is the native result of the "sim" engine: the
// deterministic wavefront trace plus the optional Monte-Carlo summary.
type SimDetail struct {
	Trace *sim.Trace
	MC    *sim.MCResult
}

// simSolver validates a schedule dynamically: cycle-accurate wavefront
// simulation, optionally followed by a Monte-Carlo campaign. With no
// schedule in the options it simulates the MLP optimum.
type simSolver struct{}

func (simSolver) Name() string { return "sim" }

func (simSolver) Solve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error) {
	rec := obs.From(ctx)
	sched := opts.Schedule
	if sched == nil {
		var mlp *core.Result
		err := rec.Phase(ctx, "schedule", func(ctx context.Context) error {
			var serr error
			mlp, serr = core.MinTcOverlayCtx(ctx, ov, opts.Core)
			return serr
		})
		if err != nil {
			return nil, err
		}
		sched = mlp.Schedule
	}
	detail := &SimDetail{}
	res := &Result{Tc: sched.Tc, Schedule: sched, Detail: detail}
	err := rec.Phase(ctx, "simulate", func(ctx context.Context) error {
		tr, serr := sim.Run(ctx, ov, sched, sim.Config{Cycles: opts.SimCycles})
		detail.Trace = tr
		if serr != nil {
			return serr
		}
		res.D = tr.SteadyD
		return nil
	})
	if err != nil {
		return res, err
	}
	if opts.Trials > 0 {
		err = rec.Phase(ctx, "montecarlo", func(ctx context.Context) error {
			mc, serr := sim.RunMonteCarlo(ctx, ov, sched,
				sim.MCConfig{Cycles: opts.SimCycles, Trials: opts.Trials, Workers: opts.Workers},
				rand.New(rand.NewSource(opts.Seed)))
			detail.MC = mc
			return serr
		})
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
