package decomp

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mintc/internal/core"
	"mintc/internal/mcr"
	"mintc/internal/obs"
)

// Sweep solves the design problem at each delay value for one path,
// decomposed: only the component containing the edited arc is
// re-solved per value, every other component contributes its one
// priming answer, and a full-graph coupling probe — warm-started from
// the previous value's potentials — certifies (or repairs) each
// candidate. Editing a cross-component arc re-solves no component at
// all; each value pays one coupling pass.
//
// Results come back in input order with per-value errors (an invalid
// delay, or a typed mcr.InfeasibleError under a pinned FixedTc), one
// frozen snapshot shared by all workers; every answer matches a
// per-value MinTcOverlay to solver tolerance and is bitwise the same
// for any cfg.Workers. Only the min-Tc objective is supported. The
// priming answers go through st (nil = a private State): a sweep over
// a path whose component answers are already cached — or whose edit
// touches a cross-component arc, which dirties no component at all —
// re-solves nothing during priming. Any obs recorder carried by ctx
// receives the probe and component counters.
func Sweep(ctx context.Context, cc *core.Compiled, opts core.Options, pathIndex int, values []float64, cfg Config, st *State) ([]float64, []error) {
	tcs := make([]float64, len(values))
	errs := make([]error, len(values))
	fail := func(err error) ([]float64, []error) {
		for i := range errs {
			errs[i] = err
		}
		return tcs, errs
	}
	if pathIndex < 0 || pathIndex >= len(cc.Circuit().Paths()) {
		return fail(fmt.Errorf("decomp: path index %d out of range", pathIndex))
	}
	if err := opts.ValidateFor(cc.Circuit()); err != nil {
		return fail(err)
	}
	if !opts.Objective.IsMinTc() {
		return fail(fmt.Errorf("decomp: Sweep requires the min-Tc objective, got %s", opts.Objective))
	}
	if len(values) == 0 {
		return tcs, errs
	}

	rec := obs.From(ctx)
	pt := cc.Partition()
	base := cc.Overlay()
	rec.Add(obs.ComponentsTotal, int64(pt.NumComponents()))

	// Prime every component once at the base delays. The per-component
	// solves drop FixedTc (Solve does the same); the coupling pass
	// below keeps it, so pinned-Tc semantics match a per-value
	// monolithic solve.
	if st == nil {
		st = NewState()
	}
	answers, resolved, fastPaths, err := solveAllComponents(ctx, base, opts, cfg, st)
	if err != nil {
		return fail(err)
	}
	rec.Add(obs.ComponentsResolved, resolved)
	rec.Add(obs.DecompFastPaths, fastPaths)

	// The edited arc's component (or -1: a cross-component arc, whose
	// value never moves any subsystem bound) and the best bound over
	// all the others, fixed for the whole sweep.
	dirty := pt.PathComp(pathIndex)
	maxOther := 0.0
	for ci, ans := range answers {
		if ci != dirty && ans.tc > maxOther {
			maxOther = ans.tc
		}
	}
	subOpts := opts
	subOpts.FixedTc = 0

	var nResolved int64
	var mu sync.Mutex
	solveChunk := func(lo, hi int) {
		full, err := mcr.NewSolverOverlay(base, opts)
		if err != nil {
			for i := lo; i < hi; i++ {
				errs[i] = err
			}
			return
		}
		var sub *mcr.Solver
		if dirty >= 0 && !pt.Trivial(dirty) {
			sub, err = mcr.NewComponentSolver(base, subOpts, pt.Members(dirty))
			if err != nil {
				for i := lo; i < hi; i++ {
					errs[i] = err
				}
				return
			}
		}
		var chunkResolved int64
		for i := lo; i < hi; i++ {
			v := values[i]
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				continue
			}
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				errs[i] = fmt.Errorf("decomp: sweep delay %g is invalid (must be finite and nonnegative)", v)
				continue
			}
			cand := maxOther
			if sub != nil {
				sub.SetDelay(pathIndex, v)
				// Witness-bound walk: re-price the previous value's
				// binding cycle at the new delay. Edge endpoints are
				// stable under SetDelay, so the recomputed ratio is a
				// sound lower bound; while the same cycle stays critical
				// — the straight segments between breakpoints of the
				// piecewise-linear Tc(delay) curve — the first probe at
				// the bound is feasible and the point costs one warm
				// probe. At a breakpoint a different cycle binds and the
				// Lawler jumps repair the walk automatically.
				lower := 0.0
				if wb, ok := sub.WitnessBound(); ok {
					lower = wb
				}
				sres, err := sub.MinTcFromWarmCtx(ctx, lower)
				if err != nil {
					errs[i] = err
					continue
				}
				chunkResolved++
				if sres.Tc > cand {
					cand = sres.Tc
				}
			}
			full.SetDelay(pathIndex, v)
			if wb, ok := full.WitnessBound(); ok && wb > cand {
				cand = wb
			}
			fres, err := full.MinTcFromWarmCtx(ctx, cand)
			if err != nil {
				errs[i] = err
				continue
			}
			tcs[i] = fres.Tc
		}
		mu.Lock()
		nResolved += chunkResolved
		mu.Unlock()
	}

	workers := cfg.workers()
	if workers > len(values) {
		workers = len(values)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (len(values) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(values); lo += chunk {
		hi := lo + chunk
		if hi > len(values) {
			hi = len(values)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			solveChunk(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	rec.Add(obs.ComponentsResolved, nResolved)
	return tcs, errs
}
