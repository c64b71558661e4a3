package decomp

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mintc/internal/core"
	"mintc/internal/mcr"
	"mintc/internal/obs"
)

// Sweep solves the design problem at each delay value for one path of
// the overlay, decomposed: only the component containing the edited
// arc is re-solved per value, every other component contributes its
// one priming answer, and a full-graph coupling probe — warm-started
// from the previous value's potentials and its re-priced critical
// cycle — certifies (or repairs) each candidate. Editing a
// cross-component arc re-solves no component at all; each value pays
// one coupling pass.
//
// Each value's answer goes to emit in input order, from the calling
// goroutine: its Tc, or its own error (an invalid delay, or a typed
// mcr.InfeasibleError under a pinned FixedTc). An error from emit
// stops the walk — the workers are cancelled and waited for — and is
// returned; so is a whole-sweep failure (a bad path index or options,
// a failed priming pass), before any value is emitted. Every answer
// matches a per-value MinTcOverlay on ov.With(pathIndex, v) to solver
// tolerance and is bitwise the same for any cfg.Workers: the workers
// split the values into contiguous chunks and the emitter releases
// each chunk's answers in order as they land. Only the min-Tc
// objective is supported. The priming answers go through st (nil = a
// private State): a sweep over a path whose component answers are
// already cached — or whose edit touches a cross-component arc, which
// dirties no component at all — re-solves nothing during priming. Any
// obs recorder carried by ctx receives the probe and component
// counters.
func Sweep(ctx context.Context, ov core.DelayOverlay, opts core.Options, pathIndex int, values []float64, cfg Config, st *State, emit func(i int, tc float64, err error) error) error {
	if !ov.Valid() {
		return fmt.Errorf("decomp: zero DelayOverlay (start from Compiled.Overlay)")
	}
	cc := ov.Base()
	if pathIndex < 0 || pathIndex >= len(cc.Circuit().Paths()) {
		return fmt.Errorf("decomp: path index %d out of range", pathIndex)
	}
	if err := opts.ValidateFor(cc.Circuit()); err != nil {
		return err
	}
	if !opts.Objective.IsMinTc() {
		return fmt.Errorf("decomp: Sweep requires the min-Tc objective, got %s", opts.Objective)
	}
	if len(values) == 0 {
		return nil
	}

	rec := obs.From(ctx)
	pt := cc.Partition()
	rec.Add(obs.ComponentsTotal, int64(pt.NumComponents()))

	// Prime every component once at the overlay's delays. The
	// per-component solves drop FixedTc (Solve does the same); the
	// coupling pass below keeps it, so pinned-Tc semantics match a
	// per-value monolithic solve.
	if st == nil {
		st = NewState()
	}
	answers, resolved, fastPaths, err := solveAllComponents(ctx, ov, opts, cfg, st)
	if err != nil {
		return err
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

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tcs := make([]float64, len(values))
	errs := make([]error, len(values))
	var nResolved atomic.Int64
	// solveChunk walks values[lo:hi] on one pair of warm solvers,
	// sending each finished index on landed (buffered to the chunk, so
	// a worker never blocks on an emitter that has stopped reading).
	solveChunk := func(lo, hi int, landed chan<- int) {
		fail := func(from int, err error) {
			for i := from; i < hi; i++ {
				errs[i] = err
				landed <- i
			}
		}
		full, err := mcr.NewSolverOverlay(ov, opts)
		if err != nil {
			fail(lo, err)
			return
		}
		var sub *mcr.Solver
		if dirty >= 0 && !pt.Trivial(dirty) {
			if sub, err = mcr.NewComponentSolver(ov, subOpts, pt.Members(dirty)); err != nil {
				fail(lo, err)
				return
			}
		}
		for i := lo; i < hi; i++ {
			tcs[i], errs[i] = sweepPoint(ctx, full, sub, pathIndex, values[i], maxOther)
			if sub != nil && errs[i] == nil {
				nResolved.Add(1)
			}
			landed <- i
		}
	}

	workers := cfg.workers()
	if workers > len(values) {
		workers = len(values)
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (len(values) + workers - 1) / workers
	var chunks []chan int
	var wg sync.WaitGroup
	for lo := 0; lo < len(values); lo += chunk {
		hi := min(lo+chunk, len(values))
		landed := make(chan int, hi-lo)
		chunks = append(chunks, landed)
		wg.Add(1)
		go func() {
			defer wg.Done()
			solveChunk(lo, hi, landed)
		}()
	}
	var emitErr error
	for _, landed := range chunks {
		for range cap(landed) {
			i := <-landed
			if emitErr == nil {
				if emitErr = emit(i, tcs[i], errs[i]); emitErr != nil {
					cancel()
				}
			}
		}
	}
	wg.Wait()
	rec.Add(obs.ComponentsResolved, nResolved.Load())
	return emitErr
}

// sweepPoint answers one sweep value on a chunk's warm solvers: the
// dirty component's re-solve (sub, nil when the edited arc is
// cross-component or its component is a closed-form singleton) raises
// the candidate above the other components' bound, and the full-graph
// coupling pass certifies or repairs it. Both warm solves start no
// lower than their previous critical cycle re-priced at v, so a value
// on the same straight segment of the Tc(delay) curve as its
// predecessor costs one feasible probe per solver.
func sweepPoint(ctx context.Context, full, sub *mcr.Solver, pathIndex int, v, maxOther float64) (float64, error) {
	if ctx.Err() != nil {
		return 0, ctx.Err()
	}
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("decomp: sweep delay %g is invalid (must be finite and nonnegative)", v)
	}
	cand := maxOther
	if sub != nil {
		sub.SetDelay(pathIndex, v)
		sres, err := sub.MinTcFromWarmCtx(ctx, 0)
		if err != nil {
			return 0, err
		}
		cand = max(cand, sres.Tc)
	}
	full.SetDelay(pathIndex, v)
	fres, err := full.MinTcFromWarmCtx(ctx, cand)
	if err != nil {
		return 0, err
	}
	return fres.Tc, nil
}

// SweepAll is Sweep collected into slices: each value's Tc and error
// in input order. A whole-sweep failure becomes every value's error.
// mintc.SweepDelays and the sweep benchmark use it.
func SweepAll(ctx context.Context, ov core.DelayOverlay, opts core.Options, pathIndex int, values []float64, cfg Config, st *State) ([]float64, []error) {
	tcs := make([]float64, len(values))
	errs := make([]error, len(values))
	err := Sweep(ctx, ov, opts, pathIndex, values, cfg, st, func(i int, tc float64, err error) error {
		tcs[i], errs[i] = tc, err
		return nil
	})
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
	}
	return tcs, errs
}
