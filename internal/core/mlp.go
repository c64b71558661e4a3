package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mintc/internal/lp"
	"mintc/internal/obs"
)

// Result is the outcome of Algorithm MLP (optimal cycle time plus the
// supporting signal-timing solution).
type Result struct {
	// Schedule is the optimal clock schedule found by the LP.
	Schedule *Schedule
	// D, A and Q are the per-synchronizer departure, arrival and
	// output-departure times, each relative to the start of the
	// element's own phase. A may be -Inf for elements with no fanin.
	D, A, Q []float64
	// UpdateIterations is the slide's iteration count (paper steps
	// 3–5; "usually two to three, sometimes zero"): the number of full
	// passes that changed a departure for Jacobi and Gauss–Seidel, and
	// the relaxation count (the same value as Relaxations) for the
	// event-driven worklist, which has no passes.
	UpdateIterations int
	// Relaxations counts individual departure-time updates performed.
	Relaxations int
	// NumConstraints is the LP row count (the paper reports 91 for the
	// GaAs example).
	NumConstraints int
	// Pivots is the simplex pivot count.
	Pivots int
	// Stats is the observability snapshot of the solve: counters
	// (pivots, slide iterations, relaxations) and per-stage wall-clock
	// durations ("lp", "slide").
	Stats obs.Stats
	// LP retains the solved linear program and its solution for
	// critical-segment analysis.
	LP      *lp.Problem
	LPSol   *lp.Solution
	Rows    []RowInfo
	Vars    *VarMap
	Circuit *Circuit
	Options Options
	// Overlay records the delay overlay the solve ran against (the
	// snapshot's empty overlay for MinTc on a builder circuit). Circuit
	// is its shared snapshot view and must not be mutated; what-if
	// edits layer on Overlay (TryReoptimizeDual, Overlay.With).
	Overlay DelayOverlay
	// Objective is the optimization goal the solve ran under (copied
	// from Options.Objective; the zero value is plain min-Tc).
	Objective Objective
	// ObjectiveValue is the achieved optimum in the objective's own
	// units: the cycle time for ObjMinTc, the worst setup margin for
	// ObjMaxMargin, the total phase width sum(T_i) for
	// ObjMinPhaseWidth, and the tolerated uniform skew allowance for
	// ObjMinSkewBudget.
	ObjectiveValue float64
}

// LPBasis returns the optimal simplex basis of the solve's LP, for
// warm-starting re-solves of edited overlays over the same snapshot
// and options (MinTcOverlayWarmCtx); nil when unavailable.
func (r *Result) LPBasis() *lp.Basis {
	if r == nil {
		return nil
	}
	return r.LPSol.Basis()
}

// Errors returned by MinTc.
var (
	// ErrInfeasible indicates the constraint system has no feasible
	// clock at any cycle time (e.g. structurally impossible flip-flop
	// timing).
	ErrInfeasible = errors.New("core: timing constraints are infeasible")
	// ErrNoConvergence indicates the departure update found no
	// fixpoint: the slide hit its cap and the schedule admits no least
	// fixpoint either (should not happen from an LP-optimal start; it
	// guards against numerical pathologies).
	ErrNoConvergence = errors.New("core: departure update iteration did not converge")
)

// InfeasibleError is the typed form of ErrInfeasible carrying the LP
// solver's machine-checkable witness. errors.Is(err, ErrInfeasible)
// matches it, so existing callers are unaffected; certificate-aware
// callers use errors.As to reach the ray and validate it against the
// raw P2 rows (internal/verify.Infeasible with BuildLP).
type InfeasibleError struct {
	// Ray is the Farkas infeasibility certificate in P2 row order (see
	// lp.Solution.FarkasRay); nil when the solver produced none.
	Ray []float64
}

func (e *InfeasibleError) Error() string { return ErrInfeasible.Error() }

func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// MinTc runs Algorithm MLP: it solves the linear program P2 for the
// minimum cycle time and optimal clock schedule, then slides the
// departure times down to the greatest fixpoint of the propagation
// operator so the returned solution satisfies the original nonlinear
// constraints L2 of problem P1. By Theorem 1 the cycle time is optimal
// for P1.
func MinTc(c *Circuit, opts Options) (*Result, error) {
	return MinTcCtx(context.Background(), c, opts)
}

// MinTcCtx is MinTc with cancellation and observability: the context's
// deadline/cancel is honored inside the simplex pivot loop and the
// departure-slide iteration, and solve statistics are reported into
// the obs recorder carried by the context (one is created when absent,
// so Result.Stats is always populated). On cancellation the recorder
// retains the progress reached so far.
//
// The circuit is frozen first and solved through its empty overlay, so
// the result is snapshot-backed: Result.Circuit is the snapshot's
// read-only view, and what-if edits go through Result.Overlay.With
// (or a session) instead of the builder circuit.
func MinTcCtx(ctx context.Context, c *Circuit, opts Options) (*Result, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return MinTcOverlayWarmCtx(ctx, cc.Overlay(), opts, nil)
}

// MinTcOverlay solves the design problem against a frozen snapshot
// with the overlay's delay edits applied — the concurrent form of
// MinTc: the snapshot is never touched, so any number of goroutines
// may solve divergent overlays over one Compiled simultaneously. The
// result is bit-identical to MinTc on a circuit carrying the
// overlay's effective delays.
func MinTcOverlay(ov DelayOverlay, opts Options) (*Result, error) {
	return MinTcOverlayCtx(context.Background(), ov, opts)
}

// MinTcOverlayCtx is MinTcOverlay with cancellation and observability
// (see MinTcCtx). Circuit validation happened once at Freeze; only the
// options are validated here.
func MinTcOverlayCtx(ctx context.Context, ov DelayOverlay, opts Options) (*Result, error) {
	return MinTcOverlayWarmCtx(ctx, ov, opts, nil)
}

// recordLPStats translates the solver's self-reported work profile
// into the obs recorder (the lp package is a generic substrate and
// cannot depend on obs itself).
func recordLPStats(rec *obs.Rec, sol *lp.Solution) {
	rec.Add(obs.Pivots, int64(sol.Pivots))
	st := sol.Stats
	if st.Nnz > 0 {
		rec.Add(obs.LPNnz, int64(st.Nnz))
	}
	if st.Refactorizations > 0 {
		rec.Add(obs.LPRefactorizations, int64(st.Refactorizations))
	}
	if st.WarmStarted {
		rec.Add(obs.LPWarmStarts, 1)
		rec.Add(obs.LPWarmPivots, int64(st.WarmPivots))
	}
	if st.ScratchReused {
		rec.Add(obs.ScratchReuses, 1)
	}
	if st.ScratchGrows > 0 {
		rec.Add(obs.ScratchGrows, int64(st.ScratchGrows))
	}
	if st.AssembleTime > 0 {
		rec.AddStage("lp.assemble", st.AssembleTime)
	}
	if st.FactorTime > 0 {
		rec.AddStage("lp.factor", st.FactorTime)
	}
	if st.PivotTime > 0 {
		rec.AddStage("lp.pivot", st.PivotTime)
	}
}

// MinTcOverlayWarmCtx is MinTcOverlayCtx warm-started from a previous
// solve's optimal LP basis (Result.LPBasis of a solve over the same
// snapshot with the same options). Overlay edits only move LP RHS
// values, so the old basis typically stays dual feasible and the
// re-solve costs a handful of dual-simplex pivots instead of a full
// two-phase solve. A nil or mismatched basis falls back to a cold
// solve; results are identical either way.
//
// This is the one Algorithm MLP implementation: the LP is the
// snapshot's template for the options' shape with the overlay's edited
// rows patched in, and the slide runs on the overlay's kernel.
func MinTcOverlayWarmCtx(ctx context.Context, ov DelayOverlay, opts Options, warm *lp.Basis) (*Result, error) {
	if !ov.Valid() {
		return nil, fmt.Errorf("core: MinTcOverlay on a zero DelayOverlay (start from Circuit.Freeze)")
	}
	c := ov.base.c
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validatePhaseSkew(c); err != nil {
		return nil, err
	}
	rec := obs.From(ctx)
	if rec == nil {
		rec = obs.New()
		ctx = obs.With(ctx, rec)
	}

	var (
		prob *lp.Problem
		vm   *VarMap
		rows []RowInfo
		sol  *lp.Solution
	)
	err := rec.Phase(ctx, "lp", func(ctx context.Context) error {
		tpl := ov.base.lpTemplate(opts)
		prob, vm, rows = tpl.instance(ov, opts), tpl.vm, tpl.rows
		rec.Add(obs.LPRows, int64(prob.NumConstraints()))
		var serr error
		sol, serr = lp.SolveCtxFrom(ctx, prob, warm)
		if sol != nil {
			recordLPStats(rec, sol)
		}
		return serr
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: LP solve failed: %w", err)
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil, &InfeasibleError{Ray: sol.FarkasRay}
	case lp.Unbounded:
		if !opts.Objective.IsMinTc() {
			// A margin/budget slack with no setup-type row to bound it
			// (no latches or flip-flops with fanin) grows without limit.
			return nil, fmt.Errorf("core: objective %s is unbounded: no setup constraint limits the slack", opts.Objective)
		}
		// Minimizing a nonnegative variable cannot be unbounded.
		return nil, fmt.Errorf("core: LP unexpectedly unbounded")
	}

	k := c.K()
	sched := NewSchedule(k)
	sched.Tc = sol.X[vm.Tc]
	for i := 0; i < k; i++ {
		sched.S[i] = sol.X[vm.S[i]]
		sched.T[i] = sol.X[vm.T[i]]
	}
	d := make([]float64, c.L())
	for i := range d {
		d[i] = sol.X[vm.D[i]]
	}

	obj := opts.Objective
	objVal := sched.Tc
	switch obj.Kind {
	case ObjMaxMargin, ObjMinSkewBudget:
		objVal = sol.X[vm.Obj]
	case ObjMinPhaseWidth:
		objVal = 0
		for i := 0; i < k; i++ {
			objVal += sched.T[i]
		}
	}

	res := &Result{
		Schedule:       sched,
		NumConstraints: prob.NumConstraints(),
		Pivots:         sol.Pivots,
		LP:             prob,
		LPSol:          sol,
		Rows:           rows,
		Vars:           vm,
		Circuit:        c,
		Options:        opts,
		Overlay:        ov,
		Objective:      obj,
		ObjectiveValue: objVal,
	}

	// Steps 3–5: iterate the propagation operator with the clock held
	// fixed until the L2 equalities hold. The operator is evaluated
	// through the overlay's kernel: the snapshot's cached compile plus
	// the overlay's edits.
	//
	// The skew-budget objective slides under the *tightened* operator
	// (Skew increased by the achieved allowance): the certified claim
	// is that the schedule still closes timing with that much extra
	// skew, so the departures must be that operator's fixpoint.
	slideOpts := opts
	if obj.Kind == ObjMinSkewBudget && objVal > 0 {
		slideOpts.Skew += objVal
	}
	kn := ov.Kernel(slideOpts)
	sc := kn.getSlide()
	defer kn.putSlide(sc)
	sc.shift = kn.ShiftTable(sched, sc.shift)
	shift := sc.shift
	var iters, relax int
	err = rec.Phase(ctx, "slide", func(ctx context.Context) error {
		var serr error
		iters, relax, serr = slideDepartures(ctx, c, kn, shift, d, slideOpts, sc)
		rec.Add(obs.SlideIterations, int64(iters))
		rec.Add(obs.Relaxations, int64(relax))
		return serr
	})
	if err != nil {
		return nil, err
	}
	res.UpdateIterations = iters
	res.Relaxations = relax
	res.D = d
	res.A = make([]float64, c.L())
	kn.ArriveAll(d, shift, res.A)
	res.Q = Outputs(c, d)
	res.Stats = rec.Snapshot()
	return res, nil
}

// maxUpdateIter returns the iteration cap for the departure update.
func maxUpdateIter(c *Circuit, opts Options) int {
	if opts.MaxUpdateIter > 0 {
		return opts.MaxUpdateIter
	}
	// The decreasing iteration from an LP point takes O(l) structural
	// steps plus, per loop, the LP point's excess over the fixpoint
	// divided by the loop's slack at the schedule — unbounded as a loop
	// approaches criticality. Past this cap the slide finishes at the
	// least fixpoint instead (see finishAtLeastFixpoint).
	return 100*c.L() + 100
}

// slideDepartures implements steps 2–5 of Algorithm MLP on d in place,
// returning the iteration count — full passes that changed a departure
// for Jacobi and Gauss–Seidel, relaxations for the event-driven
// worklist (which has no passes) — and the relaxation count. The
// context is polled once per full pass (Jacobi/Gauss–Seidel) or every
// 1024 worklist steps (event-driven); on cancellation the counts
// reached so far are returned with the context's error. A slide that
// hits the iteration cap finishes at the least fixpoint
// (finishAtLeastFixpoint).
//
// The propagation operator is evaluated through a compiled Kernel —
// the circuit's fanin lists are flattened once and every update is a
// plain indexed max-accumulate — rather than the closure-based
// reference recurrence; kernel_test.go proves the two agree
// bit-for-bit. The caller supplies the kernel and its schedule shift
// table so overlay solves reuse the snapshot's cached compile, and
// (optionally) a slide scratch so repeated solves reuse the Jacobi
// and worklist buffers; nil sc allocates fresh ones.
func slideDepartures(ctx context.Context, c *Circuit, kn *Kernel, shift, d []float64, opts Options, sc *slideScratch) (iters, relaxations int, err error) {
	if sc == nil {
		sc = new(slideScratch)
	}
	limit := maxUpdateIter(c, opts)
	switch opts.Update {
	case GaussSeidel:
		for m := 0; m < limit; m++ {
			if err := ctx.Err(); err != nil {
				return iters, relaxations, err
			}
			changed := false
			for i := range d {
				nv := kn.Depart(i, d, shift)
				if math.Abs(nv-d[i]) > Eps {
					d[i] = nv
					changed = true
					relaxations++
				}
			}
			if !changed {
				return m, relaxations, nil
			}
			iters = m + 1
		}
	case EventDriven:
		// Worklist algorithm: recompute a synchronizer only when one
		// of its fanin departures changed. The structural fanout CSR is
		// cached on the kernel; the worklist is a pooled ring buffer —
		// each synchronizer is in the list at most once, so capacity L
		// suffices — with pooled membership flags. FIFO order matches
		// the old slice-backed queue, so relaxation order (and results)
		// are unchanged.
		l := c.L()
		fanStart, fanTo := kn.fanoutCSR()
		if cap(sc.inList) < l {
			sc.inList = make([]bool, l)
		}
		inList := sc.inList[:l]
		if cap(sc.queue) < l {
			sc.queue = make([]int32, l)
		}
		queue := sc.queue[:l]
		for i := range inList {
			queue[i] = int32(i)
			inList[i] = true
		}
		head, n := 0, l
		steps := limit * (l + 1)
		for n > 0 {
			if steps--; steps < 0 {
				return relaxations, relaxations, finishAtLeastFixpoint(kn, shift, d, sc)
			}
			if steps&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return relaxations, relaxations, err
				}
			}
			i := queue[head]
			if head++; head == l {
				head = 0
			}
			n--
			inList[i] = false
			nv := kn.Depart(int(i), d, shift)
			if math.Abs(nv-d[i]) <= Eps {
				continue
			}
			d[i] = nv
			relaxations++
			for _, t := range fanTo[fanStart[i]:fanStart[i+1]] {
				if !inList[t] {
					inList[t] = true
					tail := head + n
					if tail >= l {
						tail -= l
					}
					queue[tail] = t
					n++
				}
			}
		}
		return relaxations, relaxations, nil
	default: // Jacobi, as in the paper's listing
		if cap(sc.next) < len(d) {
			sc.next = make([]float64, len(d))
		}
		next := sc.next[:len(d)]
		for m := 0; m < limit; m++ {
			if err := ctx.Err(); err != nil {
				return iters, relaxations, err
			}
			changed := false
			for i := range d {
				next[i] = kn.Depart(i, d, shift)
				if math.Abs(next[i]-d[i]) > Eps {
					changed = true
					relaxations++
				}
			}
			copy(d, next)
			if !changed {
				return m, relaxations, nil
			}
			iters = m + 1
		}
	}
	return iters, relaxations, finishAtLeastFixpoint(kn, shift, d, sc)
}

// finishAtLeastFixpoint ends a slide that hit its iteration cap. The
// descent from the LP point moves a loop's departures by the loop's
// slack at the schedule per pass, so a nearly critical loop needs far
// more passes than the cap allows, while every loop with nonzero slack
// has a unique fixpoint. The least fixpoint — computed exactly, by the
// propagation CheckTc runs — lies at or below the LP point's
// departures (the LP point is a pre-fixpoint above the 0 floor), so it
// satisfies every L1 and flip-flop setup row the LP point does and is
// the P1 solution Theorem 1 asks for. d is overwritten with it;
// ErrNoConvergence only if no fixpoint exists at the schedule (a loop
// gains delay every cycle, a numerical pathology from an LP-optimal
// point), and d is then meaningless.
func finishAtLeastFixpoint(kn *Kernel, shift, d []float64, sc *slideScratch) error {
	if leastFixpoint(kn, shift, d, sc) != nil {
		return ErrNoConvergence
	}
	return nil
}

// departureOf evaluates the paper's propagation constraint L2 for one
// synchronizer: D_i = max(0, max_j (D_j + ΔDQ_j + Δ_ji + S_{p_j p_i})),
// with the option margins (Skew, PhaseSkew) applied per arc exactly as
// in the LP rows and the CheckTc fixpoint. Flip-flops always depart at
// their triggering edge (D = 0).
func departureOf(c *Circuit, sched *Schedule, d []float64, i int, opts Options) float64 {
	return DepartLatch(c, i, arrivalOf(c, sched, d, i, opts))
}

// arrivalOf evaluates A_i = max_j (D_j + ΔDQ_j + Δ_ji + margins +
// S_{p_j p_i}); -Inf when the synchronizer has no fanin (primary-input
// latch).
func arrivalOf(c *Circuit, sched *Schedule, d []float64, i int, opts Options) float64 {
	return Arrive(c, i,
		func(j int) float64 { return d[j] },
		func(pidx int) float64 { return ArcWeight(c, opts, pidx) },
		sched.PhaseShift)
}

// Arrivals computes the margin-adjusted arrival times A_i for all
// synchronizers given departures d under schedule sched (pass the zero
// Options for the paper's nominal operator).
func Arrivals(c *Circuit, sched *Schedule, d []float64, opts Options) []float64 {
	a := make([]float64, c.L())
	for i := range a {
		a[i] = arrivalOf(c, sched, d, i, opts)
	}
	return a
}

// Outputs computes Q_i = D_i + ΔDQ_i for all synchronizers.
func Outputs(c *Circuit, d []float64) []float64 {
	q := make([]float64, c.L())
	for i := range q {
		q[i] = d[i] + c.Sync(i).DQ
	}
	return q
}

// PropagationResidual returns the largest violation of the L2
// equalities by (sched, d): max over i of |D_i − max(0, A_i)| (with
// the flip-flop convention D_i = 0), under the paper's nominal
// operator (no margins). A residual within Eps certifies a P1-feasible
// point; results produced with margin options satisfy the *margined*
// equalities instead (see PropagationResidualOpts).
func PropagationResidual(c *Circuit, sched *Schedule, d []float64) float64 {
	return PropagationResidualOpts(c, sched, d, Options{})
}

// PropagationResidualOpts is PropagationResidual under the given
// margin options.
func PropagationResidualOpts(c *Circuit, sched *Schedule, d []float64, opts Options) float64 {
	worst := 0.0
	for i := range d {
		if r := math.Abs(d[i] - departureOf(c, sched, d, i, opts)); r > worst {
			worst = r
		}
	}
	return worst
}
