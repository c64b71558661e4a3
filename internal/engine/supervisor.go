package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/lp"
	"mintc/internal/mcr"
	"mintc/internal/obs"
	"mintc/internal/verify"
)

// ErrLadderExhausted is returned (wrapped) when every rung of the
// degradation ladder either failed or produced a result the
// independent checker rejected. Match with errors.Is; the Result
// accompanying the error carries the full Trail.
var ErrLadderExhausted = errors.New("engine: degradation ladder exhausted")

// ErrUnknownRung is returned (wrapped, with the rung and engine names)
// when Policy.Rungs names a rung the engine's ladder does not have.
var ErrUnknownRung = errors.New("engine: unknown ladder rung")

// Policy tunes a certified solve (SolveCertified /
// SolveCertifiedOverlay). The zero value is the production default:
// certify at verify.DefaultTol and walk the engine's full ladder.
type Policy struct {
	// Tolerance bounds every certificate residual (0 means
	// verify.DefaultTol, 1e-9).
	Tolerance float64
	// NoFallback restricts the solve to the ladder's first rung: one
	// attempt, certified or failed.
	NoFallback bool
	// Rungs, when non-empty, replaces the engine's default ladder with
	// exactly these rungs, in order. Valid names per engine: "mlp" has
	// "warm", "sparse", "dense" and "mcr"; "mcr" has "primary", "mlp"
	// and "dense"; "decomp" has "primary", "mcr", "mlp" and "dense";
	// every other engine has "primary" only.
	Rungs []string
	// OnRung, when non-nil, is called immediately before each rung's
	// solve starts — a hook for tests and progress reporting.
	OnRung func(engine, rung string)
}

// Attempt is one rung of a certified solve's trail.
type Attempt struct {
	// Rung is the ladder rung name ("warm", "sparse", "dense", "mcr",
	// "primary", "mlp").
	Rung string
	// Engine is the registry engine that ran on this rung (the mlp
	// ladder's last rung runs "mcr", and vice versa).
	Engine string
	// Err is the solve failure that pushed the supervisor off this
	// rung ("" when the solve itself succeeded).
	Err string
	// Certified reports whether this rung's answer passed the
	// independent checker (true on the final, successful attempt —
	// including a certified-infeasible one).
	Certified bool
	// Rejected names the first certificate clause that failed when the
	// solve succeeded but certification did not.
	Rejected string
}

// rung is one step of a degradation ladder: which engine to run and
// how to prepare the context/options for it.
type rung struct {
	name   string
	engine string
	prep   func(context.Context, Options) (context.Context, Options)
}

func keepOpts(ctx context.Context, o Options) (context.Context, Options) { return ctx, o }

// ladderFor builds the rung sequence for one certified solve.
//
// The default ladders degrade from fastest to most independent:
//
//	mlp: warm (when opts.WarmBasis is set) → cold sparse revised
//	     simplex → dense tableau oracle → the mcr engine, a different
//	     algorithm entirely;
//	mcr: primary → the mlp engine;
//	decomp: primary → the monolithic mcr engine (cache dropped);
//	nrip/ettf/sim: primary only (their answers have no second source).
//
// Schedule objectives (Options.Core.Objective other than min-Tc) exist
// only in the LP formulation, so the ladders bypass the cycle-ratio
// rungs: mlp drops its final mcr rung, and the mcr and decomp engines
// route straight to the LP path (sparse → dense) instead of running a
// primary that would only reject the objective.
func ladderFor(name string, opts Options, pol Policy) ([]rung, error) {
	schedObj := !opts.Core.Objective.IsMinTc()
	known := map[string]rung{}
	var def []string
	switch name {
	case "mlp":
		known["warm"] = rung{"warm", "mlp", keepOpts}
		known["sparse"] = rung{"sparse", "mlp", func(ctx context.Context, o Options) (context.Context, Options) {
			o.WarmBasis = nil
			return lp.WithSolver(ctx, "revised"), o
		}}
		known["dense"] = rung{"dense", "mlp", func(ctx context.Context, o Options) (context.Context, Options) {
			o.WarmBasis = nil
			return lp.WithSolver(ctx, "dense"), o
		}}
		known["mcr"] = rung{"mcr", "mcr", func(ctx context.Context, o Options) (context.Context, Options) {
			o.WarmBasis = nil
			return ctx, o
		}}
		if opts.WarmBasis != nil {
			def = []string{"warm", "sparse", "dense", "mcr"}
		} else {
			def = []string{"sparse", "dense", "mcr"}
		}
		if schedObj {
			def = def[:len(def)-1] // no mcr rung for schedule objectives
		}
	case "mcr":
		known["primary"] = rung{"primary", "mcr", keepOpts}
		known["mlp"] = rung{"mlp", "mlp", func(ctx context.Context, o Options) (context.Context, Options) {
			o.WarmBasis = nil
			return lp.WithSolver(ctx, "revised"), o
		}}
		known["dense"] = rung{"dense", "mlp", func(ctx context.Context, o Options) (context.Context, Options) {
			o.WarmBasis = nil
			return lp.WithSolver(ctx, "dense"), o
		}}
		def = []string{"primary", "mlp"}
		if schedObj {
			def = []string{"mlp", "dense"}
		}
	case "decomp":
		// The decomposed solver degrades to the monolithic
		// min-cycle-ratio engine: the same answer with none of the
		// partitioning machinery (and no size cliff — decomp's fallback
		// must stay viable at the scales decomp exists for, which rules
		// out the monolithic LP).
		known["primary"] = rung{"primary", "decomp", func(ctx context.Context, o Options) (context.Context, Options) {
			return ctx, o
		}}
		known["mcr"] = rung{"mcr", "mcr", func(ctx context.Context, o Options) (context.Context, Options) {
			o.DecompState = nil
			return ctx, o
		}}
		known["mlp"] = rung{"mlp", "mlp", func(ctx context.Context, o Options) (context.Context, Options) {
			o.WarmBasis = nil
			o.DecompState = nil
			return lp.WithSolver(ctx, "revised"), o
		}}
		known["dense"] = rung{"dense", "mlp", func(ctx context.Context, o Options) (context.Context, Options) {
			o.WarmBasis = nil
			o.DecompState = nil
			return lp.WithSolver(ctx, "dense"), o
		}}
		def = []string{"primary", "mcr"}
		if schedObj {
			def = []string{"mlp", "dense"}
		}
	default:
		known["primary"] = rung{"primary", name, keepOpts}
		def = []string{"primary"}
	}
	names := def
	if len(pol.Rungs) > 0 {
		names = pol.Rungs
	}
	if pol.NoFallback {
		names = names[:1]
	}
	out := make([]rung, 0, len(names))
	for _, n := range names {
		r, ok := known[n]
		if !ok {
			return nil, fmt.Errorf("%w %q for engine %q", ErrUnknownRung, n, name)
		}
		out = append(out, r)
	}
	return out, nil
}

// SolveCertified freezes the circuit and runs SolveCertifiedOverlay on
// the snapshot's empty overlay. A circuit that fails validation is an
// input error, returned before any ladder rung runs.
func SolveCertified(ctx context.Context, name string, c *core.Circuit, opts Options, pol Policy) (*Result, error) {
	cc, err := c.Freeze()
	if err != nil {
		return &Result{Engine: name}, fmt.Errorf("engine/%s: %w", name, err)
	}
	return SolveCertifiedOverlay(ctx, name, cc.Overlay(), opts, pol)
}

// SolveCertifiedOverlay runs the named engine against a snapshot
// overlay and independently certifies the answer, degrading down the
// engine's fallback ladder when a solve fails, panics, or produces a
// result the checker rejects. When opts.WarmBasis is set the mlp
// ladder starts at the warm-started rung and retreats to cold solves
// from there. On success the Result carries a passing Certificate and
// the Trail of attempts; a certified-infeasible answer returns the
// (wrapped) infeasibility error together with a Result whose
// Certificate validates the witness. Context cancellation aborts the
// ladder immediately. The zero overlay is rejected before any rung
// runs.
func SolveCertifiedOverlay(ctx context.Context, name string, ov core.DelayOverlay, opts Options, pol Policy) (*Result, error) {
	if !ov.Valid() {
		return &Result{Engine: name}, fmt.Errorf("engine/%s: %w", name, errZeroOverlay)
	}
	tol := pol.Tolerance
	if tol <= 0 {
		tol = verify.DefaultTol
	}
	rec := opts.Rec
	if rec == nil {
		rec = obs.New()
		opts.Rec = rec
	}
	ladder, err := ladderFor(name, opts, pol)
	if err != nil {
		return &Result{Engine: name}, err
	}
	// The checker reads a plain circuit: the snapshot's own view, or a
	// private clone carrying the overlay's edits.
	c := ov.Materialize()

	var trail []Attempt
	var last *Result
	var lastErr error
	for i, r := range ladder {
		if i > 0 {
			rec.Add(obs.Fallbacks, 1)
		}
		if pol.OnRung != nil {
			pol.OnRung(name, r.name)
		}
		rctx, ropts := r.prep(ctx, opts)
		res, err := Solve(rctx, r.engine, ov, ropts)
		if res == nil {
			res = &Result{Engine: r.engine}
		}
		at := Attempt{Rung: r.name, Engine: r.engine}
		if err != nil {
			at.Err = err.Error()
			// A context abort is the caller's decision, not a solver
			// failure: stop the ladder and surface it.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				res.Trail = append(trail, at)
				res.Stats = rec.Snapshot()
				return res, err
			}
			// An infeasibility claim with a witness that checks out is a
			// final, certified answer — not a failure to fall through.
			cert := certTimed(rec, func() *verify.Certificate {
				return certifyInfeasible(c, ropts.Core, err, tol)
			})
			if cert.Certified() {
				at.Certified = true
				res.Certificate = cert
				res.Trail = append(trail, at)
				res.Stats = rec.Snapshot()
				return res, err
			}
			if cert != nil {
				rec.Add(obs.VerifyFailures, 1)
				at.Rejected = firstFailed(cert)
			}
			trail = append(trail, at)
			last, lastErr = res, err
			continue
		}
		cert := certTimed(rec, func() *verify.Certificate {
			return certifyResult(c, ropts.Core, res, tol)
		})
		if cert.Certified() {
			at.Certified = true
			res.Certificate = cert
			res.Trail = append(trail, at)
			res.Stats = rec.Snapshot()
			return res, nil
		}
		rec.Add(obs.VerifyFailures, 1)
		at.Rejected = firstFailed(cert)
		trail = append(trail, at)
		res.Certificate = cert
		last = res
		lastErr = fmt.Errorf("engine/%s: rung %q result rejected: %s", name, r.name, cert)
	}
	if last == nil {
		last = &Result{Engine: name}
	}
	last.Trail = trail
	last.Stats = rec.Snapshot()
	return last, fmt.Errorf("engine/%s: %w after %d attempts: %w", name, ErrLadderExhausted, len(trail), lastErr)
}

// certTimed runs one certification under the "verify" obs stage.
func certTimed(rec *obs.Rec, fn func() *verify.Certificate) *verify.Certificate {
	t0 := time.Now()
	cert := fn()
	rec.AddStage("verify", time.Since(t0))
	return cert
}

// firstFailed names the first rejected clause of a certificate.
func firstFailed(cert *verify.Certificate) string {
	if failed := cert.Failed(); len(failed) > 0 {
		return failed[0].Name
	}
	return ""
}

// certifyResult independently re-checks a feasible engine result:
// model feasibility of (Tc, s, D) against the paper's constraint
// system always, plus whatever optimality evidence the engine's
// native result carries — the solved LP (duality gap) for mlp, the
// critical cycle for mcr.
//
// The exact engines are held to the supervisor's tolerance. The
// heuristic and validating engines (nrip, ettf, sim) are certified at
// the schedule level — departures recomputed by the checker — and
// against max(tol, core.Eps): their own acceptance criterion is the
// exact analysis at core.Eps (nrip's borrowing bisection rides the
// setup boundary to exactly that slack), so a tighter bar would
// reject answers that meet the algorithms' contracts.
func certifyResult(c *core.Circuit, copts core.Options, res *Result, tol float64) *verify.Certificate {
	switch det := res.Detail.(type) {
	case *core.Result:
		// Feasibility is checked under the objective's verification
		// options: schedule objectives pin FixedTc, and the skew-budget
		// objective folds the achieved allowance into Skew — certifying
		// exactly the claim "timing still closes with that much skew".
		fopts := det.Objective.FeasibilityOptions(copts, det.ObjectiveValue)
		feas := verify.Feasible(c, fopts, res.Schedule, res.D, tol)
		if !det.Objective.IsMinTc() {
			feas = verify.Merge("feasible", feas,
				verify.ObjectiveAchieved(c, copts, det.Objective, det.ObjectiveValue, res.Schedule, res.D, tol))
		}
		if det.LP != nil && det.LPSol != nil {
			// Optimality re-derives dual feasibility and the duality gap
			// against the LP's own cost vector, so every objective's
			// optimum is certified against the costs it optimized.
			return verify.Merge("optimal", feas, verify.Optimality(det.LP, det.LPSol, tol))
		}
		return feas
	case *mcr.Result:
		feas := verify.Feasible(c, copts, res.Schedule, res.D, tol)
		if len(det.CriticalArcs) > 0 {
			cyc := verify.CriticalCycle(ratioArcs(det.CriticalArcs), res.Tc, tol)
			return verify.Merge("optimal", feas, cyc)
		}
		return feas
	case *decomp.Result:
		feas := verify.Feasible(c, copts, res.Schedule, res.D, tol)
		if len(det.CriticalArcs) > 0 {
			cyc := verify.CriticalCycle(ratioArcs(det.CriticalArcs), res.Tc, tol)
			return verify.Merge("optimal", feas, cyc)
		}
		return feas
	default:
		// Heuristic/validating engines report only a schedule. Under a
		// schedule objective the pinned cycle time is still checked
		// (FeasibilityOptions with a zero achieved value adds no skew).
		fopts := copts.Objective.FeasibilityOptions(copts, 0)
		return verify.Feasible(c, fopts, res.Schedule, nil, math.Max(tol, core.Eps))
	}
}

// certifyInfeasible validates an infeasibility claim's witness: the
// Farkas ray of an LP-based solve is checked against freshly built P2
// rows, an MCR witness cycle is re-walked arc by arc. Returns nil when
// the error carries no witness at all.
func certifyInfeasible(c *core.Circuit, copts core.Options, err error, tol float64) *verify.Certificate {
	var le *core.InfeasibleError
	if errors.As(err, &le) && len(le.Ray) > 0 {
		prob, _, _ := core.BuildLP(c, copts)
		return verify.Infeasible(prob, le.Ray, tol)
	}
	var me *mcr.InfeasibleError
	if errors.As(err, &me) && len(me.Arcs) > 0 {
		return verify.InfeasibleCycle(ratioArcs(me.Arcs), tol)
	}
	return nil
}

// ratioArcs converts mcr witness arcs to the checker's type.
func ratioArcs(arcs []mcr.CycleArc) []verify.RatioArc {
	out := make([]verify.RatioArc, len(arcs))
	for i, a := range arcs {
		out[i] = verify.RatioArc{From: a.From, To: a.To, A: a.A, B: a.B}
	}
	return out
}
