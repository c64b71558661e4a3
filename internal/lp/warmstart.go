package lp

import (
	"context"
	"time"

	"mintc/internal/faultinject"
)

// Basis is an opaque snapshot of a simplex basis in the canonical
// column encoding (structural j → j, slack of row i → n+i, artificial
// of row i → n+m+i). A Basis taken from one optimal solve can seed a
// warm re-solve of any problem with the same shape — same variable
// count, row count and per-row relations — which is exactly what the
// overlay/session layers produce: identical constraint structure with
// edited delay RHS values.
type Basis struct {
	m, n int
	ids  []int32
}

// Basis returns the final optimal basis, or nil when the solve did not
// end at an optimal vertex (infeasible, unbounded, cancelled). The
// returned value is independent of the Solution and safe to retain.
func (s *Solution) Basis() *Basis {
	if s == nil || s.basis == nil {
		return nil
	}
	ids := make([]int32, len(s.basis))
	copy(ids, s.basis)
	return &Basis{m: len(s.basis), n: len(s.X), ids: ids}
}

// SolveCtxFrom solves p warm-started from a previously optimal basis.
// When only the RHS changed since the basis was optimal (the SMO
// overlay case: delays enter the LP only through RHS values) the old
// basis stays dual feasible and the solve runs the dual simplex from
// it, typically in a handful of pivots instead of a full two-phase
// solve. A nil, mismatched or otherwise unusable basis silently falls
// back to a cold SolveCtx, so callers can pass whatever basis they
// last saw without shape bookkeeping.
func SolveCtxFrom(ctx context.Context, p *Problem, b *Basis) (*Solution, error) {
	if wantDense(ctx) {
		// The dense oracle has no warm path: a dense override always
		// runs a cold solve.
		return SolveDenseCtx(ctx, p)
	}
	if sol, done := solveTrivial(p); done {
		return sol, nil
	}
	if faultinject.Fire("lp.warm") != nil {
		b = nil // injected unusable-basis fault: force the cold path
	}
	if b == nil || b.m != len(p.rows) || b.n != len(p.names) {
		return solveRevised(ctx, p, nil)
	}
	return solveRevised(ctx, p, b)
}

// installWarm validates the basis ids and factorizes the warm basis.
// A false return means the basis is unusable (bad shape, duplicate
// ids, slack of an equality row, singular matrix); the caller discards
// the whole solver state, so no cleanup happens here.
func (r *revised) installWarm(b *Basis) bool {
	st := r.st
	for _, id := range b.ids {
		if id < 0 || id >= st.numCols() {
			return false
		}
		if int(id) >= st.n && !st.isArtificial(id) && st.slackSign[st.slackRow(id)] == 0 {
			return false
		}
	}
	for i, id := range b.ids {
		if r.where[id] >= 0 {
			return false // duplicate
		}
		r.basis[i] = id
		r.where[id] = int32(i)
	}
	t := time.Now()
	err := r.lu.factorize(st, r.basis)
	r.stats.FactorTime += time.Since(t)
	r.stats.Refactorizations++
	return err == nil
}

// warmRun attempts the warm-started solve. ok=false (with nil error)
// means the basis could not be used and the caller should cold-start;
// ok=true means the warm path owned the solve and sol/err are final.
func (r *revised) warmRun(ctx context.Context, p *Problem, warm *Basis) (sol *Solution, ok bool, err error) {
	st := r.st
	if !r.installWarm(warm) {
		return nil, false, nil
	}
	r.recomputeXB()
	r.loadCosts(false)
	feasTol := 1e-7 * (1 + st.scale)

	if !r.primalFeasible(feasTol) {
		// The warm bet: with RHS-only edits the old optimal basis is
		// still dual feasible, so the dual simplex can walk back to
		// primal feasibility. Verify the bet before committing.
		r.duals()
		lim := int32(st.n + st.m)
		for id := int32(0); id < lim; id++ {
			if r.where[id] >= 0 || !st.eligible(id) {
				continue
			}
			if st.cost(id, false)-st.colDot(r.y, id) < -st.tol(id) {
				return nil, false, nil
			}
		}
		feasible, abandon, derr := r.dualIterate(ctx, feasTol)
		if derr != nil {
			return &Solution{Pivots: r.pivots}, true, derr
		}
		if abandon {
			return nil, false, nil
		}
		if !feasible {
			// dualIterate left rho = B^-T e_leave for the failing row in
			// y2: no eligible column has a negative transformed entry
			// there, so y = -rho (flips undone) is a Farkas ray.
			ray := make([]float64, st.m)
			for i := range ray {
				ray[i] = -r.y2[i] * st.rowSign[i]
			}
			return &Solution{Status: Infeasible, Pivots: r.pivots, FarkasRay: ray}, true, nil
		}
	}

	// A leftover basic artificial above tolerance means this basis
	// cannot certify feasibility of the edited program; phase 1 must
	// decide, so fall back to the cold path.
	for i, id := range r.basis {
		if st.isArtificial(id) && r.xB[i] > feasTol {
			return nil, false, nil
		}
	}

	// Primal phase-2 mop-up from the (near-)feasible basis; on an
	// unchanged-optimum re-solve this prices once and stops.
	r.pr.reset()
	unbounded, err := r.iterate(ctx, 2)
	if err != nil {
		return &Solution{Pivots: r.pivots}, true, err
	}
	if unbounded {
		return &Solution{Status: Unbounded, Pivots: r.pivots}, true, nil
	}
	sol, err = r.extract(p)
	return sol, true, err
}

// primalFeasible reports whether every basic value is nonnegative
// within tolerance.
func (r *revised) primalFeasible(feasTol float64) bool {
	for _, v := range r.xB {
		if v < -feasTol {
			return false
		}
	}
	return true
}

// dualIterate runs dual simplex pivots until primal feasibility
// (feasible=true), a primal-infeasibility certificate (feasible=false),
// a degeneracy stall (abandon=true: the caller cold-starts instead),
// cancellation, or the iteration limit. Requires the current basis to
// be dual feasible; every pivot preserves dual feasibility by the
// min-ratio rule.
func (r *revised) dualIterate(ctx context.Context, feasTol float64) (feasible, abandon bool, err error) {
	st := r.st
	lim := int32(st.n + st.m)
	limit := iterLimit(st.m, st.n)
	tol := eps * (1 + st.scale)
	stall := 0
	window := 4 * (st.m + st.n)
	lastObj := r.phaseObj()

	for iter := 0; iter < limit; iter++ {
		if err := ctx.Err(); err != nil {
			return false, false, err
		}
		// Leaving row: the most negative basic value.
		leave := -1
		worst := -feasTol
		for i, v := range r.xB {
			if v < worst {
				worst = v
				leave = i
			}
		}
		if leave < 0 {
			return true, false, nil
		}

		// rho = B^-T e_leave is the leaving row of B^-1; alpha_j =
		// rho·A_j is that row of the transformed column j.
		r.c[leave] = 1
		r.lu.btran(r.c, r.y2) // rho in y2
		r.duals()             // y = B^-T cB

		enter := int32(-1)
		var bestRatio float64
		for id := int32(0); id < lim; id++ {
			if r.where[id] >= 0 || !st.eligible(id) {
				continue
			}
			alpha := st.colDot(r.y2, id)
			if alpha >= -ratioEps {
				continue
			}
			d := st.cost(id, false) - st.colDot(r.y, id)
			if d < 0 {
				d = 0 // dual-feasible up to roundoff
			}
			ratio := d / -alpha
			if enter < 0 || ratio < bestRatio-ratioEps ||
				(ratio < bestRatio+ratioEps && id < enter) {
				enter = id
				bestRatio = ratio
			}
		}
		if enter < 0 {
			// No negative entry in a row with negative basic value:
			// that row certifies primal infeasibility.
			return false, false, nil
		}

		r.ftranCol(enter)
		if err := r.pivot(int32(leave), enter, false); err != nil {
			return false, false, err
		}

		// The dual objective is nondecreasing; a long run of degenerate
		// (zero-ratio) pivots risks cycling, and a cold solve is both
		// safe and cheap enough to be the better escape.
		if cur := r.phaseObj(); cur > lastObj+tol {
			lastObj = cur
			stall = 0
		} else {
			stall++
			if stall > window {
				return false, true, nil
			}
		}
	}
	return false, false, iterLimitError(2, r.pivots, st.m, st.n)
}
