package lp

import (
	"context"
	"fmt"
	"math"
	"time"

	"mintc/internal/faultinject"
)

// revised is one sparse revised-simplex solve in flight: the immutable
// store, the LU-factorized basis, the candidate-list pricer, and the
// dense working vectors. All vectors are either row-indexed (duals,
// ftran inputs) or basis-position-indexed (basic values, transformed
// columns); the store's canonical column ids tie them together.
type revised struct {
	st *store
	lu *basisLU
	pr *pricer

	basis []int32 // position -> canonical column id
	where []int32 // canonical column id -> position, -1 if nonbasic
	xB    []float64
	cB    []float64 // basic costs for the current phase

	y  []float64 // row scratch: duals / BTRAN output
	y2 []float64 // row scratch: second BTRAN output (dual simplex rho)
	v  []float64 // row scratch: FTRAN input (self-cleaning)
	c  []float64 // position scratch: BTRAN input (self-cleaning)
	w  []float64 // position scratch: FTRAN output

	pivots int
	stats  SolveStats
}

// resetCold restores the solver state a fresh newRevised-style setup
// would have, used when an abandoned warm attempt falls back to a cold
// start on the same arena: nonbasic maps, the self-cleaning FTRAN/
// BTRAN inputs and the pricer candidate list are reset; xB, cB and the
// LU are fully rebuilt by coldBasis/refactorize anyway. Pivot and
// stats counters are left to the caller (the cold start inherits the
// abandoned attempt's counts).
func (r *revised) resetCold() {
	for i := range r.where {
		r.where[i] = -1
	}
	for i := range r.v {
		r.v[i] = 0
		r.c[i] = 0
	}
	r.pr.reset()
}

// solveRevised runs the sparse revised simplex. With a nil warm basis
// it cold-starts from the slack/artificial basis through phase 1; with
// a warm basis it re-optimizes from there (dual simplex when the basis
// went primal-infeasible), falling back to a cold start whenever the
// basis cannot be used. Returns the same Solution shape, statuses and
// error conventions as the dense oracle.
func solveRevised(ctx context.Context, p *Problem, warm *Basis) (*Solution, error) {
	ar := getArena()
	defer ar.release()
	tA := time.Now()
	st, err := assemble(ctx, p, ar)
	if err != nil {
		return &Solution{}, err
	}
	r := ar.revisedFor(st)
	r.stats.Nnz = st.nnz
	r.stats.AssembleTime = time.Since(tA)

	tS := time.Now()
	sol, err := r.run(ctx, p, warm)
	if d := time.Since(tS) - r.stats.FactorTime; d > 0 {
		r.stats.PivotTime = d
	}
	if sol != nil {
		r.stats.ScratchReused = ar.reused
		r.stats.ScratchGrows = ar.grows
		sol.Stats = r.stats
	}
	return sol, err
}

func (r *revised) run(ctx context.Context, p *Problem, warm *Basis) (*Solution, error) {
	if warm != nil {
		sol, ok, err := r.warmRun(ctx, p, warm)
		if ok {
			r.stats.WarmStarted = true
			r.stats.WarmPivots = r.pivots
			return sol, err
		}
		// Fall through to a cold start with fresh state, preserving the
		// counters of the abandoned warm attempt.
		r.resetCold()
	}

	if err := r.coldBasis(); err != nil {
		return &Solution{Pivots: r.pivots}, err
	}

	// Phase 1: minimize the artificial sum when any artificial is basic.
	if r.hasBasicArtificials() {
		r.loadCosts(true)
		r.pr.reset()
		stop, err := r.iterate(ctx, 1)
		if err != nil {
			return &Solution{Pivots: r.pivots}, err
		}
		_ = stop // phase 1 cannot be unbounded; treated as optimal
		if r.phaseObj() > 1e-7*(1+r.st.scale) {
			// Phase-1 optimum with positive artificial mass: the phase-1
			// duals are a Farkas certificate of infeasibility. cB still
			// holds phase-1 costs here, so one BTRAN reads them out.
			r.duals()
			ray := make([]float64, r.st.m)
			for i := range ray {
				ray[i] = r.y[i] * r.st.rowSign[i]
			}
			return &Solution{Status: Infeasible, Pivots: r.pivots, FarkasRay: ray}, nil
		}
		if err := r.driveOutArtificials(ctx); err != nil {
			return &Solution{Pivots: r.pivots}, err
		}
	}

	// Phase 2: the real objective.
	r.loadCosts(false)
	r.pr.reset()
	unbounded, err := r.iterate(ctx, 2)
	if err != nil {
		return &Solution{Pivots: r.pivots}, err
	}
	if unbounded {
		return &Solution{Status: Unbounded, Pivots: r.pivots}, nil
	}
	return r.extract(ctx, p)
}

// coldBasis installs the initial slack/artificial basis and factorizes
// it (trivially: every column is a unit vector).
func (r *revised) coldBasis() error {
	st := r.st
	for i := 0; i < st.m; i++ {
		var id int32
		if st.slackSign[i] > 0 {
			id = int32(st.n + i)
		} else {
			id = int32(st.n + st.m + i)
		}
		r.basis[i] = id
		r.where[id] = int32(i)
		r.xB[i] = st.rhs[i]
	}
	return r.refactor()
}

// refactor rebuilds the LU factorization of the current basis, timing
// and counting it in the solve stats.
func (r *revised) refactor() error {
	t := time.Now()
	err := r.lu.factorize(r.st, r.basis)
	r.stats.FactorTime += time.Since(t)
	r.stats.Refactorizations++
	if err != nil {
		return fmt.Errorf("lp: basis refactorization failed: %w", err)
	}
	return nil
}

// recomputeXB refreshes the basic values as B^-1 rhs (called after
// refactorization to shed accumulated eta roundoff).
func (r *revised) recomputeXB() {
	copy(r.v, r.st.rhs)
	r.lu.ftran(r.v, r.xB)
}

func (r *revised) hasBasicArtificials() bool {
	for _, id := range r.basis {
		if r.st.isArtificial(id) {
			return true
		}
	}
	return false
}

// loadCosts fills cB with the per-position basic costs of the phase.
func (r *revised) loadCosts(phase1 bool) {
	for i, id := range r.basis {
		r.cB[i] = r.st.cost(id, phase1)
	}
}

// phaseObj returns the current phase objective cB·xB.
func (r *revised) phaseObj() float64 {
	var z float64
	for i, cb := range r.cB {
		if cb != 0 {
			z += cb * r.xB[i]
		}
	}
	return z
}

// duals computes y = B^-T cB into r.y.
func (r *revised) duals() {
	copy(r.c, r.cB)
	r.lu.btran(r.c, r.y)
}

// ftranCol computes w = B^-1 A_id into r.w.
func (r *revised) ftranCol(id int32) {
	r.st.scatterCol(id, r.v)
	r.lu.ftran(r.v, r.w)
}

// iterate runs primal simplex pivots for the loaded phase costs until
// optimality (false, nil), unboundedness (true, nil), cancellation or
// the iteration limit. Mirrors the dense oracle's conventions: Dantzig
// pricing with per-column tolerances, Bland's rule after a degeneracy
// stall window, ctx polled once per pivot, ratio-test ties broken
// toward the smaller basic column id.
func (r *revised) iterate(ctx context.Context, phase int) (unbounded bool, err error) {
	st := r.st
	tol := eps * (1 + st.scale)
	bland := false
	stall := 0
	window := 4 * (st.m + st.n)
	phase1 := phase == 1
	lastObj := r.phaseObj()

	limit := iterLimit(st.m, st.n)
	for iter := 0; iter < limit; iter++ {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if err := faultinject.Fire("lp.iterate"); err != nil {
			return false, err
		}
		r.duals()
		enter := r.pr.price(r.y, r.where, phase1, bland)
		if enter < 0 {
			return false, nil
		}
		r.ftranCol(enter)

		// Ratio test over the transformed column.
		leave := -1
		var bestRatio float64
		for i := 0; i < st.m; i++ {
			aij := r.w[i]
			if aij <= ratioEps {
				continue
			}
			xb := r.xB[i]
			if xb < 0 {
				xb = 0
			}
			ratio := xb / aij
			if leave == -1 || ratio < bestRatio-ratioEps ||
				(ratio < bestRatio+ratioEps && r.basis[i] < r.basis[leave]) {
				leave = i
				bestRatio = ratio
			}
		}
		if leave == -1 {
			if phase1 {
				// The phase-1 objective is bounded below by zero, so a
				// missing leaving row is numerical; the feasibility
				// check after the loop decides the outcome.
				return false, nil
			}
			return true, nil
		}
		if err := r.pivot(int32(leave), enter, phase1); err != nil {
			return false, err
		}

		if cur := r.phaseObj(); cur < lastObj-tol {
			lastObj = cur
			stall = 0
			bland = false
		} else {
			stall++
			if stall > window {
				bland = true
			}
		}
	}
	return false, iterLimitError(phase, r.pivots, st.m, st.n)
}

// pivot replaces the basic variable at position leave with column
// enter, using the already-computed transformed column in r.w, then
// updates the eta file (refactorizing when it has grown too long).
func (r *revised) pivot(leave, enter int32, phase1 bool) error {
	if err := faultinject.Fire("lp.pivot"); err != nil {
		return err
	}
	wl := r.w[leave]
	if math.Abs(wl) < 1e-11 {
		// Degenerate pivot element: rebuild the factorization and
		// recompute the column once before giving up.
		if err := r.refactor(); err != nil {
			return err
		}
		r.recomputeXB()
		r.ftranCol(enter)
		wl = r.w[leave]
		if math.Abs(wl) < 1e-11 {
			return fmt.Errorf("lp: pivot element %.3g too small (row %d col %d)", wl, leave, enter)
		}
	}
	theta := faultinject.Perturb("lp.pivot.theta", r.xB[leave]/wl)
	for i := range r.xB {
		if int32(i) == leave {
			continue
		}
		if wv := r.w[i]; wv != 0 {
			r.xB[i] -= theta * wv
		}
	}
	r.xB[leave] = theta

	out := r.basis[leave]
	r.where[out] = -1
	r.basis[leave] = enter
	r.where[enter] = leave
	r.cB[leave] = r.st.cost(enter, phase1)
	r.pivots++

	r.lu.update(leave, r.w)
	if r.lu.needRefactor() {
		if err := r.refactor(); err != nil {
			return err
		}
		r.recomputeXB()
	}
	return nil
}

// driveOutArtificials pivots leftover basic artificials (level ~0 after
// a feasible phase 1) out of the basis wherever a usable column exists;
// rows with no usable column are redundant and keep their artificial
// basic at zero, which is harmless because artificials never re-enter.
func (r *revised) driveOutArtificials(ctx context.Context) error {
	st := r.st
	lim := int32(st.n + st.m)
	for i := 0; i < st.m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if !st.isArtificial(r.basis[i]) {
			continue
		}
		// Row i of B^-1 A is rho^T A with rho = B^-T e_i.
		r.c[i] = 1
		r.lu.btran(r.c, r.y)
		for id := int32(0); id < lim; id++ {
			if r.where[id] >= 0 || !st.eligible(id) {
				continue
			}
			if math.Abs(st.colDot(r.y, id)) <= 1e-7 {
				continue
			}
			r.ftranCol(id)
			if err := r.pivot(int32(i), id, true); err != nil {
				return err
			}
			break
		}
	}
	return nil
}

// extract finalizes the optimal solution: one last refactorization
// sheds the eta file's accumulated roundoff, then primal values, duals,
// slacks, ranging and the canonical basis are read out.
func (r *revised) extract(ctx context.Context, p *Problem) (*Solution, error) {
	st := r.st
	if r.lu.nEtas() > 0 {
		if err := r.refactor(); err != nil {
			return &Solution{Pivots: r.pivots}, err
		}
		r.recomputeXB()
	}

	x := make([]float64, st.n)
	for i, id := range r.basis {
		if int(id) < st.n {
			v := faultinject.Perturb("lp.extract.x", r.xB[i])
			if math.Abs(v) < zeroSnap {
				v = 0
			}
			x[id] = v
		}
	}
	var objVal float64
	for j, cj := range p.obj {
		objVal += cj * x[j]
	}

	// Duals in the original row space: y solves B^T y = cB in the
	// normalized system; undo the row flips.
	r.loadCosts(false)
	r.duals()
	dual := make([]float64, st.m)
	for i := 0; i < st.m; i++ {
		d := r.y[i] * st.rowSign[i]
		if math.Abs(d) < zeroSnap {
			d = 0
		}
		dual[i] = d
	}

	ranges, err := r.rhsRanges(ctx, p)
	if err != nil {
		return &Solution{Pivots: r.pivots}, err
	}

	enc := make([]int32, st.m)
	copy(enc, r.basis)
	return &Solution{
		Status:   Optimal,
		Obj:      objVal,
		X:        x,
		Dual:     dual,
		Slack:    clampSlacks(rowSlacks(p, x)),
		Pivots:   r.pivots,
		RHSRange: ranges,
		basis:    enc,
	}, nil
}

// rhsRanges computes per-row RHS ranging intervals with one FTRAN of
// the row's unit vector each: d = B^-1 e_r gives the sensitivity of
// every basic value to that RHS, and the basis stays optimal while all
// basic values stay nonnegative. Matches the dense oracle's formula.
func (r *revised) rhsRanges(ctx context.Context, p *Problem) ([][2]float64, error) {
	st := r.st
	ranges := make([][2]float64, st.m)
	for row := 0; row < st.m; row++ {
		if row&127 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		r.v[row] = 1
		r.lu.ftran(r.v, r.w)
		lo, hi := math.Inf(-1), math.Inf(1)
		for i := 0; i < st.m; i++ {
			d := r.w[i] * st.rowSign[row] // d(xB[i]) / d(original RHS_row)
			if math.Abs(d) < 1e-12 {
				continue
			}
			bound := -r.xB[i] / d
			if d > 0 {
				if bound > lo {
					lo = bound
				}
			} else {
				if bound < hi {
					hi = bound
				}
			}
		}
		base := p.rows[row].RHS
		ranges[row] = [2]float64{base + lo, base + hi}
	}
	return ranges, nil
}
