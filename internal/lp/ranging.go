package lp

import (
	"context"
	"fmt"
	"math"
)

// RHS ranging — the sensitivity analysis behind the paper's proposed
// parametric (critical-segment) study — is computed on demand: only a
// few consumers read it, each for a handful of rows, so an optimal
// solve does not pay one FTRAN per row for intervals nobody asks for.
// A query re-assembles the solved problem into a scratch arena,
// refactorizes the retained final basis and recomputes the basic
// values. The factorization is a deterministic function of (rows,
// basis), so this is bit for bit the solve's own final
// refactorization, and the intervals are those of the basis the solve
// ended on. Nothing is cached on the Solution, so concurrent queries
// on one shared Solution are safe.

// RHSRange returns, for each requested row, the closed interval of
// values for that row's RHS over which the final basis stays optimal;
// within it the objective changes at rate Dual[row] per unit of RHS.
// This is the classic RHS ranging used for the paper's proposed
// parametric (critical-segment) analysis. Bounds may be ±Inf.
//
// A revised-simplex solution costs one refactorization of the final
// basis plus one FTRAN per requested row; a dense-oracle solution
// reads the intervals off its final tableau. The error reports a
// solution without an optimal basis, a row out of range, or a failed
// refactorization.
func (s *Solution) RHSRange(rows ...int) ([][2]float64, error) {
	if err := s.checkRows(rows); err != nil {
		return nil, err
	}
	out := make([][2]float64, len(rows))
	if s.ranges != nil {
		for k, row := range rows {
			out[k] = s.ranges[row]
		}
		return out, nil
	}
	err := s.refactored(func(r *revised) {
		for k, row := range rows {
			r.v[row] = 1
			r.lu.ftran(r.v, r.w)
			lo, hi := r.stepRange(r.st.rowSign[row]) // d(xB)/d(original RHS_row)
			base := s.prob.rows[row].RHS
			out[k] = [2]float64{base + lo, base + hi}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RHSStepRange ranges along a direction: it returns the interval
// [lo, hi] of step lengths t over which the final basis stays optimal
// when the RHS moves from b to b + t·d, where d is zero except
// d[rows[k]] = dir[k] (repeated rows accumulate). Within it the
// objective changes at rate Σ_k Dual[rows[k]]·dir[k] per unit of t, so
// an edit that moves several rows at once is answered by one FTRAN.
// lo <= 0 <= hi up to roundoff; bounds may be ±Inf. Dense-oracle
// solutions are ranged through the same refactorization of their final
// basis.
func (s *Solution) RHSStepRange(rows []int, dir []float64) (lo, hi float64, err error) {
	if len(rows) != len(dir) {
		return 0, 0, fmt.Errorf("lp: RHSStepRange has %d rows but %d directions", len(rows), len(dir))
	}
	if err := s.checkRows(rows); err != nil {
		return 0, 0, err
	}
	err = s.refactored(func(r *revised) {
		for k, row := range rows {
			r.v[row] += dir[k] * r.st.rowSign[row]
		}
		r.lu.ftran(r.v, r.w)
		lo, hi = r.stepRange(1)
	})
	return lo, hi, err
}

// checkRows rejects range queries the solution cannot answer.
func (s *Solution) checkRows(rows []int) error {
	if s == nil || s.basis == nil {
		return fmt.Errorf("lp: RHS ranging needs an optimal solution with a basis")
	}
	m := len(s.prob.rows)
	for _, row := range rows {
		if row < 0 || row >= m {
			return fmt.Errorf("lp: RHS ranging row %d out of range [0,%d)", row, m)
		}
	}
	return nil
}

// refactored rebuilds the solve's final state in a scratch arena — the
// assembled store, the LU factorization of the optimal basis and the
// basic values B⁻¹b — and hands it to fn. The arena returns to the
// pool afterwards, so fn must not let any of it escape.
func (s *Solution) refactored(fn func(r *revised)) error {
	ar := getArena()
	defer ar.release()
	st, err := assemble(context.Background(), &s.prob, ar)
	if err != nil {
		return err
	}
	r := ar.revisedFor(st)
	copy(r.basis, s.basis)
	if err := r.refactor(); err != nil {
		return err
	}
	r.recomputeXB()
	fn(r)
	return nil
}

// stepRange returns the interval of t over which xB + t·mult·w stays
// nonnegative, with w = r.w the basic values' sensitivity to the
// ranged RHS move (entries below 1e-12 in magnitude are ignored).
// Matches the dense oracle's ranging formula.
func (r *revised) stepRange(mult float64) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for i := 0; i < r.st.m; i++ {
		d := r.w[i] * mult
		if math.Abs(d) < 1e-12 {
			continue
		}
		bound := -r.xB[i] / d
		if d > 0 {
			if bound > lo {
				lo = bound
			}
		} else if bound < hi {
			hi = bound
		}
	}
	return lo, hi
}
