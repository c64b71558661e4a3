package mcr

import (
	"context"
	"fmt"

	"mintc/internal/core"
)

// Circuit-level shorthands for the tests: freeze, then take the
// overlay path every production caller uses.

func builderFor(c *core.Circuit, opts core.Options) *builder {
	return newBuilder(c.MustFreeze().Overlay(), opts, nil)
}

func newSolver(c *core.Circuit, opts core.Options) (*Solver, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return NewSolverOverlay(cc.Overlay(), opts)
}

func solveCtx(ctx context.Context, c *core.Circuit, opts core.Options) (*Result, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return SolveOverlayCtx(ctx, cc.Overlay(), opts)
}

// solveBinary computes the optimal cycle time by bisection to the given
// absolute tolerance: the independent oracle Solve's witness jumping
// is cross-checked against. Every probe runs cold (bisection moves tc
// in both directions, and the endpoint probes feed extraction, which
// needs least potentials).
func solveBinary(c *core.Circuit, opts core.Options, tol float64) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if tol <= 0 {
		tol = 1e-7
	}
	ctx := context.Background()
	b := builderFor(c, opts)
	res := &Result{}
	probe := func(tc float64) ([]float64, []edge, error) {
		res.Probes++
		return b.probe(ctx, tc, false)
	}
	// Upper bound: any Tc beyond the sum of all positive constants is
	// feasible unless the system is structurally infeasible.
	hi := 1.0
	for _, e := range b.edges {
		if e.a > 0 {
			hi += e.a
		}
	}
	if _, witness, err := probe(hi); err != nil {
		return nil, err
	} else if witness != nil {
		return nil, ErrInfeasible
	}
	if dist, witness, err := probe(0); err != nil {
		return nil, err
	} else if witness == nil {
		b.extract(res, 0, dist, nil)
		return res, nil
	}
	lo := 0.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		_, witness, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if witness == nil {
			hi = mid
		} else {
			lo = mid
		}
	}
	dist, witness, err := probe(hi)
	if err != nil {
		return nil, err
	}
	if witness != nil {
		return nil, fmt.Errorf("mcr: bisection landed on infeasible point")
	}
	b.extract(res, hi, dist, nil)
	return res, nil
}
