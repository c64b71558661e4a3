package gen

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mintc/internal/core"
	"mintc/internal/mcr"
	"mintc/internal/sim"
)

// TestMegaCrossValidation is the repository's standing four-way
// agreement check: on hundreds of random circuits with random margin
// options, the LP engine, the min-cycle-ratio engine, the static
// analysis and (for nominal options) the simulator must all agree.
// This test caught a real bug: the MLP slide originally iterated the
// nominal propagation operator while the LP used margin-adjusted arcs,
// making convergence pathologically slow under small skews.
func TestMegaCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(99999))
	solved := 0
	for iter := 0; iter < 600; iter++ {
		c := Random(rng, RandomConfig{MaxSyncs: 12, MaxPhases: 5})
		opts := core.Options{}
		if rng.Float64() < 0.3 {
			opts.Skew = rng.Float64()
		}
		if rng.Float64() < 0.3 {
			opts.MinPhaseWidth = rng.Float64() * 3
		}
		lpRes, err1 := core.MinTc(c, opts)
		mcrRes, err2 := mcr.Solve(c, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: engine feasibility disagreement", iter)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(lpRes.Schedule.Tc-mcrRes.Tc) > 1e-5*(1+mcrRes.Tc) {
			t.Fatalf("iter %d: LP %g vs MCR %g", iter, lpRes.Schedule.Tc, mcrRes.Tc)
		}
		an, err := core.CheckTc(c, lpRes.Schedule, opts)
		if err != nil || !an.Feasible {
			t.Fatalf("iter %d: analysis rejects LP optimum", iter)
		}
		an2, err := core.CheckTc(c, mcrRes.Schedule, opts)
		if err != nil || !an2.Feasible {
			t.Fatalf("iter %d: analysis rejects MCR optimum", iter)
		}
		if opts.Skew == 0 && opts.MinPhaseWidth == 0 {
			tr, err := sim.Run(context.Background(), c.MustFreeze().Overlay(), lpRes.Schedule, sim.Config{Cycles: 64})
			if err != nil || len(tr.Violations) != 0 || tr.ConvergedAt < 0 {
				t.Fatalf("iter %d: simulation disagrees with statics", iter)
			}
		}
		solved++
	}
	t.Logf("cross-validated %d/600 random circuits (rest infeasible-by-construction)", solved)
}
