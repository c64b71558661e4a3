package gen

import (
	"context"
	"math"
	"testing"

	"mintc/internal/core"
	"mintc/internal/lp"
)

// TestSuiteSparseMatchesDense is the suite-wide differential property
// behind the sparse engine: for every benchmark workload the full MinTc
// pipeline must reach the same status and the same optimal cycle time
// (within 1e-9) whether the LP layer runs the sparse revised simplex or
// the dense tableau oracle. Running it over the whole suite under -race
// (the CI test step) also exercises the solver from the sweep and
// session concurrency paths' perspective.
func TestSuiteSparseMatchesDense(t *testing.T) {
	for _, bm := range Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			sparse, serr := core.MinTc(bm.Circuit, core.Options{})
			dense, derr := core.MinTcCtx(lp.WithSolver(context.Background(), "dense"), bm.Circuit, core.Options{})

			if (serr == nil) != (derr == nil) {
				t.Fatalf("status disagreement: sparse err=%v dense err=%v", serr, derr)
			}
			if serr != nil {
				return // both failed identically (e.g. unbounded circuit)
			}
			if d := math.Abs(sparse.Schedule.Tc - dense.Schedule.Tc); d > 1e-9 {
				t.Fatalf("Tc disagreement: sparse=%.15g dense=%.15g (diff %.3g)",
					sparse.Schedule.Tc, dense.Schedule.Tc, d)
			}
			if bm.OptimalTc != 0 {
				if d := math.Abs(sparse.Schedule.Tc - bm.OptimalTc); d > 1e-6*(1+bm.OptimalTc) {
					t.Fatalf("sparse Tc %.12g differs from known optimum %.12g",
						sparse.Schedule.Tc, bm.OptimalTc)
				}
			}
		})
	}
}
