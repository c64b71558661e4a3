package mcr

import (
	"context"
	"math"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// probePair runs the worklist probe (cold) and the dense reference at
// the same tc on fresh builders and cross-checks verdict and result.
func probePair(t *testing.T, c *core.Circuit, tc float64) {
	t.Helper()
	ctx := context.Background()
	bw := builderFor(c, core.Options{})
	bd := builderFor(c, core.Options{})
	distW, witW, err := bw.probe(ctx, tc, false)
	if err != nil {
		t.Fatalf("worklist probe: %v", err)
	}
	distD, witD, err := bd.probeDense(ctx, tc)
	if err != nil {
		t.Fatalf("dense probe: %v", err)
	}
	if (witW == nil) != (witD == nil) {
		t.Fatalf("tc=%g: worklist feasible=%v, dense feasible=%v", tc, witW == nil, witD == nil)
	}
	if witW == nil {
		// Both feasible: the least potentials must agree. Relaxation
		// order differs, so allow the eps slop of the strict-improvement
		// guard to accumulate over a path.
		tol := eps * float64(bw.n+1) * 10
		for i := range distW {
			a, b := distW[i], distD[i]
			if math.IsInf(a, -1) && math.IsInf(b, -1) {
				continue
			}
			if math.Abs(a-b) > tol {
				t.Fatalf("tc=%g node %s: worklist potential %g, dense %g", tc, bw.nodeName(i), a, b)
			}
		}
		return
	}
	// Both infeasible: each witness must be a genuinely positive cycle.
	for name, wit := range map[string][]edge{"worklist": witW, "dense": witD} {
		var w float64
		for _, e := range wit {
			w += e.a + e.b*tc
		}
		if w <= 0 {
			t.Fatalf("tc=%g: %s witness cycle has non-positive weight %g", tc, name, w)
		}
	}
}

// TestWorklistProbeMatchesDense cross-checks the SPFA worklist probe
// against the dense Bellman–Ford reference on every suite workload, at
// the optimum, above it (feasible), and below it (infeasible when the
// optimum is ratio-bound).
func TestWorklistProbeMatchesDense(t *testing.T) {
	for _, bm := range gen.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			r, err := Solve(bm.Circuit, core.Options{})
			if err != nil {
				t.Skipf("Solve: %v", err)
			}
			probePair(t, bm.Circuit, r.Tc)
			probePair(t, bm.Circuit, r.Tc+1)
			probePair(t, bm.Circuit, r.Tc*2+5)
			if r.Tc > 1 {
				probePair(t, bm.Circuit, r.Tc-1)
				probePair(t, bm.Circuit, r.Tc/2)
			}
		})
	}
}

// TestWarmStartedSolveIsDeterministic: the warm-started Lawler search
// must give bit-identical results across repeated solves, and the
// reusable Solver (which keeps its warm buffers across SolveCtx calls)
// must agree with a fresh one-shot Solve.
func TestWarmStartedSolveIsDeterministic(t *testing.T) {
	for _, bm := range gen.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			r1, err1 := Solve(bm.Circuit, core.Options{})
			r2, err2 := Solve(bm.Circuit, core.Options{})
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("errors differ: %v vs %v", err1, err2)
			}
			if err1 != nil {
				t.Skipf("Solve: %v", err1)
			}
			if r1.Tc != r2.Tc {
				t.Fatalf("Tc differs across runs: %v vs %v", r1.Tc, r2.Tc)
			}
			for i := range r1.D {
				if r1.D[i] != r2.D[i] {
					t.Fatalf("D[%d] differs across runs: %v vs %v", i, r1.D[i], r2.D[i])
				}
			}
			s, err := newSolver(bm.Circuit, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 3; run++ {
				rs, err := s.Solve()
				if err != nil {
					t.Fatal(err)
				}
				if rs.Tc != r1.Tc {
					t.Fatalf("run %d: reusable solver Tc %v != one-shot %v", run, rs.Tc, r1.Tc)
				}
			}
		})
	}
}

func suiteCircuit(tb testing.TB, name string) *core.Circuit {
	tb.Helper()
	for _, bm := range gen.Suite() {
		if bm.Name == name {
			return bm.Circuit
		}
	}
	tb.Fatalf("suite workload %q not found", name)
	return nil
}

// BenchmarkProbe measures one cold feasibility probe at the optimum on
// a heavyweight suite workload, worklist vs dense reference.
func BenchmarkProbe(b *testing.B) {
	c := suiteCircuit(b, "rand-large")
	r, err := Solve(c, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	bld := builderFor(c, core.Options{})
	b.Run("worklist", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, wit, err := bld.probe(ctx, r.Tc, false); err != nil || wit != nil {
				b.Fatalf("wit=%v err=%v", wit, err)
			}
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, wit, err := bld.probeDense(ctx, r.Tc); err != nil || wit != nil {
				b.Fatalf("wit=%v err=%v", wit, err)
			}
		}
	})
}

// BenchmarkSolve measures the full warm-started Lawler search.
func BenchmarkSolve(b *testing.B) {
	c := suiteCircuit(b, "rand-large")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(c, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
