package core

import (
	"math"
	"testing"
)

// nearlyCriticalLoop is one phase with a flip-flop self-loop that sets
// Tc* ≈ 26.286 and a latch self-loop (18.85 + ΔDQ 7.42) only ≈ 0.0094
// below it. The slide from the LP point descends by that slack per
// pass, about 2,343 passes, far past the default cap of 100·L + 100.
// (The input of a quick-check counterexample of
// TestQuickAddPathMonotonicity, seed −902619821262843297, d 0xa9.)
func nearlyCriticalLoop() *Circuit {
	c := NewCircuit(1)
	c.AddSync(Synchronizer{Phase: 0, Kind: FlipFlop, Setup: 4.338127965121869, DQ: 2.9479099281884826})
	c.AddSync(Synchronizer{Phase: 0, Kind: FlipFlop, Setup: 1.605221236695137, DQ: 0.5168016100797399})
	c.AddSync(Synchronizer{Phase: 0, Kind: Latch, Setup: 4.264520515644844, DQ: 7.421933317046813})
	c.AddPath(2, 2, 18.854704498740187)
	c.AddPath(0, 0, 19)
	return c
}

// TestSlideCapFinishesAtLeastFixpoint: a slide that hits its iteration
// cap finishes at the least fixpoint instead of failing, in every
// update mode, and lands where an uncapped slide does.
func TestSlideCapFinishesAtLeastFixpoint(t *testing.T) {
	c := nearlyCriticalLoop()
	long, err := MinTc(c, Options{MaxUpdateIter: 100000})
	if err != nil {
		t.Fatalf("uncapped slide: %v", err)
	}
	if long.UpdateIterations <= maxUpdateIter(c, Options{}) {
		t.Fatalf("uncapped slide took %d passes; the input no longer exercises the cap", long.UpdateIterations)
	}
	for _, mode := range []UpdateMode{Jacobi, GaussSeidel, EventDriven} {
		r, err := MinTc(c, Options{Update: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Schedule.Tc != long.Schedule.Tc {
			t.Errorf("%v: Tc %.17g, uncapped %.17g", mode, r.Schedule.Tc, long.Schedule.Tc)
		}
		for i := range r.D {
			if math.Abs(r.D[i]-long.D[i]) > Eps {
				t.Errorf("%v: D[%d] = %g, uncapped %g", mode, i, r.D[i], long.D[i])
			}
		}
		if res := PropagationResidual(c, r.Schedule, r.D); res > Eps {
			t.Errorf("%v: propagation residual %g", mode, res)
		}
		an, err := CheckTc(c, r.Schedule, Options{})
		if err != nil || !an.Feasible {
			t.Fatalf("%v: schedule fails CheckTc: %v %+v", mode, err, an)
		}
		for i := range r.D {
			if r.D[i] != an.D[i] {
				t.Errorf("%v: D[%d] = %g, CheckTc's least fixpoint %g", mode, i, r.D[i], an.D[i])
			}
		}
	}
}
