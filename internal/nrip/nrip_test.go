package nrip

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
)

func TestNRIPBracketsOptimum(t *testing.T) {
	// MLP <= NRIP <= edge-triggered on the Fig. 7 sweep, with genuine
	// borrowing gain.
	for d41 := 0.0; d41 <= 140; d41 += 10 {
		c := circuits.Example1(d41)
		nr, err := minTc(c, core.Options{})
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d41, err)
		}
		opt := circuits.Example1OptimalTc(d41)
		if nr.Schedule.Tc < opt-1e-6 {
			t.Errorf("Δ41=%g: NRIP Tc %g below optimum %g", d41, nr.Schedule.Tc, opt)
		}
		if nr.Schedule.Tc > nr.EdgeTriggeredTc+1e-6 {
			t.Errorf("Δ41=%g: NRIP Tc %g above its edge-triggered start %g", d41, nr.Schedule.Tc, nr.EdgeTriggeredTc)
		}
		if nr.BorrowingGain <= 0 {
			t.Errorf("Δ41=%g: no borrowing gain (ettf %g, nrip %g)", d41, nr.EdgeTriggeredTc, nr.Schedule.Tc)
		}
	}
}

func TestNRIPScheduleIsExactlyFeasible(t *testing.T) {
	for _, d41 := range []float64{0, 60, 120} {
		c := circuits.Example1(d41)
		nr, err := minTc(c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		an, err := core.CheckTc(c, nr.Schedule, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !an.Feasible {
			t.Errorf("Δ41=%g: NRIP schedule fails exact analysis: %v", d41, an.Violations)
		}
	}
}

func TestNRIPIsTight(t *testing.T) {
	// Shrinking the NRIP result by 1% must fail the exact analysis —
	// otherwise the bisection left slack on the table.
	c := circuits.Example1(80)
	nr, err := minTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shrunk := nr.Schedule.Clone()
	f := 0.99
	shrunk.Tc *= f
	for i := range shrunk.S {
		shrunk.S[i] *= f
		shrunk.T[i] *= f
	}
	an, err := core.CheckTc(c, shrunk, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Error("NRIP schedule not tight: 1% shrink still feasible")
	}
}

func TestNRIPRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 60; iter++ {
		c := randomCircuit(rng)
		nr, err := minTc(c, core.Options{})
		if err != nil {
			continue // ettf infeasible or degenerate: skip
		}
		opt, err := core.MinTc(c, core.Options{})
		if err != nil {
			t.Fatalf("iter %d: exact solver failed where NRIP succeeded: %v", iter, err)
		}
		if nr.Schedule.Tc < opt.Schedule.Tc-1e-5 {
			t.Fatalf("iter %d: NRIP %g beat the proven optimum %g", iter, nr.Schedule.Tc, opt.Schedule.Tc)
		}
		an, err := core.CheckTc(c, nr.Schedule, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !an.Feasible {
			t.Fatalf("iter %d: NRIP schedule infeasible: %v", iter, an.Violations)
		}
	}
}

func TestGapHelper(t *testing.T) {
	if g := Gap(135, 100); math.Abs(g-0.35) > 1e-12 {
		t.Errorf("Gap = %g, want 0.35", g)
	}
	if !math.IsInf(Gap(1, 0), 1) {
		t.Error("Gap with zero optimum should be +Inf")
	}
}

func TestProbesRecorded(t *testing.T) {
	c := circuits.Example1(80)
	nr, err := minTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nr.Probes < 2 {
		t.Errorf("probes = %d, want several bisection probes", nr.Probes)
	}
}

func randomCircuit(rng *rand.Rand) *core.Circuit {
	k := 1 + rng.Intn(4)
	c := core.NewCircuit(k)
	l := 2 + rng.Intn(8)
	for i := 0; i < l; i++ {
		setup := 1 + rng.Float64()*4
		dq := setup + rng.Float64()*5
		if rng.Float64() < 0.25 {
			c.AddFF("", rng.Intn(k), setup, rng.Float64()*3)
		} else {
			c.AddLatch("", rng.Intn(k), setup, dq)
		}
	}
	ne := 1 + rng.Intn(2*l)
	for e := 0; e < ne; e++ {
		c.AddPath(rng.Intn(l), rng.Intn(l), rng.Float64()*50)
	}
	return c
}

// minTc freezes c and solves its empty overlay.
func minTc(c *core.Circuit, opts core.Options) (*Result, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return MinTcCtx(context.Background(), cc.Overlay(), opts)
}
