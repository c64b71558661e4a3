package ettf

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
)

func TestMinTcUpperBoundsExact(t *testing.T) {
	for d41 := 0.0; d41 <= 140; d41 += 10 {
		c := circuits.Example1(d41)
		et, err := minTc(c, core.Options{})
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d41, err)
		}
		opt := circuits.Example1OptimalTc(d41)
		if et.Schedule.Tc < opt-1e-6 {
			t.Errorf("Δ41=%g: edge-triggered Tc %g below exact optimum %g", d41, et.Schedule.Tc, opt)
		}
	}
}

func TestEdgeTriggeredScheduleIsConservative(t *testing.T) {
	// Every ettf schedule must pass the exact analysis: closing-edge
	// launch makes the approximation strictly pessimistic.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		c := randomCircuit(rng)
		et, err := minTc(c, core.Options{})
		if err != nil {
			continue // infeasible under approximation: fine
		}
		an, err := core.CheckTc(c, et.Schedule, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !an.Feasible {
			t.Fatalf("iter %d: edge-triggered schedule fails exact analysis: %v\nschedule: %v",
				iter, an.Violations, et.Schedule)
		}
	}
}

func TestFFOnlyCircuitMatchesExact(t *testing.T) {
	// For pure flip-flop circuits the approximation is exact, so the
	// baseline must agree with MinTc.
	c := core.NewCircuit(1)
	a := c.AddFF("A", 0, 2, 1)
	b := c.AddFF("B", 0, 2, 1)
	c.AddPath(a, b, 10)
	c.AddPath(b, a, 6)
	et, err := minTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(et.Schedule.Tc-opt.Schedule.Tc) > 1e-6 {
		t.Errorf("FF-only: ettf %g != exact %g", et.Schedule.Tc, opt.Schedule.Tc)
	}
}

func TestSingleStageBoundExample1(t *testing.T) {
	// Closing-edge launch plus closing-edge capture on Example 1 at
	// Δ41 = 0: Tc is bounded below by the two-cycle loop sum
	// (100 + Δ41) and by stage structure; verify the known value 120.
	c := circuits.Example1(0)
	et, err := minTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(et.Schedule.Tc-120) > 1e-6 {
		t.Errorf("ettf Tc = %g, want 120", et.Schedule.Tc)
	}
}

func TestOptionsRespected(t *testing.T) {
	c := circuits.Example1(40)
	base, err := minTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := minTc(c, core.Options{MinPhaseWidth: 40, MinSeparation: 5})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Schedule.Tc < base.Schedule.Tc {
		t.Errorf("constrained Tc %g < base %g", wide.Schedule.Tc, base.Schedule.Tc)
	}
	for i, w := range wide.Schedule.T {
		if w < 40-1e-9 {
			t.Errorf("phase %d width %g < 40", i, w)
		}
	}
}

func TestValidateRejected(t *testing.T) {
	if _, err := minTc(core.NewCircuit(1), core.Options{}); err == nil {
		t.Fatal("invalid circuit accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	c := circuits.Example1(40)
	et, err := minTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if et.NumConstraints == 0 || et.Pivots <= 0 {
		t.Errorf("stats missing: %+v", et)
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
