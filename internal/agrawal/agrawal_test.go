package agrawal

import (
	"math/rand"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/gen"
)

func TestUpperBoundsOptimal(t *testing.T) {
	for d41 := 0.0; d41 <= 140; d41 += 20 {
		c := circuits.Example1(d41)
		r, err := minTc(c, 0.5, 1e-7)
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d41, err)
		}
		opt := circuits.Example1OptimalTc(d41)
		if r.Tc < opt-1e-4 {
			t.Errorf("Δ41=%g: search Tc %g below proven optimum %g", d41, r.Tc, opt)
		}
		// The returned schedule must actually pass the analysis.
		an, err := core.CheckTc(c, r.Schedule, core.Options{})
		if err != nil || !an.Feasible {
			t.Errorf("Δ41=%g: returned schedule infeasible", d41)
		}
		// And shrinking slightly must fail (tight search).
		an, err = core.CheckTc(c, core.SymmetricSchedule(2, r.Tc*0.995, 0.5), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if an.Feasible {
			t.Errorf("Δ41=%g: search not tight", d41)
		}
	}
}

func TestDutyFactorMatters(t *testing.T) {
	// A wider duty factor gives latches longer transparency: the
	// fixed-shape search should do no worse with duty 0.5 -> 0.9 on
	// Example 1 (wider phases help borrowing there).
	c := circuits.Example1(80)
	narrow, err := minTc(c, 0.3, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := minTc(c, 0.9, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Tc > narrow.Tc+1e-6 {
		t.Errorf("duty 0.9 Tc %g worse than duty 0.3 %g on a borrowing-bound circuit", wide.Tc, narrow.Tc)
	}
}

func TestGapVersusLP(t *testing.T) {
	// On random circuits the frequency search never beats the LP and
	// sometimes loses strictly (the paper's methodological point).
	rng := rand.New(rand.NewSource(2024))
	strictly := 0
	compared := 0
	for iter := 0; iter < 40; iter++ {
		c := gen.Random(rng, gen.RandomConfig{MaxSyncs: 8})
		opt, err := core.MinTc(c, core.Options{})
		if err != nil {
			continue
		}
		r, err := minTc(c, 0.5, 1e-7)
		if err != nil {
			continue
		}
		compared++
		if r.Tc < opt.Schedule.Tc-1e-4 {
			t.Fatalf("iter %d: search %g beat the LP optimum %g", iter, r.Tc, opt.Schedule.Tc)
		}
		if r.Tc > opt.Schedule.Tc+1e-4 {
			strictly++
		}
	}
	if compared < 10 {
		t.Fatalf("only %d comparisons", compared)
	}
	if strictly == 0 {
		t.Error("fixed-shape search never strictly worse; comparison vacuous")
	}
}

func TestValidation(t *testing.T) {
	c := circuits.Example1(80)
	if _, err := minTc(c, 0, 1e-6); err == nil {
		t.Error("zero duty accepted")
	}
	if _, err := minTc(c, 1.5, 1e-6); err == nil {
		t.Error("duty > 1 accepted")
	}
	if _, err := minTc(core.NewCircuit(1), 0.5, 1e-6); err == nil {
		t.Error("invalid circuit accepted")
	}
}

func TestProbesBounded(t *testing.T) {
	c := circuits.GaAsMIPS()
	r, err := minTc(c, 0.45, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if r.Probes > 200 {
		t.Errorf("probes = %d, binary search out of control", r.Probes)
	}
	if r.Tc < 4.4-1e-6 {
		t.Errorf("GaAs fixed-shape Tc %g below the true optimum 4.4", r.Tc)
	}
}

// minTc freezes c and searches its empty overlay.
func minTc(c *core.Circuit, duty, tol float64) (*Result, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return MinTc(cc.Overlay(), duty, tol)
}
