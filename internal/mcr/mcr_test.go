package mcr

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
)

func TestSolveExample1MatchesAnalyticCurve(t *testing.T) {
	for d41 := 0.0; d41 <= 160; d41 += 10 {
		c := circuits.Example1(d41)
		r, err := Solve(c, core.Options{})
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d41, err)
		}
		want := circuits.Example1OptimalTc(d41)
		if math.Abs(r.Tc-want) > 1e-6 {
			t.Errorf("Δ41=%g: Tc = %g, want %g", d41, r.Tc, want)
		}
	}
}

func TestSolveScheduleIsFeasible(t *testing.T) {
	for _, d41 := range []float64{0, 60, 120} {
		c := circuits.Example1(d41)
		r, err := Solve(c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		an, err := core.CheckTc(c, r.Schedule, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !an.Feasible {
			t.Errorf("Δ41=%g: MCR schedule rejected by CheckTc: %v", d41, an.Violations)
		}
	}
}

func TestSolveAgainstLPOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for iter := 0; iter < 120; iter++ {
		c := randomCircuit(rng)
		lpRes, lpErr := core.MinTc(c, core.Options{})
		mcrRes, mcrErr := Solve(c, core.Options{})
		switch {
		case errors.Is(lpErr, core.ErrInfeasible):
			if !errors.Is(mcrErr, ErrInfeasible) {
				t.Fatalf("iter %d: LP infeasible but MCR said %v", iter, mcrErr)
			}
		case lpErr != nil:
			t.Fatalf("iter %d: LP error %v", iter, lpErr)
		default:
			if mcrErr != nil {
				t.Fatalf("iter %d: MCR error %v (LP Tc=%g)", iter, mcrErr, lpRes.Schedule.Tc)
			}
			if math.Abs(lpRes.Schedule.Tc-mcrRes.Tc) > 1e-5*(1+lpRes.Schedule.Tc) {
				t.Fatalf("iter %d: LP Tc %g != MCR Tc %g", iter, lpRes.Schedule.Tc, mcrRes.Tc)
			}
		}
	}
}

func TestSolveBinaryAgreesWithSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		c := randomCircuit(rng)
		exact, err1 := Solve(c, core.Options{})
		approx, err2 := solveBinary(c, core.Options{}, 1e-7)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: engines disagree on feasibility: %v vs %v", iter, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(exact.Tc-approx.Tc) > 1e-5*(1+exact.Tc) {
			t.Fatalf("iter %d: exact %g vs binary %g", iter, exact.Tc, approx.Tc)
		}
	}
}

func TestSolveCriticalLoopReported(t *testing.T) {
	c := circuits.Example1(120) // slope-1 region: Ld arc critical
	r, err := Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CriticalLoop) == 0 {
		t.Fatal("no critical loop reported")
	}
	if math.Abs(r.CriticalRatio-r.Tc) > 1e-6 {
		t.Errorf("critical ratio %g != Tc %g", r.CriticalRatio, r.Tc)
	}
}

func TestSolveInfeasibleFFPair(t *testing.T) {
	// Two FFs on phase 1 and phase 2 with a combinational loop that
	// crosses no cycle boundary in one direction... construct a
	// genuinely infeasible case: an FF on phi1 feeding an FF on phi2
	// and back, where the forward arc (phi1->phi2, C=0) forms a
	// zero-boundary cycle with... both arcs must cross for
	// feasibility; phi1->phi2 has C=0 and phi2->phi1 has C=1, so the
	// cycle crosses once and is feasible. Instead use a same-phase FF
	// self-loop with FixedTc below its requirement.
	c := core.NewCircuit(1)
	f := c.AddFF("F", 0, 2, 1)
	c.AddPath(f, f, 10) // needs Tc >= 13
	if _, err := Solve(c, core.Options{FixedTc: 5}); err == nil {
		t.Fatal("FixedTc below minimum accepted")
	}
	r, err := Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Tc-13) > 1e-9 {
		t.Errorf("Tc = %g, want 13", r.Tc)
	}
}

func TestSolveStructurallyInfeasible(t *testing.T) {
	// A combinational loop within a single phase but between a latch
	// and an FF such that no boundary is crossed: FF(phi2) -> FF(phi1)
	// has C_{2,1}=1 (crosses); FF(phi1)->FF(phi2) has C=0. A
	// zero-crossing positive-constant cycle needs... the FF setup arc
	// into phi1's start from a phi2 departure crosses, so build the
	// impossible case differently: a latch whose setup exceeds what
	// its phase can provide is still feasible by growing Tc. True
	// structural infeasibility: path from FF A (phi1) to FF B (phi2)
	// and back from B to A where... B->A crosses (C=1). Constant
	// cycles with B=0 require a cycle of C=0 arcs: phi strictly
	// increasing along every arc — impossible around a cycle. So pure
	// FF/latch circuits are always feasible at large Tc; structural
	// infeasibility needs FixedTc. Document that by asserting
	// feasibility here.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		c := randomCircuit(rng)
		if _, err := Solve(c, core.Options{}); err != nil && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
}

func TestMinPhaseWidthAndSeparationInMCR(t *testing.T) {
	c := circuits.Example1(80)
	base, err := Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sep, err := Solve(c, core.Options{MinSeparation: 7, MinPhaseWidth: 25})
	if err != nil {
		t.Fatal(err)
	}
	if sep.Tc < base.Tc {
		t.Errorf("constrained Tc %g < base %g", sep.Tc, base.Tc)
	}
	for i, w := range sep.Schedule.T {
		if w < 25-1e-9 {
			t.Errorf("phase %d width %g < 25", i, w)
		}
	}
	// Cross-check against LP with same options.
	lpRes, err := core.MinTc(c, core.Options{MinSeparation: 7, MinPhaseWidth: 25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lpRes.Schedule.Tc-sep.Tc) > 1e-6 {
		t.Errorf("LP %g vs MCR %g with options", lpRes.Schedule.Tc, sep.Tc)
	}
}

func TestFixedTcAboveMinimumKeepsTc(t *testing.T) {
	c := circuits.Example1(80) // Tc* = 110
	r, err := Solve(c, core.Options{FixedTc: 150})
	if err != nil {
		t.Fatal(err)
	}
	if r.Tc != 150 {
		t.Errorf("Tc = %g, want 150 (fixed)", r.Tc)
	}
	an, err := core.CheckTc(c, r.Schedule, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Errorf("fixed-Tc schedule infeasible: %v", an.Violations)
	}
}

func TestProbesCounted(t *testing.T) {
	c := circuits.Example1(80)
	r, err := Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Probes < 1 {
		t.Error("probe count not recorded")
	}
	rb, err := solveBinary(c, core.Options{}, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Probes <= r.Probes {
		t.Logf("binary probes %d, exact probes %d (exact usually needs far fewer)", rb.Probes, r.Probes)
	}
}

// randomCircuit mirrors core's generator (kept local to avoid exporting
// test helpers across packages).
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

func BenchmarkSolveExample1(b *testing.B) {
	c := circuits.Example1(80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(c, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestExplainCertificate(t *testing.T) {
	c := circuits.Example1(120)
	r, err := Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := r.Explain()
	if ex == "" {
		t.Fatal("no certificate for a binding loop")
	}
	for _, want := range []string{"critical constraint loop", "Tc >= ", "140"} {
		if !strings.Contains(ex, want) {
			t.Errorf("certificate missing %q:\n%s", want, ex)
		}
	}
}

func TestExplainEmptyWhenUnbound(t *testing.T) {
	c := circuits.Example1(80) // Tc* = 110
	r, err := Solve(c, core.Options{FixedTc: 200})
	if err != nil {
		t.Fatal(err)
	}
	// At a fixed Tc far above the minimum the first probe succeeds and
	// there is no witness cycle.
	if ex := r.Explain(); ex != "" {
		t.Errorf("unexpected certificate:\n%s", ex)
	}
}

func TestPhaseSkewLPMCRAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(9090))
	for iter := 0; iter < 40; iter++ {
		c := randomCircuit(rng)
		sk := make([]float64, c.K())
		for p := range sk {
			sk[p] = rng.Float64() * 4
		}
		opts := core.Options{PhaseSkew: sk, Skew: rng.Float64() * 2}
		lpRes, err1 := core.MinTc(c, opts)
		mcrRes, err2 := Solve(c, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: feasibility disagreement: %v vs %v", iter, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(lpRes.Schedule.Tc-mcrRes.Tc) > 1e-5*(1+mcrRes.Tc) {
			t.Fatalf("iter %d: LP %g vs MCR %g under phase skew", iter, lpRes.Schedule.Tc, mcrRes.Tc)
		}
	}
}

func TestDesignForHoldLPMCRAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	agreed := 0
	for iter := 0; iter < 50 && agreed < 15; iter++ {
		c := randomHoldCircuit(rng)
		opts := core.Options{DesignForHold: true}
		lpRes, err1 := core.MinTc(c, opts)
		mcrRes, err2 := Solve(c, opts)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("iter %d: feasibility disagreement under hold rows: %v vs %v", iter, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if math.Abs(lpRes.Schedule.Tc-mcrRes.Tc) > 1e-5*(1+mcrRes.Tc) {
			t.Fatalf("iter %d: LP %g vs MCR %g with hold rows", iter, lpRes.Schedule.Tc, mcrRes.Tc)
		}
		agreed++
	}
	if agreed < 8 {
		t.Fatalf("only %d agreements checked", agreed)
	}
}

func randomHoldCircuit(rng *rand.Rand) *core.Circuit {
	k := 2 + rng.Intn(3)
	c := core.NewCircuit(k)
	l := 2 + rng.Intn(6)
	for i := 0; i < l; i++ {
		setup := 1 + rng.Float64()*2
		dq := setup + rng.Float64()*3
		hold := 0.0
		if rng.Float64() < 0.5 {
			hold = rng.Float64() * 4
		}
		c.AddSync(core.Synchronizer{Phase: rng.Intn(k), Kind: core.Latch, Setup: setup, DQ: dq, Hold: hold})
	}
	for e := 0; e < 1+rng.Intn(2*l); e++ {
		d := 1 + rng.Float64()*40
		c.AddPathFull(core.Path{From: rng.Intn(l), To: rng.Intn(l), Delay: d, MinDelay: d * rng.Float64()})
	}
	return c
}
