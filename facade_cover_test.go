package mintc_test

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"mintc"
)

// TestFacadeIOWrappers exercises the reader/writer wrappers of the
// public API (the string variants are covered elsewhere).
func TestFacadeIOWrappers(t *testing.T) {
	c := mintc.PaperExample1(60)
	var buf bytes.Buffer
	if err := mintc.WriteCircuit(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := mintc.ParseCircuit(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.L() != c.L() {
		t.Fatal("circuit reader round trip broken")
	}

	sc := mintc.SymmetricSchedule(2, 120, 0.5)
	buf.Reset()
	if err := mintc.WriteSchedule(&buf, sc); err != nil {
		t.Fatal(err)
	}
	sc2, err := mintc.ParseSchedule(bytes.NewReader(buf.Bytes()), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Equal(sc2, 1e-9) {
		t.Fatal("schedule reader round trip broken")
	}
}

func TestFacadeRenderClockAndDOT(t *testing.T) {
	sc := mintc.SymmetricSchedule(3, 90, 0.4)
	out := mintc.RenderClock(sc, []string{"a", "b", "c"}, mintc.RenderOptions{Width: 30})
	if !strings.Contains(out, "Tc = 90") || !strings.Contains(out, "a") {
		t.Errorf("clock render:\n%s", out)
	}
	var buf bytes.Buffer
	if err := mintc.WriteDOT(&buf, mintc.PaperExample1(80), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "digraph") {
		t.Error("DOT wrapper broken")
	}
}

func TestFacadeFrequencySearchAndTopLoops(t *testing.T) {
	c := mintc.PaperExample1(80)
	fs, err := mintc.MinTcFrequencySearch(c, 0.5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Tc < 110-1e-6 {
		t.Errorf("frequency search Tc %g below the optimum 110", fs.Tc)
	}
	loops, err := mintc.TopLoops(c, mintc.Options{}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1 || math.Abs(loops[0].Ratio-110) > 1e-9 {
		t.Errorf("loops = %+v", loops)
	}
}

func TestFacadeParseNetlist(t *testing.T) {
	src := `
clock 1
latch A phase 1 setup 1 dq 2 d x q y
gate g in y out x intrinsic 5
`
	nl, err := mintc.ParseNetlistString(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Gates) != 1 {
		t.Fatal("netlist string parse broken")
	}
	nl2, err := mintc.ParseNetlist(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := nl2.Extract(mintc.LinearDelay, mintc.IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Latch self-loop: Tc >= DQ(2) + 5 = 7 (the setup constraint only
	// bounds the phase width, which fits inside Tc).
	if math.Abs(r.Schedule.Tc-7) > 1e-9 {
		t.Errorf("Tc = %g, want 7", r.Schedule.Tc)
	}
}

func TestFacadeHoldDesignOption(t *testing.T) {
	c, err := mintc.ParseCircuitString(`
clock 2
latch A phase 1 setup 1 dq 2
latch B phase 2 setup 1 dq 2 hold 8
path A -> B delay 30 min 0.5
path B -> A delay 10
`)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mintc.MinTc(c, mintc.Options{DesignForHold: true})
	if err != nil {
		t.Fatal(err)
	}
	an, err := mintc.CheckTc(c, r.Schedule, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("hold-aware façade design infeasible: %v", an.Violations)
	}
}

func TestFacadeMCRSolverAndReoptimize(t *testing.T) {
	c := mintc.PaperExample1(0)
	s, err := mintc.NewMCRSolver(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetDelay(3, 120)
	r, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Tc-140) > 1e-6 {
		t.Errorf("solver Tc = %g, want 140", r.Tc)
	}

	c2 := mintc.PaperExample1(50)
	base, err := mintc.MinTc(c2, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc, _, err := base.Reoptimize(3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tc-100) > 1e-6 {
		t.Errorf("reoptimized Tc = %g, want 100", tc)
	}
}

func TestFacadeMaxMargin(t *testing.T) {
	c := mintc.PaperExample1(80)
	r, err := mintc.MaxMarginSchedule(c, mintc.Options{}, 132)
	if err != nil {
		t.Fatal(err)
	}
	if r.Margin <= 0 {
		t.Errorf("margin = %g, want positive at relaxed Tc", r.Margin)
	}
	an, err := mintc.CheckTc(c, r.Schedule, mintc.Options{})
	if err != nil || !an.Feasible {
		t.Fatalf("margin schedule rejected: %v %v", err, an)
	}
}

func TestFacadeRepairSchedule(t *testing.T) {
	c := mintc.PaperExample1(80)
	start := mintc.SymmetricSchedule(2, 60, 0.5)
	sc, alpha, err := mintc.RepairSchedule(c, start, mintc.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alpha <= 1 || sc.Tc < 110-1e-6 {
		t.Errorf("repair: alpha=%g Tc=%g", alpha, sc.Tc)
	}
}

func TestFacadeSweepDelays(t *testing.T) {
	cc, err := mintc.Freeze(mintc.PaperExample1(0))
	if err != nil {
		t.Fatal(err)
	}
	tcs, errs := mintc.SweepDelays(context.Background(), cc, mintc.Options{}, 3, []float64{0, 60, 120})
	want := []float64{80, 100, 140}
	for i := range tcs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if math.Abs(tcs[i]-want[i]) > 1e-6 {
			t.Errorf("sweep[%d] = %g, want %g", i, tcs[i], want[i])
		}
	}
}
