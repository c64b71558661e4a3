package mintc_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mintc"
)

func TestPublicQuickstart(t *testing.T) {
	c := mintc.NewCircuit(2)
	a := c.AddLatch("A", 0, 10, 10)
	b := c.AddLatch("B", 1, 10, 10)
	c.AddPath(a, b, 20)
	c.AddPath(b, a, 60)
	res, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Tc <= 0 {
		t.Fatalf("Tc = %g", res.Schedule.Tc)
	}
	an, err := mintc.CheckTc(c, res.Schedule, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("optimal schedule infeasible: %v", an.Violations)
	}
}

func TestPublicEnginesAgree(t *testing.T) {
	c := mintc.PaperExample1(80)
	lp, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := mintc.MinTcMCR(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lp.Schedule.Tc-ratio.Tc) > 1e-6 {
		t.Errorf("LP %g vs MCR %g", lp.Schedule.Tc, ratio.Tc)
	}
	if math.Abs(lp.Schedule.Tc-110) > 1e-6 {
		t.Errorf("Example1(80) Tc = %g, want 110", lp.Schedule.Tc)
	}
}

func TestPublicBaselinesOrdering(t *testing.T) {
	c := mintc.PaperExample2()
	opt, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nr, err := mintc.MinTcNRIP(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	et, err := mintc.MinTcEdgeTriggered(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(opt.Schedule.Tc <= nr.Schedule.Tc+1e-9 && nr.Schedule.Tc <= et.Schedule.Tc+1e-9) {
		t.Errorf("ordering violated: MLP %g, NRIP %g, ETTF %g",
			opt.Schedule.Tc, nr.Schedule.Tc, et.Schedule.Tc)
	}
}

func TestPublicParseRenderRoundTrip(t *testing.T) {
	c := mintc.PaperGaAsMIPS()
	var buf bytes.Buffer
	if err := mintc.WriteCircuit(&buf, c); err != nil {
		t.Fatal(err)
	}
	back, err := mintc.ParseCircuitString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mintc.MinTc(back, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Schedule.Tc-4.4) > 1e-6 {
		t.Errorf("GaAs Tc after round trip = %g, want 4.4", res.Schedule.Tc)
	}
	dia := mintc.RenderDiagram(back, res.Schedule, res.D, mintc.RenderOptions{})
	if !strings.Contains(dia, "Tc = 4.4") {
		t.Error("diagram missing Tc")
	}
	svg := mintc.RenderSVG(back, res.Schedule, res.D, mintc.RenderOptions{})
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("SVG render broken")
	}
}

func TestPublicSimulate(t *testing.T) {
	c := mintc.PaperExample1(120)
	res, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := mintc.Simulate(c, res.Schedule, mintc.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Violations) != 0 || tr.ConvergedAt < 0 {
		t.Errorf("simulation at optimum: violations=%v converged=%d", tr.Violations, tr.ConvergedAt)
	}
}

func TestPublicConstantsAndKinds(t *testing.T) {
	if mintc.Latch == mintc.FlipFlop {
		t.Error("element kinds collide")
	}
	if mintc.Jacobi == mintc.GaussSeidel || mintc.GaussSeidel == mintc.EventDriven {
		t.Error("update modes collide")
	}
	if mintc.PaperGaAsTargetTc != 4.0 {
		t.Errorf("target Tc = %g", mintc.PaperGaAsTargetTc)
	}
}

func TestPublicFixedTcInfeasible(t *testing.T) {
	c := mintc.PaperExample1(80)
	if _, err := mintc.MinTc(c, mintc.Options{FixedTc: 90}); !errors.Is(err, mintc.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestPublicExampleCurve(t *testing.T) {
	for d := 0.0; d <= 140; d += 20 {
		r, err := mintc.MinTc(mintc.PaperExample1(d), mintc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := mintc.PaperExample1OptimalTc(d); math.Abs(r.Schedule.Tc-want) > 1e-6 {
			t.Errorf("Δ41=%g: %g vs %g", d, r.Schedule.Tc, want)
		}
	}
}

func TestPublicFig1(t *testing.T) {
	c := mintc.PaperFig1()
	if c.K() != 4 || c.L() != 11 {
		t.Errorf("Fig1 structure: k=%d l=%d", c.K(), c.L())
	}
	if _, err := mintc.MinTc(c, mintc.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicLexAndParametric(t *testing.T) {
	c := mintc.PaperExample1(80)
	r, err := mintc.MinTcLex(c, mintc.Options{}, mintc.MaxPhaseWidths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Schedule.Tc-110) > 1e-6 {
		t.Errorf("lex Tc = %g", r.Schedule.Tc)
	}
	segs, err := mintc.ParametricDelay(c, mintc.Options{}, 3, 0, 150)
	if err != nil {
		t.Fatal(err)
	}
	bps := mintc.Breakpoints(segs)
	if len(bps) != 2 || math.Abs(bps[0]-20) > 1e-6 || math.Abs(bps[1]-100) > 1e-6 {
		t.Errorf("breakpoints = %v", bps)
	}
}

// TestPublicOverlayWhatIf: repeated what-if analyses over one frozen
// snapshot — the optimal GaAs schedule passes, a grossly slowed path
// fails it, and the snapshot itself is untouched by either.
func TestPublicOverlayWhatIf(t *testing.T) {
	c := mintc.PaperGaAsMIPS()
	cc, err := mintc.Freeze(c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mintc.MinTcOverlay(cc.Overlay(), mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := mintc.CheckTcOverlay(cc.Overlay(), r.Schedule, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("optimal GaAs schedule rejected: %v", an.Violations)
	}
	slow := cc.Overlay().With(0, c.Paths()[0].Delay+10*r.Schedule.Tc)
	an, err = mintc.CheckTcOverlay(slow, r.Schedule, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Fatal("a path slowed by ten cycles still passes the optimal schedule")
	}
	if got := cc.Circuit().Paths()[0].Delay; got != c.Paths()[0].Delay {
		t.Errorf("snapshot delay %g after the what-if, want %g", got, c.Paths()[0].Delay)
	}
}

func TestPublicNormalizePhases(t *testing.T) {
	c := mintc.PaperExample1(80)
	r, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nc, ns, perm, err := mintc.NormalizePhases(c, r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != 2 || nc.K() != 2 {
		t.Fatalf("normalize output malformed: perm=%v", perm)
	}
	an, err := mintc.CheckTc(nc, ns, mintc.Options{})
	if err != nil || !an.Feasible {
		t.Errorf("normalized schedule infeasible: %v %v", err, an)
	}
}

func TestPublicSimplifyAndLump(t *testing.T) {
	c := mintc.NewCircuit(2)
	a := c.AddLatch("A", 0, 1, 2)
	b := c.AddLatch("B", 1, 1, 2)
	c.AddPath(a, b, 20)
	c.AddPath(a, b, 15) // dominated
	c.AddPath(b, a, 10)
	s, removed := mintc.Simplify(c)
	if removed != 1 || len(s.Paths()) != 2 {
		t.Errorf("simplify: removed=%d paths=%d", removed, len(s.Paths()))
	}
	lumped, mapping := mintc.LumpEquivalent(c)
	if lumped.L() > c.L() || len(mapping) != c.L() {
		t.Errorf("lump: l=%d mapping=%v", lumped.L(), mapping)
	}
}

func TestPublicStabilityWindowsAndMonteCarlo(t *testing.T) {
	c := mintc.PaperExample1(80)
	r, err := mintc.MinTc(c, mintc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := mintc.StabilityWindows(c, r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("windows = %d", len(ws))
	}
	mc, err := mintc.SimulateMonteCarlo(c, r.Schedule, mintc.MCConfig{Trials: 10}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if mc.FailingTrials != 0 {
		t.Errorf("MC failures at feasible schedule: %+v", mc)
	}
}
