package circuits

import (
	"context"
	"math"
	"strings"
	"testing"

	"mintc/internal/core"
	"mintc/internal/nrip"
)

func TestExample1Structure(t *testing.T) {
	c := Example1(60)
	if c.K() != 2 || c.L() != 4 || len(c.Paths()) != 4 {
		t.Fatalf("k=%d l=%d paths=%d, want 2/4/4", c.K(), c.L(), len(c.Paths()))
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Latch phases: L1,L3 on phi1; L2,L4 on phi2.
	wantPhase := []int{0, 1, 0, 1}
	for i, w := range wantPhase {
		if c.Sync(i).Phase != w {
			t.Errorf("latch %d phase = %d, want %d", i+1, c.Sync(i).Phase, w)
		}
	}
	// All setup/DQ are 10.
	for i, s := range c.Syncs() {
		if s.Setup != 10 || s.DQ != 10 {
			t.Errorf("latch %d setup/DQ = %g/%g, want 10/10", i+1, s.Setup, s.DQ)
		}
	}
}

func TestExample1PaperCycleTimes(t *testing.T) {
	// The three timing diagrams of Fig. 6.
	for _, tc := range []struct{ d41, want float64 }{{80, 110}, {100, 120}, {120, 140}} {
		r, err := core.MinTc(Example1(tc.d41), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Schedule.Tc-tc.want) > 1e-6 {
			t.Errorf("Δ41=%g: Tc = %g, want %g (paper Fig. 6)", tc.d41, r.Schedule.Tc, tc.want)
		}
	}
}

func TestExample1OptimalTcFormula(t *testing.T) {
	// The analytic formula must match the LP on a dense sweep.
	for d41 := 0.0; d41 <= 150; d41 += 2.5 {
		r, err := core.MinTc(Example1(d41), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := Example1OptimalTc(d41); math.Abs(r.Schedule.Tc-want) > 1e-6 {
			t.Errorf("Δ41=%g: LP %g vs formula %g", d41, r.Schedule.Tc, want)
		}
	}
}

func TestExample1Fig7Breakpoints(t *testing.T) {
	// Paper Fig. 7 narrative: flat until 20, slope 1/2 until 100,
	// slope 1 beyond.
	if Example1OptimalTc(0) != 80 || Example1OptimalTc(20) != 80 {
		t.Error("flat segment wrong")
	}
	if Example1OptimalTc(60) != 100 {
		t.Error("midpoint of slope-1/2 segment wrong")
	}
	if got := Example1OptimalTc(100); got != 120 {
		t.Errorf("second breakpoint = %g, want 120", got)
	}
	if got := Example1OptimalTc(120) - Example1OptimalTc(110); math.Abs(got-10) > 1e-12 {
		t.Errorf("slope beyond 100 = %g per 10ns, want 10", got)
	}
	if got := Example1OptimalTc(60) - Example1OptimalTc(40); math.Abs(got-10) > 1e-12 {
		t.Errorf("slope in borrowing region = %g per 20ns, want 10", got)
	}
}

func TestFig1MatchesAppendixStructure(t *testing.T) {
	c := Fig1(DefaultFig1Delays(), 2, 3)
	if c.K() != 4 || c.L() != 11 || len(c.Paths()) != 18 {
		t.Fatalf("k=%d l=%d paths=%d, want 4/11/18", c.K(), c.L(), len(c.Paths()))
	}
	// The appendix's K matrix (1-based rows/cols):
	//   0 0 1 1
	//   1 0 1 1
	//   1 1 0 0
	//   0 1 1 0
	want := [][]int{
		{0, 0, 1, 1},
		{1, 0, 1, 1},
		{1, 1, 0, 0},
		{0, 1, 1, 0},
	}
	got := c.KMatrix()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("K[%d][%d] = %d, want %d (appendix)", i+1, j+1, got[i][j], want[i][j])
			}
		}
	}
	// Setup-constraint phase groups from the appendix:
	// phi1: 1,2,8; phi2: 6,7,11; phi3: 4,5,10; phi4: 3,9.
	groups := map[int][]int{0: {1, 2, 8}, 1: {6, 7, 11}, 2: {4, 5, 10}, 3: {3, 9}}
	for phase, latches := range groups {
		for _, n := range latches {
			if got := c.Sync(n - 1).Phase; got != phase {
				t.Errorf("latch %d phase = phi%d, want phi%d", n, got+1, phase+1)
			}
		}
	}
}

func TestFig1AppendixPropagationSources(t *testing.T) {
	// Fanin sets per the appendix's propagation constraints
	// (with the OCR-garbled D4 term resolved to latch 3; see Fig1 doc).
	want := map[int][]int{
		1:  {},
		2:  {4, 5},
		3:  {8},
		4:  {1, 3},
		5:  {6, 7},
		6:  {4, 5},
		7:  {9, 10},
		8:  {6, 7},
		9:  {6, 7},
		10: {11},
		11: {9, 10},
	}
	c := Fig1(DefaultFig1Delays(), 2, 3)
	for latch, sources := range want {
		var got []int
		for _, pi := range c.Fanin(latch - 1) {
			got = append(got, c.Paths()[pi].From+1)
		}
		if len(got) != len(sources) {
			t.Errorf("latch %d fanin = %v, want %v", latch, got, sources)
			continue
		}
		seen := map[int]bool{}
		for _, g := range got {
			seen[g] = true
		}
		for _, s := range sources {
			if !seen[s] {
				t.Errorf("latch %d missing source %d (got %v)", latch, s, got)
			}
		}
	}
}

func TestFig1NinePhaseShiftOperators(t *testing.T) {
	// The appendix lists exactly nine S operators; each corresponds to
	// a distinct I/O phase pair. Count distinct (p_from, p_to) pairs.
	c := Fig1(DefaultFig1Delays(), 2, 3)
	pairs := map[[2]int]bool{}
	for _, p := range c.Paths() {
		pairs[[2]int{c.Sync(p.From).Phase, c.Sync(p.To).Phase}] = true
	}
	if len(pairs) != 9 {
		t.Errorf("distinct phase pairs = %d, want 9", len(pairs))
	}
}

func TestFig1SolvesAndIsFeasible(t *testing.T) {
	c := Fig1(DefaultFig1Delays(), 2, 3)
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.CheckTc(c, r.Schedule, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("optimal Fig.1 schedule infeasible: %v", an.Violations)
	}
}

func TestExample2NRIPGapAbout35Percent(t *testing.T) {
	c := Example2()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Schedule.Tc-Example2OptimalTc) > 1e-6 {
		t.Fatalf("Example2 Tc = %g, want %g", r.Schedule.Tc, Example2OptimalTc)
	}
	nr, err := nrip.MinTcCtx(context.Background(), c.MustFreeze().Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gap := nrip.Gap(nr.Schedule.Tc, r.Schedule.Tc)
	// Paper: "the cycle time found by the NRIP algorithm is
	// significantly higher (35%) than the optimal cycle time".
	if gap < 0.30 || gap > 0.40 {
		t.Errorf("NRIP gap = %.1f%%, want ~35%%", gap*100)
	}
}

func TestGaAsStructureMatchesPaper(t *testing.T) {
	c := GaAsMIPS()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.K() != 3 {
		t.Errorf("k = %d, want 3 (three-phase clock)", c.K())
	}
	if c.L() != 18 {
		t.Errorf("l = %d, want 18 synchronizers", c.L())
	}
	latches, ffs := 0, 0
	for _, s := range c.Syncs() {
		switch s.Kind {
		case core.Latch:
			latches++
		case core.FlipFlop:
			ffs++
		}
	}
	if latches != 15 || ffs != 3 {
		t.Errorf("latches=%d ffs=%d, want 15/3 (paper: '15 of which are level-sensitive latches')", latches, ffs)
	}
	// K13 = K31 = 0: no direct paths between phi1 and phi3.
	km := c.KMatrix()
	if km[0][2] != 0 || km[2][0] != 0 {
		t.Errorf("K13/K31 = %d/%d, want 0/0", km[0][2], km[2][0])
	}
}

func TestGaAs91Constraints(t *testing.T) {
	c := GaAsMIPS()
	p, _, _ := core.BuildLP(c, core.Options{})
	if p.NumConstraints() != 91 {
		t.Errorf("constraints = %d, want 91 (paper §V)", p.NumConstraints())
	}
	if bound := core.ConstraintCountBound(c); p.NumConstraints() > bound {
		t.Errorf("constraints %d exceed paper bound %d", p.NumConstraints(), bound)
	}
}

func TestGaAsOptimalTc(t *testing.T) {
	c := GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Schedule.Tc-4.4) > 1e-6 {
		t.Errorf("Tc = %g, want 4.4 ns (paper: 10%% above the 4 ns target)", r.Schedule.Tc)
	}
	if rel := r.Schedule.Tc/GaAsTargetTc - 1; math.Abs(rel-0.10) > 1e-6 {
		t.Errorf("Tc is %.1f%% above target, want 10%%", rel*100)
	}
}

func TestGaAsPhi3OverlappedByPhi1(t *testing.T) {
	// Paper Fig. 11: "Phase phi3 in the optimal clock schedule is
	// completely overlapped by phi1". Check containment modulo Tc.
	c := GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := r.Schedule
	s3 := math.Mod(sc.S[2], sc.Tc)
	e3 := s3 + sc.T[2]
	s1 := math.Mod(sc.S[0], sc.Tc)
	e1 := s1 + sc.T[0]
	if !(s3 >= s1-core.Eps && e3 <= e1+core.Eps) {
		t.Errorf("phi3 [%.3f,%.3f) not inside phi1 [%.3f,%.3f) (mod Tc)", s3, e3, s1, e1)
	}
}

func TestGaAsTableITransistorCounts(t *testing.T) {
	c := GaAsMIPS()
	want := map[string]string{
		"Register File (RF)":            "16,085",
		"Arithmetic/Logic Unit (ALU)":   "3419",
		"Shifter":                       "1848",
		"Integer Multiply/Divide (IMD)": "6874",
		"Load Aligner":                  "1922",
		"Total":                         "30,148",
	}
	for k, v := range want {
		if c.Meta[k] != v {
			t.Errorf("Table I %q = %q, want %q", k, c.Meta[k], v)
		}
	}
}

func TestGaAsScheduleFeasibleAndIterationFree(t *testing.T) {
	c := GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.CheckTc(c, r.Schedule, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("GaAs optimal schedule infeasible: %v", an.Violations)
	}
	if r.UpdateIterations > 5 {
		t.Errorf("update iterations = %d, paper reports 2-3 typical", r.UpdateIterations)
	}
}

func TestExample2DelayKeysComplete(t *testing.T) {
	// Every Fig.1 path key must be present in the Example 2 table.
	d := Example2Delays()
	c := Fig1(d, 2, 3)
	for _, p := range c.Paths() {
		if p.Delay <= 0 {
			t.Errorf("path %s has delay %g; missing key?", p.Label, p.Delay)
		}
	}
	if !strings.HasPrefix(c.SyncName(0), "L") {
		t.Error("latch naming broken")
	}
}

func TestGaAsWithChipCrossings(t *testing.T) {
	// Zero penalty is exactly the MCM model.
	same := GaAsWithChipCrossings(0)
	r0, err := core.MinTc(same, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0.Schedule.Tc-4.4) > 1e-9 {
		t.Errorf("zero-penalty Tc = %g, want 4.4", r0.Schedule.Tc)
	}
	// Only the three cache paths gain delay.
	base := GaAsMIPS()
	bumped := GaAsWithChipCrossings(0.5)
	changed := 0
	for i := range base.Paths() {
		d0, d1 := base.Paths()[i].Delay, bumped.Paths()[i].Delay
		if d1 != d0 {
			changed++
			if math.Abs(d1-d0-1.0) > 1e-12 { // 2 crossings × 0.5
				t.Errorf("path %d gained %g, want 1.0", i, d1-d0)
			}
		}
	}
	if changed != 3 {
		t.Errorf("changed paths = %d, want 3 (I-cache, D-cache, store data)", changed)
	}
	// Structure preserved.
	if bumped.L() != base.L() || bumped.K() != base.K() {
		t.Error("crossing wrapper changed structure")
	}
}
