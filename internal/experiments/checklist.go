package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/mcr"
	"mintc/internal/nrip"
)

// Claim is one machine-checked reproduction claim.
type Claim struct {
	ID          string
	Description string
	Pass        bool
	Detail      string
}

// Checklist evaluates every quantitative claim of the reproduction in
// one pass and returns the verdicts — the repository's executable
// summary of EXPERIMENTS.md. All claims must pass; the accompanying
// test enforces it.
func Checklist() ([]Claim, error) {
	var claims []Claim
	add := func(id, desc string, pass bool, detail string, args ...any) {
		claims = append(claims, Claim{ID: id, Description: desc, Pass: pass, Detail: fmt.Sprintf(detail, args...)})
	}

	// Fig. 6: the three cycle times.
	for _, tc := range []struct{ d41, want float64 }{{80, 110}, {100, 120}, {120, 140}} {
		r, err := core.MinTc(circuits.Example1(tc.d41), core.Options{})
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("fig6/d41=%g", tc.d41),
			fmt.Sprintf("Example 1 optimal Tc at Δ41=%g is %g ns", tc.d41, tc.want),
			math.Abs(r.Schedule.Tc-tc.want) < 1e-6,
			"measured %g", r.Schedule.Tc)
	}

	// Fig. 7: breakpoints and slopes from parametric analysis.
	segs, err := core.ParametricDelay(circuits.Example1(0), core.Options{}, 3, 0, 140)
	if err != nil {
		return nil, err
	}
	bps := core.Breakpoints(segs)
	okBp := len(bps) == 2 && math.Abs(bps[0]-20) < 1e-3 && math.Abs(bps[1]-100) < 1e-3
	add("fig7/breakpoints", "Tc(Δ41) breakpoints at 20 and 100 ns", okBp, "measured %v", bps)
	okSlopes := len(segs) == 3 &&
		math.Abs(segs[0].Slope-0) < 1e-6 && math.Abs(segs[1].Slope-0.5) < 1e-6 && math.Abs(segs[2].Slope-1) < 1e-6
	add("fig7/slopes", "segment slopes 0, 1/2, 1", okSlopes, "measured %d segments", len(segs))

	// Fig. 9: NRIP gap ~35%.
	ex2 := circuits.Example2()
	ex2ov := ex2.MustFreeze().Overlay()
	opt2, err := core.MinTcOverlay(ex2ov, core.Options{})
	if err != nil {
		return nil, err
	}
	nr2, err := nrip.MinTcCtx(context.Background(), ex2ov, core.Options{})
	if err != nil {
		return nil, err
	}
	gap := nrip.Gap(nr2.Schedule.Tc, opt2.Schedule.Tc)
	add("fig9/gap", "NRIP ≈35% above optimal on Example 2", gap > 0.30 && gap < 0.40, "measured %.1f%%", gap*100)

	// Fig. 10/11 + Table I: GaAs model.
	gaas := circuits.GaAsMIPS()
	latches, ffs := 0, 0
	for _, s := range gaas.Syncs() {
		if s.Kind == core.Latch {
			latches++
		} else {
			ffs++
		}
	}
	add("fig10/elements", "18 synchronizers: 15 latches + 3 flip-flops",
		gaas.L() == 18 && latches == 15 && ffs == 3, "measured %d/%d/%d", gaas.L(), latches, ffs)
	km := gaas.KMatrix()
	add("fig10/K13", "no direct paths between phi1 and phi3 (K13=K31=0)",
		km[0][2] == 0 && km[2][0] == 0, "K13=%d K31=%d", km[0][2], km[2][0])

	rg, err := core.MinTc(gaas, core.Options{})
	if err != nil {
		return nil, err
	}
	add("fig11/rows", "91 LP constraints", rg.NumConstraints == 91, "measured %d", rg.NumConstraints)
	add("fig11/tc", "optimal Tc = 4.4 ns (10% above the 4 ns target)",
		math.Abs(rg.Schedule.Tc-4.4) < 1e-6, "measured %g", rg.Schedule.Tc)
	s3 := math.Mod(rg.Schedule.S[2], rg.Schedule.Tc)
	s1 := math.Mod(rg.Schedule.S[0], rg.Schedule.Tc)
	overlap := s3 >= s1-core.Eps && s3+rg.Schedule.T[2] <= s1+rg.Schedule.T[0]+core.Eps
	add("fig11/overlap", "phi3 completely overlapped by phi1 (mod Tc)", overlap,
		"phi3 [%.3g,%.3g) vs phi1 [%.3g,%.3g)", s3, s3+rg.Schedule.T[2], s1, s1+rg.Schedule.T[0])
	add("table1/total", "Table I total = 30,148 transistors",
		gaas.Meta["Total"] == "30,148", "meta %q", gaas.Meta["Total"])

	// §IV-V: bound, pivots, iterations, Theorem 1.
	examples := []struct {
		name string
		c    *core.Circuit
	}{
		{"example1", circuits.Example1(80)},
		{"fig1", circuits.Fig1(circuits.DefaultFig1Delays(), 2, 3)},
		{"example2", ex2},
		{"gaas", gaas},
	}
	boundOK, pivotOK, iterOK, agreeOK, residOK := true, true, true, true, true
	for _, e := range examples {
		r, err := core.MinTc(e.c, core.Options{})
		if err != nil {
			return nil, err
		}
		if r.NumConstraints > core.ConstraintCountBound(e.c) {
			boundOK = false
		}
		if float64(r.Pivots) > 3*float64(r.NumConstraints) {
			pivotOK = false
		}
		if r.UpdateIterations > 5 {
			iterOK = false
		}
		m, err := mcr.Solve(e.c, core.Options{})
		if err != nil {
			return nil, err
		}
		if math.Abs(r.Schedule.Tc-m.Tc) > 1e-6*(1+m.Tc) {
			agreeOK = false
		}
		if core.PropagationResidual(e.c, r.Schedule, r.D) > 1e-6 {
			residOK = false
		}
	}
	add("claims/bound", "constraint count within 4k+(F+1)l on all examples", boundOK, "")
	add("claims/pivots", "simplex pivots within 3n on all examples", pivotOK, "")
	add("claims/iterations", "MLP update converges in a handful of iterations", iterOK, "")
	add("claims/theorem1", "LP optimum equals min-cycle-ratio optimum (Theorem 1)", agreeOK, "")
	add("claims/p1", "MLP solutions satisfy the exact nonlinear constraints", residOK, "")

	// Appendix: Fig. 1 constraint structure.
	fig1 := circuits.Fig1(circuits.DefaultFig1Delays(), 2, 3)
	wantK := [][]int{{0, 0, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 0}, {0, 1, 1, 0}}
	gotK := fig1.KMatrix()
	kOK := true
	for i := range wantK {
		for j := range wantK[i] {
			if gotK[i][j] != wantK[i][j] {
				kOK = false
			}
		}
	}
	add("appendix/K", "Fig. 1 K matrix matches the appendix", kOK, "")
	pairs := map[[2]int]bool{}
	for _, p := range fig1.Paths() {
		pairs[[2]int{fig1.Sync(p.From).Phase, fig1.Sync(p.To).Phase}] = true
	}
	add("appendix/pairs", "nine I/O phase pairs (nine phase-shift operators)", len(pairs) == 9, "measured %d", len(pairs))

	return claims, nil
}

// ChecklistReport renders the checklist as text.
func ChecklistReport() (string, error) {
	claims, err := Checklist()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Reproduction checklist (machine-checked)\n\n")
	pass := 0
	for _, c := range claims {
		mark := "FAIL"
		if c.Pass {
			mark = " ok "
			pass++
		}
		fmt.Fprintf(&b, "[%s] %-18s %s", mark, c.ID, c.Description)
		if c.Detail != "" {
			fmt.Fprintf(&b, " — %s", c.Detail)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "\n%d/%d claims pass\n", pass, len(claims))
	return b.String(), nil
}
