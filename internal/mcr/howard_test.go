package mcr

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
	"mintc/internal/obs"
)

// TestUniformRingProbes pins the search cost on uniform two-phase rings
// (optimum 2·(DQ+d) = 64 for every length). Plain witness jumping
// crawled through nearly critical chains here — 583 probes at 10000
// latches, 121.8M relaxations at 40000 — because each early witness
// is only a few edges longer than the last; the policy-iteration step
// lands on the optimum after one infeasible probe. The round bound pins
// the stable-policy warm start: from the infeasible probe's potentials
// the feasible probe at the optimum walks a correction wave around the
// ring one node per round (8210 rounds at 40000 latches, 10025 for a
// warm re-solve after an edit at 10000).
func TestUniformRingProbes(t *testing.T) {
	sizes := []int{512, 4096, 8192, 10000, 12000, 20000}
	if !testing.Short() {
		sizes = append(sizes, 40000)
	}
	for _, n := range sizes {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			c, err := gen.Ring(2, n, 1, 2, func(int) float64 { return 30 })
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			r, err := solveCtx(obs.With(context.Background(), rec), c, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.Tc != 64 {
				t.Errorf("Tc = %.17g, want 64", r.Tc)
			}
			if r.Probes > 4 {
				t.Errorf("%d probes, want <= 4", r.Probes)
			}
			edges := int64(len(builderFor(c, core.Options{}).edges))
			if relax := rec.Get(obs.ProbeRelaxations); relax >= 25*edges {
				t.Errorf("%d probe relaxations, want < 25 x %d edges", relax, edges)
			}
			if len(r.CriticalArcs) == 0 || math.Abs(r.CriticalRatio-r.Tc) > 1e-9 {
				t.Errorf("critical cycle ratio %g (%d arcs), want Tc %g", r.CriticalRatio, len(r.CriticalArcs), r.Tc)
			}
			if rounds := rec.Get(obs.ProbeRounds); rounds > 64 {
				t.Errorf("%d probe rounds, want <= 64", rounds)
			}

			// A warm re-solve after slowing one stage.
			s, err := newSolver(c, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Solve(); err != nil {
				t.Fatal(err)
			}
			s.SetDelay(0, 45)
			rec = obs.New()
			r, err = s.SolveCtx(obs.With(context.Background(), rec))
			if err != nil {
				t.Fatal(err)
			}
			if want := 4 + 2*(30*float64(n-1)+45)/float64(n); math.Abs(r.Tc-want) > 1e-9*want {
				t.Errorf("after the edit Tc = %.17g, want %.17g", r.Tc, want)
			}
			if rounds := rec.Get(obs.ProbeRounds); rounds > 64 {
				t.Errorf("after the edit %d probe rounds, want <= 64", rounds)
			}
		})
	}
}

// howardCase is one circuit and option set of the bound-soundness
// sweep.
type howardCase struct {
	name string
	c    *core.Circuit
	opts core.Options
}

func howardCases() []howardCase {
	var cs []howardCase
	rng := rand.New(rand.NewSource(1414))
	for i := 0; i < 60; i++ {
		c := randomCircuit(rng)
		sk := make([]float64, c.K())
		for p := range sk {
			sk[p] = rng.Float64() * 4
		}
		cs = append(cs,
			howardCase{fmt.Sprintf("rand%d", i), c, core.Options{}},
			howardCase{fmt.Sprintf("rand%d/width-sep", i), c, core.Options{MinPhaseWidth: 3 + rng.Float64()*10, MinSeparation: rng.Float64() * 5}},
			howardCase{fmt.Sprintf("rand%d/skew", i), c, core.Options{PhaseSkew: sk, Skew: rng.Float64() * 2}},
		)
	}
	for i := 0; i < 30; i++ {
		cs = append(cs, howardCase{fmt.Sprintf("hold%d", i), randomHoldCircuit(rng), core.Options{DesignForHold: true}})
	}
	for _, bm := range append(gen.Suite(), gen.XLarge()...) {
		sk := make([]float64, bm.Circuit.K())
		for p := range sk {
			sk[p] = 0.25 * float64(p+1)
		}
		cs = append(cs,
			howardCase{bm.Name, bm.Circuit, core.Options{}},
			howardCase{bm.Name + "/hold", bm.Circuit, core.Options{DesignForHold: true}},
			howardCase{bm.Name + "/width-sep", bm.Circuit, core.Options{MinPhaseWidth: 7, MinSeparation: 3}},
			howardCase{bm.Name + "/skew", bm.Circuit, core.Options{PhaseSkew: sk, Skew: 0.5}},
		)
	}
	return cs
}

// TestHowardBoundSound checks the policy-iteration bound on every
// infeasible probe of a witness-jumping search — the best policy cycle
// is a real cycle whose ratio never exceeds the optimum — and that the
// search it accelerates keeps every answer of plain witness jumping:
// the same optimum (which bisection and the LP confirm), the same
// infeasible verdicts with certifying witnesses, and the same FixedTc
// outcomes.
func TestHowardBoundSound(t *testing.T) {
	ctx := context.Background()
	checked, infeasible := 0, 0
	for _, hc := range howardCases() {
		// Plain witness jumping, replayed with the policy iteration run
		// alongside: its verdict is the reference, its cycles are
		// checked against the optimum afterwards.
		b := builderFor(hc.c, hc.opts)
		var ratios []float64
		refTc, refInfeasible := 0.0, false
		for iter := 0; ; iter++ {
			if iter > 100000 {
				t.Fatalf("%s: witness jumping did not converge", hc.name)
			}
			_, wit, err := b.probe(ctx, refTc, iter > 0)
			if err != nil {
				t.Fatal(err)
			}
			if wit == nil {
				break
			}
			var sumA, sumB float64
			for _, e := range wit {
				sumA += e.a
				sumB += e.b
			}
			if sumB >= -eps {
				refInfeasible = true
				break
			}
			hr, cyc, _, err := b.howard(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsInf(hr, -1) {
				checkPolicyCycle(t, hc.name, b, cyc, hr)
				ratios = append(ratios, hr)
			}
			refTc = math.Max(sumA/-sumB, refTc+10*eps)
		}

		got, err := Solve(hc.c, hc.opts)
		if refInfeasible {
			infeasible++
			var ie *InfeasibleError
			if !errors.As(err, &ie) {
				t.Fatalf("%s: witness jumping finds infeasibility, Solve says %v", hc.name, err)
			}
			checkInfeasibleWitness(t, hc.name, ie)
			if _, err := solveBinary(hc.c, hc.opts, 1e-9); !errors.Is(err, ErrInfeasible) {
				t.Fatalf("%s: infeasible, bisection says %v", hc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", hc.name, err)
		}
		tol := 1e-9 * (1 + refTc)
		if math.Abs(got.Tc-refTc) > tol {
			t.Errorf("%s: Tc %.12g, witness jumping %.12g", hc.name, got.Tc, refTc)
		}
		for _, r := range ratios {
			checked++
			if r > got.Tc+eps {
				t.Fatalf("%s: policy cycle ratio %.12g exceeds optimum %.12g", hc.name, r, got.Tc)
			}
		}
		bin, err := solveBinary(hc.c, hc.opts, 1e-11*(1+got.Tc))
		if err != nil {
			t.Fatalf("%s: bisection: %v", hc.name, err)
		}
		if math.Abs(bin.Tc-got.Tc) > tol {
			t.Errorf("%s: Tc %.12g, bisection %.12g", hc.name, got.Tc, bin.Tc)
		}
		if hc.c.L() <= 128 {
			lp, err := core.MinTc(hc.c, hc.opts)
			if err != nil {
				t.Fatalf("%s: LP: %v", hc.name, err)
			}
			if math.Abs(lp.Schedule.Tc-got.Tc) > tol {
				t.Errorf("%s: Tc %.12g, LP %.12g", hc.name, got.Tc, lp.Schedule.Tc)
			}
		}
		if got.Tc == 0 {
			continue
		}
		fixed := hc.opts
		fixed.FixedTc = 1.2 * got.Tc
		if r, err := Solve(hc.c, fixed); err != nil || r.Tc != fixed.FixedTc {
			t.Fatalf("%s: FixedTc %g: got %v, %v", hc.name, fixed.FixedTc, r, err)
		}
		fixed.FixedTc = 0.8 * got.Tc
		if _, err := Solve(hc.c, fixed); err == nil {
			t.Fatalf("%s: FixedTc %g below optimum %g accepted", hc.name, fixed.FixedTc, got.Tc)
		}
	}
	if checked < 100 || infeasible == 0 {
		t.Fatalf("only %d policy-iteration bounds and %d infeasible cases checked", checked, infeasible)
	}

	// The FF self-loop of TestSolveInfeasibleFFPair.
	c := core.NewCircuit(1)
	f := c.AddFF("F", 0, 2, 1)
	c.AddPath(f, f, 10)
	if _, err := Solve(c, core.Options{FixedTc: 5}); err == nil {
		t.Fatal("FF self-loop: FixedTc below minimum accepted")
	}
	if r, err := Solve(c, core.Options{}); err != nil || r.Tc != 13 {
		t.Fatalf("FF self-loop: got %v, %v; want Tc 13", r, err)
	}
}

// checkPolicyCycle asserts cyc (pred-walk order) closes in the
// constraint graph and has ratio r.
func checkPolicyCycle(t *testing.T, name string, b *builder, cyc []int32, r float64) {
	t.Helper()
	var sumA, sumB float64
	for i, ei := range cyc {
		e := b.edges[ei]
		if next := b.edges[cyc[(i+1)%len(cyc)]]; next.to != e.from {
			t.Fatalf("%s: policy cycle does not close at arc %d", name, i)
		}
		sumA += e.a
		sumB += e.b
	}
	if sumB >= -eps || sumA/-sumB != r {
		t.Fatalf("%s: policy cycle ratio %g (B=%g), reported %g", name, sumA/-sumB, sumB, r)
	}
}

// checkInfeasibleWitness asserts a structural-infeasibility witness
// closes and certifies: positive constant, no net boundary crossing.
func checkInfeasibleWitness(t *testing.T, name string, ie *InfeasibleError) {
	t.Helper()
	var sumA, sumB float64
	for i, a := range ie.Arcs {
		if ie.Arcs[(i+1)%len(ie.Arcs)].To != a.From {
			t.Fatalf("%s: infeasibility witness does not close at arc %d", name, i)
		}
		sumA += a.A
		sumB += a.B
	}
	if sumA <= eps || sumB < -eps {
		t.Fatalf("%s: infeasibility witness A=%g B=%g does not certify", name, sumA, sumB)
	}
}
