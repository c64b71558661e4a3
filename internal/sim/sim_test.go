package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
)

func TestSimConvergesToStaticAnalysis(t *testing.T) {
	for _, d41 := range []float64{0, 40, 80, 120} {
		c := circuits.Example1(d41)
		r, err := core.MinTc(c, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		an, err := core.CheckTc(c, r.Schedule, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Run(context.Background(), frozen(c), r.Schedule, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Violations) != 0 {
			t.Fatalf("Δ41=%g: violations at optimal schedule: %v", d41, tr.Violations)
		}
		if tr.ConvergedAt < 0 {
			t.Fatalf("Δ41=%g: simulation never reached periodic steady state", d41)
		}
		for i := range tr.SteadyD {
			if math.Abs(tr.SteadyD[i]-an.D[i]) > 1e-6 {
				t.Errorf("Δ41=%g: steady D[%d] = %g, static analysis %g", d41, i, tr.SteadyD[i], an.D[i])
			}
		}
	}
}

func TestSimDetectsSetupViolation(t *testing.T) {
	c := circuits.Example1(80) // Tc* = 110
	sc := core.NewSchedule(2)
	sc.Tc = 100
	sc.S = []float64{0, 50}
	sc.T = []float64{50, 50}
	tr, err := Run(context.Background(), frozen(c), sc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Violations) == 0 && tr.ConvergedAt >= 0 {
		t.Fatal("schedule below Tc* simulated clean and stable")
	}
}

func TestSimUnstableLoopDrifts(t *testing.T) {
	// A loop needing 52 ns per cycle run at Tc = 40: each cycle the
	// departure drifts later; the run must not converge and the drift
	// must stay positive.
	c := core.NewCircuit(2)
	a := c.AddLatch("A", 0, 1, 2)
	b := c.AddLatch("B", 1, 1, 2)
	c.AddPath(a, b, 24)
	c.AddPath(b, a, 24)
	sc := core.NewSchedule(2)
	sc.Tc = 40
	sc.S = []float64{0, 20}
	sc.T = []float64{20, 20}
	tr, err := Run(context.Background(), frozen(c), sc, Config{Cycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ConvergedAt >= 0 {
		t.Errorf("unstable loop converged at cycle %d", tr.ConvergedAt)
	}
	if tr.Drift() <= 0 {
		t.Errorf("drift = %g, want positive", tr.Drift())
	}
	if len(tr.Violations) == 0 {
		t.Error("drifting loop produced no setup violations")
	}
}

func TestSimFFLaunchesAtEdge(t *testing.T) {
	c := core.NewCircuit(1)
	f := c.AddFF("F", 0, 1, 0.5)
	l := c.AddLatch("L", 0, 1, 2)
	c.AddPath(f, l, 3)
	c.AddPath(l, f, 3)
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), frozen(c), r.Schedule, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for n := range tr.LocalD {
		if tr.LocalD[n][f] != 0 {
			t.Fatalf("cycle %d: FF local departure %g, want 0", n, tr.LocalD[n][f])
		}
	}
	if len(tr.Violations) != 0 {
		t.Errorf("violations: %v", tr.Violations)
	}
	_ = l
}

func TestSimPerturbedStartConverges(t *testing.T) {
	// From a perturbed initial state the simulation must still settle
	// to the same steady departures (self-stabilization at a feasible
	// schedule with slack).
	c := circuits.Example1(80)
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Run at a slightly relaxed Tc so the critical loop has slack.
	sc := r.Schedule.Clone()
	f := 1.05
	sc.Tc *= f
	for i := range sc.S {
		sc.S[i] *= f
		sc.T[i] *= f
	}
	cold, err := Run(context.Background(), frozen(c), sc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Run(context.Background(), frozen(c), sc, Config{InitialD: []float64{30, 25, 20, 15}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.ConvergedAt < 0 || hot.ConvergedAt < 0 {
		t.Fatal("runs did not converge")
	}
	for i := range cold.SteadyD {
		if math.Abs(cold.SteadyD[i]-hot.SteadyD[i]) > 1e-6 {
			t.Errorf("steady state depends on initial condition at D[%d]: %g vs %g", i, cold.SteadyD[i], hot.SteadyD[i])
		}
	}
}

func TestSimMatchesCheckTcOnRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for iter := 0; iter < 50; iter++ {
		c := randomCircuit(rng)
		r, err := core.MinTc(c, core.Options{})
		if err != nil {
			continue
		}
		an, err := core.CheckTc(c, r.Schedule, core.Options{})
		if err != nil || !an.Feasible {
			continue
		}
		tr, err := Run(context.Background(), frozen(c), r.Schedule, Config{Cycles: 128})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Violations) != 0 {
			t.Fatalf("iter %d: simulator found violations at a statically feasible schedule: %v", iter, tr.Violations)
		}
		if tr.ConvergedAt < 0 {
			t.Fatalf("iter %d: no steady state at a feasible schedule", iter)
		}
		for i := range tr.SteadyD {
			if math.Abs(tr.SteadyD[i]-an.D[i]) > 1e-6 {
				t.Fatalf("iter %d: steady D[%d]=%g vs static %g", iter, i, tr.SteadyD[i], an.D[i])
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d random circuits checked; generator too restrictive", checked)
	}
}

func TestSimValidatesInput(t *testing.T) {
	c := circuits.Example1(80)
	if _, err := Run(context.Background(), frozen(c), core.NewSchedule(3), Config{}); err == nil {
		t.Error("phase-count mismatch accepted")
	}
	if _, err := Run(context.Background(), frozen(c), core.SymmetricSchedule(2, 100, 0.5), Config{InitialD: []float64{1}}); err == nil {
		t.Error("short InitialD accepted")
	}
	// An invalid circuit never reaches the simulator: Freeze rejects it,
	// and the zero overlay that is all a failed Freeze leaves is
	// rejected by Run.
	if _, err := core.NewCircuit(1).Freeze(); err == nil {
		t.Error("invalid circuit froze")
	}
	if _, err := Run(context.Background(), core.DelayOverlay{}, core.SymmetricSchedule(1, 10, 0.5), Config{}); err == nil {
		t.Error("zero overlay accepted")
	}
}

// frozen freezes c and returns the snapshot's empty overlay, the input
// the simulation entry points take.
func frozen(c *core.Circuit) core.DelayOverlay { return c.MustFreeze().Overlay() }

func TestGaAsSimulation(t *testing.T) {
	c := circuits.GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(context.Background(), frozen(c), r.Schedule, Config{Cycles: 96})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Violations) != 0 {
		t.Fatalf("GaAs at Tc=4.4 has violations: %v", tr.Violations)
	}
	if tr.ConvergedAt < 0 {
		t.Fatal("GaAs simulation did not settle")
	}
	// Below 4.4 the machine must break.
	sc := r.Schedule.Clone()
	f := 4.2 / 4.4
	sc.Tc *= f
	for i := range sc.S {
		sc.S[i] *= f
		sc.T[i] *= f
	}
	tr, err = Run(context.Background(), frozen(c), sc, Config{Cycles: 96})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Violations) == 0 && tr.ConvergedAt >= 0 {
		t.Error("GaAs below Tc* simulated clean")
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

func BenchmarkSimGaAs64Cycles(b *testing.B) {
	c := circuits.GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ov := frozen(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), ov, r.Schedule, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
