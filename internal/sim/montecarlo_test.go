package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
)

// withMinDelays gives Example 1 distinct best-case delays so the
// Monte-Carlo sampler has real ranges to draw from.
func example1WithMins(d41 float64) *core.Circuit {
	c := core.NewCircuit(2)
	l1 := c.AddLatch("L1", 0, 10, 10)
	l2 := c.AddLatch("L2", 1, 10, 10)
	l3 := c.AddLatch("L3", 0, 10, 10)
	l4 := c.AddLatch("L4", 1, 10, 10)
	c.AddPathFull(core.Path{From: l1, To: l2, Delay: 20, MinDelay: 8})
	c.AddPathFull(core.Path{From: l2, To: l3, Delay: 20, MinDelay: 8})
	c.AddPathFull(core.Path{From: l3, To: l4, Delay: 60, MinDelay: 30})
	c.AddPathFull(core.Path{From: l4, To: l1, Delay: d41, MinDelay: d41 / 2})
	return c
}

func TestMonteCarloNeverFailsAtWorstCaseFeasibleSchedule(t *testing.T) {
	// The static analysis covers the worst case; sampled delays are
	// componentwise smaller, and departures are monotone in delays, so
	// no violation may ever appear (the soundness property).
	c := example1WithMins(80)
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMonteCarlo(context.Background(), frozen(c), r.Schedule, MCConfig{Trials: 100, Cycles: 40}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailingTrials != 0 || res.TotalViolations != 0 {
		t.Fatalf("violations at a worst-case-feasible schedule: %+v", res)
	}
	if res.WorstSlack < 0 {
		t.Errorf("worst slack = %g, want >= 0", res.WorstSlack)
	}
}

func TestMonteCarloSlackBeatsWorstCase(t *testing.T) {
	// With real delay spreads, the observed worst slack must be at
	// least the static worst-case slack (and typically better).
	c := example1WithMins(80)
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Relax 10% so the static worst slack is positive.
	sc := r.Schedule.Clone()
	f := 1.1
	sc.Tc *= f
	for i := range sc.S {
		sc.S[i] *= f
		sc.T[i] *= f
	}
	an, err := core.CheckTc(c, sc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	staticWorst := math.Inf(1)
	for _, s := range an.SetupSlack {
		if s < staticWorst {
			staticWorst = s
		}
	}
	res, err := RunMonteCarlo(context.Background(), frozen(c), sc, MCConfig{Trials: 60}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstSlack < staticWorst-1e-9 {
		t.Errorf("sampled worst slack %g below static worst case %g", res.WorstSlack, staticWorst)
	}
}

func TestMonteCarloDetectsBrokenSchedule(t *testing.T) {
	// A schedule below Tc* must fail even under sampled delays when
	// the minimum delays alone exceed the budget. Use min == max so
	// sampling has no slack to hide in.
	c := circuits.Example1(80) // MinDelay defaults to Delay
	sc := core.SymmetricSchedule(2, 90, 0.5)
	res, err := RunMonteCarlo(context.Background(), frozen(c), sc, MCConfig{Trials: 10}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailingTrials == 0 {
		t.Fatal("broken schedule survived Monte Carlo")
	}
}

func TestMonteCarloValidation(t *testing.T) {
	c := circuits.Example1(80)
	sc := core.SymmetricSchedule(2, 200, 0.5)
	if _, err := RunMonteCarlo(context.Background(), frozen(c), sc, MCConfig{}, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := RunMonteCarlo(context.Background(), frozen(c), core.NewSchedule(3), MCConfig{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("phase mismatch accepted")
	}
	if _, err := RunMonteCarlo(context.Background(), core.DelayOverlay{}, sc, MCConfig{}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero overlay accepted")
	}
}

func TestMonteCarloGaAs(t *testing.T) {
	c := circuits.GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMonteCarlo(context.Background(), frozen(c), r.Schedule, MCConfig{Trials: 20, Cycles: 24}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if res.FailingTrials != 0 {
		t.Fatalf("GaAs optimum failed MC: %+v", res)
	}
}
