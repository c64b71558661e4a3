//go:build faultinject

package engine_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/faultinject"
	"mintc/internal/lp"
	"mintc/internal/obs"
)

// cleanTc solves the reference circuit with no faults armed and
// returns the certified optimum the faulted runs must reproduce.
func cleanTc(t *testing.T) float64 {
	t.Helper()
	faultinject.Reset()
	res, err := engine.SolveCertified(context.Background(), "mlp", circuits.Example1(80),
		engine.Options{}, engine.Policy{})
	if err != nil {
		t.Fatalf("clean solve: %v", err)
	}
	if !res.Certificate.Certified() {
		t.Fatalf("clean certificate rejected: %s", res.Certificate)
	}
	return res.Tc
}

// TestLadderPanicRecovery: a panic planted in the sparse simplex's
// pivot loop must be recovered at the engine boundary (counted, stack
// captured, converted to *PanicError) and the ladder must fall to the
// dense rung — which certifies the same Tc the clean run found.
func TestLadderPanicRecovery(t *testing.T) {
	want := cleanTc(t)
	defer faultinject.Reset()
	faultinject.SetAfter("lp.pivot", 0, -1, func() error { panic("injected pivot panic") })

	rec := obs.New()
	res, err := engine.SolveCertified(context.Background(), "mlp", circuits.Example1(80),
		engine.Options{Rec: rec}, engine.Policy{})
	if err != nil {
		t.Fatalf("ladder did not absorb the panic: %v", err)
	}
	if res.Tc != want {
		t.Errorf("faulted Tc = %g, clean Tc = %g", res.Tc, want)
	}
	if !res.Certificate.Certified() {
		t.Fatalf("fallback result not certified: %s", res.Certificate)
	}
	if len(res.Trail) < 2 || !strings.Contains(res.Trail[0].Err, "panic recovered") {
		t.Fatalf("trail = %+v, want a recovered panic on the first rung", res.Trail)
	}
	if res.Trail[len(res.Trail)-1].Rung != "dense" {
		t.Errorf("final rung = %q, want dense", res.Trail[len(res.Trail)-1].Rung)
	}
	if got := res.Stats.Counter(obs.PanicsRecovered); got < 1 {
		t.Errorf("panics_recovered = %d, want >= 1", got)
	}
	if got := res.Stats.Counter(obs.Fallbacks); got < 1 {
		t.Errorf("fallbacks = %d, want >= 1", got)
	}
	var pe *engine.PanicError
	_, perr := engine.Solve(context.Background(), "mlp", circuits.Example1(80).MustFreeze().Overlay(), engine.Options{})
	if !errors.As(perr, &pe) || pe.Stack == "" {
		t.Errorf("plain solve error = %v, want *PanicError with a stack", perr)
	}
}

// TestLadderSingularBasisFallsToDense: a singular-basis failure in the
// sparse factorization is a typed error visible through every wrapper,
// and the dense oracle (which never factorizes) rescues the solve.
func TestLadderSingularBasisFallsToDense(t *testing.T) {
	want := cleanTc(t)
	defer faultinject.Reset()
	faultinject.SetAfter("lp.factor", 0, -1, func() error { return lp.ErrSingularBasis })

	_, perr := engine.Solve(context.Background(), "mlp", circuits.Example1(80).MustFreeze().Overlay(), engine.Options{})
	if !errors.Is(perr, lp.ErrSingularBasis) {
		t.Fatalf("plain solve error = %v, want errors.Is ErrSingularBasis", perr)
	}

	res, err := engine.SolveCertified(context.Background(), "mlp", circuits.Example1(80),
		engine.Options{}, engine.Policy{})
	if err != nil {
		t.Fatalf("ladder did not route around the singular basis: %v", err)
	}
	if res.Tc != want || !res.Certificate.Certified() {
		t.Fatalf("fallback: Tc=%g want %g, cert: %s", res.Tc, want, res.Certificate)
	}
	if res.Trail[0].Rung != "sparse" || !strings.Contains(res.Trail[0].Err, "singular") {
		t.Errorf("trail[0] = %+v, want singular-basis failure on sparse", res.Trail[0])
	}
}

// TestLadderRejectsCorruptedResult: silently corrupted primal values —
// the nightmare case, a solve that "succeeds" with wrong numbers —
// must be caught by the independent checker, counted, and repaired by
// the next rung.
func TestLadderRejectsCorruptedResult(t *testing.T) {
	want := cleanTc(t)
	defer faultinject.Reset()
	// A value-dependent ~1e-7 wobble: far below the slide's core.Eps,
	// so the solve "succeeds" and returns quietly wrong numbers —
	// exactly the failure mode only an independent checker can catch.
	// (A uniform or purely relative perturbation would just rescale
	// the schedule, which stays feasible; the wobble must move tight
	// constraint rows off their boundaries unevenly.)
	faultinject.SetPerturb("lp.extract.x", func(v float64) float64 { return v + 1e-7*math.Cos(1000*v) })

	rec := obs.New()
	res, err := engine.SolveCertified(context.Background(), "mlp", circuits.Example1(80),
		engine.Options{Rec: rec}, engine.Policy{})
	if err != nil {
		t.Fatalf("ladder did not recover from corruption: %v", err)
	}
	if res.Tc != want || !res.Certificate.Certified() {
		t.Fatalf("fallback: Tc=%g want %g, cert: %s", res.Tc, want, res.Certificate)
	}
	if res.Trail[0].Rejected == "" {
		t.Fatalf("trail[0] = %+v, want a rejected certificate clause", res.Trail[0])
	}
	if got := res.Stats.Counter(obs.VerifyFailures); got < 1 {
		t.Errorf("verify_failures = %d, want >= 1", got)
	}
}

// TestScheduleObjectivesRejectCorruptedResult: each schedule objective
// (max-margin, min-phase-width, min-skew-budget) must survive the same
// silent-corruption attack as min-Tc: the wobbled sparse answer is
// rejected by the objective-aware certificate and the dense rung — no
// mcr rung exists for these objectives — re-derives the clean optimum.
func TestScheduleObjectivesRejectCorruptedResult(t *testing.T) {
	c := circuits.GaAsMIPS()
	const fixedTc = 5 // above the GaAs optimum 4.4, so the pin is feasible
	for _, tt := range []struct {
		name string
		obj  core.Objective
	}{
		{"max-margin", core.MaxMarginAt(fixedTc)},
		{"min-phase-width", core.MinPhaseWidthAt(fixedTc)},
		{"min-skew-budget", core.MinSkewBudgetAt(fixedTc)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			faultinject.Reset()
			opts := engine.Options{Core: core.Options{Objective: tt.obj}}
			clean, err := engine.SolveCertified(context.Background(), "mlp", c, opts, engine.Policy{})
			if err != nil {
				t.Fatalf("clean solve: %v", err)
			}
			if !clean.Certificate.Certified() {
				t.Fatalf("clean certificate rejected: %s", clean.Certificate)
			}
			want := clean.Detail.(*core.Result).ObjectiveValue

			defer faultinject.Reset()
			faultinject.SetPerturb("lp.extract.x", func(v float64) float64 { return v + 1e-7*math.Cos(1000*v) })
			res, err := engine.SolveCertified(context.Background(), "mlp", c, opts, engine.Policy{})
			if err != nil {
				t.Fatalf("ladder did not recover from corruption: %v", err)
			}
			if res.Trail[0].Rejected == "" {
				t.Fatalf("trail[0] = %+v, want a rejected certificate clause on the sparse rung", res.Trail[0])
			}
			if last := res.Trail[len(res.Trail)-1]; last.Rung != "dense" || !last.Certified {
				t.Fatalf("trail = %+v, want a certified dense rescue", res.Trail)
			}
			if !res.Certificate.Certified() {
				t.Fatalf("fallback result not certified: %s", res.Certificate)
			}
			got := res.Detail.(*core.Result).ObjectiveValue
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("faulted %s value = %g, clean value = %g", tt.name, got, want)
			}
		})
	}
}

// TestLadderFallsAllTheWayToMCR: with the sparse solver singular and
// the dense solver capped out, only the min-cycle-ratio engine — a
// different algorithm with no simplex at all — remains, and it must
// deliver the same certified optimum.
func TestLadderFallsAllTheWayToMCR(t *testing.T) {
	want := cleanTc(t)
	defer faultinject.Reset()
	faultinject.SetAfter("lp.factor", 0, -1, func() error { return lp.ErrSingularBasis })
	faultinject.SetAfter("lp.dense.iterate", 0, -1, func() error { return lp.ErrIterationLimit })

	res, err := engine.SolveCertified(context.Background(), "mlp", circuits.Example1(80),
		engine.Options{}, engine.Policy{})
	if err != nil {
		t.Fatalf("mcr rung did not rescue the solve: %v", err)
	}
	if res.Tc != want || !res.Certificate.Certified() {
		t.Fatalf("mcr rescue: Tc=%g want %g, cert: %s", res.Tc, want, res.Certificate)
	}
	if len(res.Trail) != 3 || res.Trail[2].Rung != "mcr" || res.Trail[2].Engine != "mcr" {
		t.Fatalf("trail = %+v, want sparse→dense→mcr", res.Trail)
	}
}

// TestLadderExhaustion: with every rung dead the supervisor reports
// the typed sentinel and the full trail instead of inventing numbers.
func TestLadderExhaustion(t *testing.T) {
	defer faultinject.Reset()
	faultinject.SetAfter("lp.factor", 0, -1, func() error { return lp.ErrSingularBasis })
	faultinject.SetAfter("lp.dense.iterate", 0, -1, func() error { return lp.ErrIterationLimit })

	res, err := engine.SolveCertified(context.Background(), "mlp", circuits.Example1(80),
		engine.Options{}, engine.Policy{Rungs: []string{"sparse", "dense"}})
	if !errors.Is(err, engine.ErrLadderExhausted) {
		t.Fatalf("err = %v, want ErrLadderExhausted", err)
	}
	if res == nil || len(res.Trail) != 2 {
		t.Fatalf("res = %+v, want the two-rung trail", res)
	}
}

// TestCancellationDuringFallback: a cancellation that lands while the
// ladder is already degrading must stop it at that rung.
func TestCancellationDuringFallback(t *testing.T) {
	defer faultinject.Reset()
	faultinject.SetAfter("lp.factor", 0, -1, func() error { return lp.ErrSingularBasis })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := engine.SolveCertified(ctx, "mlp", circuits.Example1(80),
		engine.Options{}, engine.Policy{OnRung: func(_, r string) {
			if r == "dense" {
				cancel()
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := len(res.Trail); n != 2 || res.Trail[1].Rung != "dense" {
		t.Fatalf("trail = %+v, want sparse failure then cancelled dense", res.Trail)
	}
}
