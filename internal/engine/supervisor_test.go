package engine_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/obs"
)

// TestCertifiedSuiteAllEngines runs every engine over the benchmark
// suite through the supervisor with fallback disabled: a clean solve
// must certify on its first rung, at the default 1e-9 tolerance, for
// every circuit.
func TestCertifiedSuiteAllEngines(t *testing.T) {
	for _, b := range gen.Suite() {
		if testing.Short() && b.Circuit.L() > 64 {
			continue
		}
		for _, name := range []string{"mlp", "mcr", "decomp", "nrip", "ettf", "sim"} {
			if name == "sim" && b.Circuit.L() > 64 {
				continue // simulation of the XL circuits is a benchmark, not a test
			}
			t.Run(b.Name+"/"+name, func(t *testing.T) {
				res, err := engine.SolveCertified(context.Background(), name, b.Circuit,
					engine.Options{}, engine.Policy{NoFallback: true})
				if err != nil {
					t.Fatalf("SolveCertified: %v", err)
				}
				if !res.Certificate.Certified() {
					t.Fatalf("certificate rejected: %s", res.Certificate)
				}
				if len(res.Trail) != 1 || !res.Trail[0].Certified {
					t.Fatalf("trail = %+v, want one certified attempt", res.Trail)
				}
				if b.OptimalTc > 0 && (name == "mlp" || name == "mcr" || name == "decomp") {
					if math.Abs(res.Tc-b.OptimalTc) > 1e-6*(1+b.OptimalTc) {
						t.Errorf("Tc = %g, want %g", res.Tc, b.OptimalTc)
					}
				}
			})
		}
	}
}

// TestCertifiedOptimalityEvidence pins that the exact engines carry
// their optimality evidence into the certificate: mlp the LP duality
// gap, mcr and decomp the re-walked critical cycle.
func TestCertifiedOptimalityEvidence(t *testing.T) {
	c := circuits.Example1(80)
	for _, name := range []string{"mlp", "mcr", "decomp"} {
		res, err := engine.SolveCertified(context.Background(), name, c, engine.Options{}, engine.Policy{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Certificate.Kind != "optimal" {
			t.Errorf("%s certificate kind = %q, want optimal", name, res.Certificate.Kind)
		}
		if name == "mlp" && math.IsNaN(res.Certificate.DualityGap) {
			t.Error("mlp certificate lost the duality gap")
		}
	}
}

// TestCertifiedInfeasibleWitness: an unachievable FixedTc must come
// back as a certified infeasibility — the error still matches
// ErrInfeasible through the wrapping, and the certificate validates
// the Farkas ray rather than trusting the solver.
func TestCertifiedInfeasibleWitness(t *testing.T) {
	c := circuits.Example1(80)
	res, err := engine.SolveCertified(context.Background(), "mlp", c,
		engine.Options{Core: core.Options{FixedTc: 1}}, engine.Policy{})
	if !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if res == nil || !res.Certificate.Certified() {
		t.Fatalf("infeasibility not certified: %v", res)
	}
	if res.Certificate.Kind != "infeasible" {
		t.Errorf("certificate kind = %q, want infeasible", res.Certificate.Kind)
	}
	if len(res.Trail) == 0 || !res.Trail[len(res.Trail)-1].Certified {
		t.Errorf("trail = %+v, want certified final attempt", res.Trail)
	}
}

// TestCertifiedOverlayWarmRung: with a seed basis the overlay ladder
// starts at the warm rung and still certifies, bit-identical to cold.
func TestCertifiedOverlayWarmRung(t *testing.T) {
	cc, err := circuits.Example1(80).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.MinTcOverlayCtx(context.Background(), cc.Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ov := cc.Overlay().With(3, 120)
	var rungs []string
	res, err := engine.SolveCertifiedOverlay(context.Background(), "mlp", ov,
		engine.Options{WarmBasis: base.LPBasis()},
		engine.Policy{OnRung: func(_, r string) { rungs = append(rungs, r) }})
	if err != nil {
		t.Fatalf("warm certified solve: %v", err)
	}
	if len(rungs) != 1 || rungs[0] != "warm" {
		t.Fatalf("rungs tried = %v, want [warm]", rungs)
	}
	if !res.Certificate.Certified() {
		t.Fatalf("warm result rejected: %s", res.Certificate)
	}
	cold, err := engine.SolveCertifiedOverlay(context.Background(), "mlp", ov, engine.Options{}, engine.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tc != cold.Tc {
		t.Errorf("warm Tc %g != cold Tc %g", res.Tc, cold.Tc)
	}
}

// TestCertifiedUnknownRung: a policy naming a rung the engine does not
// have is rejected up front with the typed sentinel.
func TestCertifiedUnknownRung(t *testing.T) {
	_, err := engine.SolveCertified(context.Background(), "mlp", circuits.Example1(80),
		engine.Options{}, engine.Policy{Rungs: []string{"quantum"}})
	if !errors.Is(err, engine.ErrUnknownRung) {
		t.Fatalf("err = %v, want ErrUnknownRung", err)
	}
}

// TestCertifiedUnknownEngine: the registry miss surfaces as the typed
// sentinel through the supervisor too.
func TestCertifiedUnknownEngine(t *testing.T) {
	_, err := engine.SolveCertified(context.Background(), "simplex2000", circuits.Example1(80),
		engine.Options{}, engine.Policy{})
	if !errors.Is(err, engine.ErrUnknownEngine) {
		t.Fatalf("err = %v, want ErrUnknownEngine", err)
	}
}

// TestCertifiedCancellationPerRung cancels the solve as each ladder
// rung starts: the supervisor must stop the ladder immediately (no
// rung after the cancelled one runs), surface context.Canceled, report
// the partial trail and stats, and leak no goroutines.
func TestCertifiedCancellationPerRung(t *testing.T) {
	cc, err := circuits.Example1(80).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.MinTcOverlayCtx(context.Background(), cc.Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ov := cc.Overlay().With(3, 120)
	for _, cancelAt := range []string{"warm", "sparse", "dense"} {
		t.Run(cancelAt, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var tried []string
			rec := obs.New()
			// A clean rung would certify and stop the ladder, so each
			// case runs a single-rung ladder and cancels as it starts —
			// exercising cancellation inside the warm dual re-solve, the
			// cold sparse solve, and the dense oracle respectively.
			res, err := engine.SolveCertifiedOverlay(ctx, "mlp", ov,
				engine.Options{WarmBasis: base.LPBasis(), Rec: rec},
				engine.Policy{
					Rungs: []string{cancelAt},
					OnRung: func(_, r string) {
						tried = append(tried, r)
						if r == cancelAt {
							cancel()
						}
					},
				})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil {
				t.Fatal("want a non-nil Result with the partial trail")
			}
			if len(res.Trail) == 0 || res.Trail[len(res.Trail)-1].Rung != cancelAt {
				t.Errorf("trail = %+v, want last rung %q", res.Trail, cancelAt)
			}
			if len(tried) != 1 || tried[0] != cancelAt {
				t.Errorf("rungs tried = %v; ladder kept walking past the cancel", tried)
			}

			deadline := time.Now().Add(time.Second)
			for {
				if g := runtime.NumGoroutine(); g <= before {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
