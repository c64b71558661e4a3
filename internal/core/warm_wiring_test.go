package core_test

import (
	"context"
	"math"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/obs"
)

// TestOverlayWarmCtxReusesBasis checks the core wiring of the LP
// warm-start API: a re-solve of an edited overlay seeded with the
// previous result's basis must record a warm start with far fewer
// pivots and land on the same optimum as a cold solve.
func TestOverlayWarmCtxReusesBasis(t *testing.T) {
	cc, err := circuits.GaAsMIPS().Freeze()
	if err != nil {
		t.Fatal(err)
	}
	base := cc.Overlay()
	first, err := core.MinTcOverlay(base, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	basis := first.LPBasis()
	if basis == nil {
		t.Fatal("optimal solve returned nil basis")
	}

	edited := base.With(0, cc.Circuit().Paths()[0].Delay*1.05)

	coldRec := obs.New()
	cold, err := core.MinTcOverlayCtx(obs.With(context.Background(), coldRec), edited, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmRec := obs.New()
	warm, err := core.MinTcOverlayWarmCtx(obs.With(context.Background(), warmRec), edited, core.Options{}, basis)
	if err != nil {
		t.Fatal(err)
	}

	if d := math.Abs(warm.Schedule.Tc - cold.Schedule.Tc); d > 1e-9 {
		t.Fatalf("warm Tc %.15g != cold %.15g (diff %.3g)", warm.Schedule.Tc, cold.Schedule.Tc, d)
	}
	ws, wp := warmRec.Get(obs.LPWarmStarts), warmRec.Get(obs.LPWarmPivots)
	if ws == 0 {
		t.Fatal("warm solve recorded no LPWarmStarts")
	}
	if coldPivots := coldRec.Get(obs.Pivots); wp*5 > coldPivots {
		t.Fatalf("warm pivots %d vs cold %d; want >=5x reduction", wp, coldPivots)
	}
	if coldRec.Get(obs.LPWarmStarts) != 0 {
		t.Fatal("cold solve spuriously recorded a warm start")
	}
}

// TestSweepWarmMatchesPerValueSolves: the warm witness-bound walk
// inside the library sweep is an optimization only — every swept Tc
// must equal an independent cold LP solve of the same overlay.
func TestSweepWarmMatchesPerValueSolves(t *testing.T) {
	cc, err := circuits.GaAsMIPS().Freeze()
	if err != nil {
		t.Fatal(err)
	}
	d0 := cc.Circuit().Paths()[0].Delay
	values := []float64{d0 * 0.5, d0 * 0.8, d0, d0 * 1.2, d0 * 1.7, d0 * 2.5, d0 * 4}
	tcs, errs := decomp.Sweep(context.Background(), cc, core.Options{}, 0, values, decomp.Config{}, nil)
	for i, v := range values {
		if errs[i] != nil {
			t.Fatalf("value %g: %v", v, errs[i])
		}
		ref, err := core.MinTcOverlay(cc.Overlay().With(0, v), core.Options{})
		if err != nil {
			t.Fatalf("value %g reference solve: %v", v, err)
		}
		if d := math.Abs(tcs[i] - ref.Schedule.Tc); d > 1e-9 {
			t.Fatalf("value %g: swept Tc %.15g != reference %.15g", v, tcs[i], ref.Schedule.Tc)
		}
	}
}

// TestReoptimizeFallbackMatchesFreshSolve: when the dual shortcut fails
// and Reoptimize falls back to a warm full solve, the answer must equal
// a from-scratch MinTc of the edited circuit.
func TestReoptimizeFallbackMatchesFreshSolve(t *testing.T) {
	c := circuits.GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A 10x delay change is far outside any basis validity interval.
	newDelay := c.Paths()[0].Delay * 10
	tc, resolved, err := r.Reoptimize(0, newDelay)
	if err != nil {
		t.Fatal(err)
	}
	if !resolved {
		t.Fatal("expected the dual shortcut to fail and the full solve to run")
	}
	fresh, err := core.MinTc(circuitWithDelay(t, 0, newDelay), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(tc - fresh.Schedule.Tc); d > 1e-9 {
		t.Fatalf("fallback Tc %.15g != fresh %.15g", tc, fresh.Schedule.Tc)
	}
}

func circuitWithDelay(t *testing.T, pathIndex int, delay float64) *core.Circuit {
	t.Helper()
	c := circuits.GaAsMIPS()
	c.SetPathDelay(pathIndex, delay)
	return c
}
