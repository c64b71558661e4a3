package core

import (
	"math"
	"math/rand"
	"testing"
)

// holdRing builds a random 2–6-latch two-phase ring with hold
// requirements (Hold 0–11) and fast best-case paths (delays 5–35,
// MinDelay 0–4): under DesignForHold every path owns a hold row, and a
// delay edit below a path's MinDelay clamps MinDelay and moves that
// row too.
func holdRing(rng *rand.Rand) *Circuit {
	l := 2 + rng.Intn(5)
	c := NewCircuit(2)
	for i := 0; i < l; i++ {
		setup := 1 + rng.Float64()*2
		c.AddSync(Synchronizer{Phase: i % 2, Kind: Latch, Setup: setup, DQ: setup + rng.Float64()*3, Hold: rng.Float64() * 11})
	}
	for i := 0; i < l; i++ {
		c.AddPathFull(Path{From: i, To: (i + 1) % l, Delay: 5 + rng.Float64()*30, MinDelay: rng.Float64() * 4})
	}
	return c
}

// sameTc compares two LP optima up to roundoff.
func sameTc(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// TestTryReoptimizeDualHoldMatchesResolve: every answer the dual
// shortcut accepts under DesignForHold equals a full solve of the
// edited overlay, including edits below the path's MinDelay, which
// move the hold row along with the propagation row.
func TestTryReoptimizeDualHoldMatchesResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := Options{DesignForHold: true}
	accepted, clamped := 0, 0
	for iter := 0; iter < 400; iter++ {
		cc := holdRing(rng).MustFreeze()
		base, err := MinTcOverlay(cc.Overlay(), opts)
		if err != nil {
			continue
		}
		for e := 0; e < 3; e++ {
			pidx := rng.Intn(len(cc.c.paths))
			d := rng.Float64() * 40
			if e == 0 {
				d = rng.Float64() * cc.c.paths[pidx].MinDelay
			}
			tc, ok, err := base.TryReoptimizeDual(pidx, d)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			accepted++
			if d < cc.c.paths[pidx].MinDelay {
				clamped++
			}
			full, err := MinTcOverlay(cc.Overlay().With(pidx, d), opts)
			if err != nil {
				t.Fatalf("ring %d: shortcut accepted path %d = %g (Tc %g) but the full solve fails: %v", iter, pidx, d, tc, err)
			}
			if !sameTc(tc, full.Schedule.Tc) {
				t.Errorf("ring %d: path %d = %g (MinDelay %g): shortcut Tc %.10g, full solve %.10g",
					iter, pidx, d, cc.c.paths[pidx].MinDelay, tc, full.Schedule.Tc)
			}
		}
	}
	t.Logf("%d accepted shortcuts, %d below MinDelay", accepted, clamped)
	if accepted < 100 || clamped < 50 {
		t.Fatalf("only %d accepted shortcuts (%d below MinDelay): the property is barely exercised", accepted, clamped)
	}
}

// TestParametricDelayHoldMatchesResolve: under DesignForHold the
// parametric curve Tc*(Δ) equals a full solve at every sample point,
// on both sides of the path's MinDelay — below it the overlay clamps
// MinDelay to Δ and the hold row moves with the delay.
func TestParametricDelayHoldMatchesResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	opts := Options{DesignForHold: true}
	checked, below := 0, 0
	for iter := 0; iter < 150; iter++ {
		cc := holdRing(rng).MustFreeze()
		if _, err := MinTcOverlay(cc.Overlay(), opts); err != nil {
			continue
		}
		pidx := rng.Intn(len(cc.c.paths))
		// Start below MinDelay, where the design is still feasible
		// (too fast a path makes the hold rows infeasible).
		from := rng.Float64() * cc.c.paths[pidx].MinDelay
		if _, err := MinTcOverlay(cc.Overlay().With(pidx, from), opts); err != nil {
			continue
		}
		segs, err := ParametricDelayCompiled(cc, opts, pidx, from, 40)
		if err != nil {
			t.Fatalf("ring %d path %d: %v", iter, pidx, err)
		}
		for x := from; x <= 40; x += 0.7 + rng.Float64()*3 {
			full, err := MinTcOverlay(cc.Overlay().With(pidx, x), opts)
			if err != nil {
				t.Fatalf("ring %d path %d: feasible at Δ=%g but not at %g: %v", iter, pidx, from, x, err)
			}
			var tc float64
			found := false
			for _, s := range segs {
				if x >= s.From-1e-9 && x <= s.To+1e-9 {
					tc, found = s.TcAt(x), true
					break
				}
			}
			if !found {
				t.Fatalf("ring %d path %d: Δ=%g not covered by %+v", iter, pidx, x, segs)
			}
			checked++
			if x < cc.c.paths[pidx].MinDelay {
				below++
			}
			if math.Abs(tc-full.Schedule.Tc) > 1e-6*(1+math.Abs(tc)) {
				t.Errorf("ring %d path %d Δ=%g (MinDelay %g): parametric %.10g, full solve %.10g",
					iter, pidx, x, cc.c.paths[pidx].MinDelay, tc, full.Schedule.Tc)
			}
		}
	}
	t.Logf("%d sample points, %d below MinDelay", checked, below)
	if checked < 300 || below < 30 {
		t.Fatalf("only %d sample points (%d below MinDelay): the property is barely exercised", checked, below)
	}
}
