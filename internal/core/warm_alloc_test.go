package core_test

import (
	"context"
	"runtime/debug"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/gen"
)

// warmResolveAllocs measures one warm MinTcOverlayWarmCtx of an edited
// overlay, after a first solve of the same shape has built the
// snapshot's LP template. The collector is off while it counts: a GC
// cycle empties the scratch pools, and refilling them would charge a
// varying share of arena allocations to the solves measured.
func warmResolveAllocs(t *testing.T, c *core.Circuit) float64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cc := c.MustFreeze()
	base, err := core.MinTcOverlay(cc.Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm := base.LPBasis()
	ov := cc.Overlay().With(0, c.Paths()[0].Delay*1.5)
	ctx := context.Background()
	return testing.AllocsPerRun(20, func() {
		if _, err := core.MinTcOverlayWarmCtx(ctx, ov, core.Options{}, warm); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWarmResolveAllocs pins the allocation count of a warm what-if
// re-solve: the overlay's LP is a fork of the snapshot's template and
// RHS ranging is left to the callers that read it, so the count is a
// small constant that does not grow with the circuit (example1-80 has
// 4 synchronizers, ring-2x512 has 1024).
func TestWarmResolveAllocs(t *testing.T) {
	if !scratchPooled {
		t.Skip("allocation counts assume pooled solve scratch (not under -race or -tags noscratch)")
	}
	const ceiling = 64
	small := warmResolveAllocs(t, circuits.Example1(80))
	large := warmResolveAllocs(t, gen.XLarge()[0].Circuit)
	t.Logf("allocs per warm re-solve: example1-80 %.0f, ring-2x512 %.0f", small, large)
	if small > ceiling || large > ceiling {
		t.Errorf("warm re-solve allocates %.0f (example1-80) / %.0f (ring-2x512) times, ceiling %d", small, large, ceiling)
	}
	// AllocsPerRun reads process-wide counters, so a stray runtime
	// allocation can land in either measurement; per-row work would
	// add hundreds.
	if large > small+2 {
		t.Errorf("warm re-solve allocations grow with the circuit: %.0f (example1-80) -> %.0f (ring-2x512)", small, large)
	}
}
