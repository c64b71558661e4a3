package core_test

import (
	"math/rand"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// TestOverlayLPMatchesBuildLP: an overlay solve's LP — a fork of the
// snapshot's template with the edited paths' RHS patched — equals a
// fresh BuildLP of the materialized overlay bit for bit (names,
// relations, terms, costs and RHS), for every option family,
// fixed-Tc targets and schedule objectives included, and for edits
// that clamp MinDelay or restore a path to its base delay.
func TestOverlayLPMatchesBuildLP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	overlays := 0
	for _, bm := range gen.Suite() {
		for _, hold := range []bool{false, true} {
			c := bm.Circuit
			if hold {
				c = withHolds(c)
			}
			cc := c.MustFreeze()
			base, err := core.MinTcOverlay(cc.Overlay(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			slack := 2 * base.Schedule.Tc
			for _, opts := range []core.Options{
				{DesignForHold: hold},
				{MinPhaseWidth: 0.5, MinSeparation: 0.25, Skew: 0.125, DesignForHold: hold},
				{FixedTc: slack, DesignForHold: hold},
				{FixedTc: slack * 1.25, DesignForHold: hold},
				{Objective: core.MaxMarginAt(slack), DesignForHold: hold},
				{Objective: core.MinSkewBudgetAt(slack * 1.5), DesignForHold: hold},
			} {
				for k := 0; k < 3; k++ {
					ov := cc.Overlay()
					for e := 0; e <= k; e++ {
						pidx := rng.Intn(len(c.Paths()))
						p := c.Paths()[pidx]
						switch rng.Intn(3) {
						case 0:
							ov = ov.With(pidx, p.MinDelay*rng.Float64()) // clamps MinDelay
						case 1:
							ov = ov.With(pidx, p.Delay*(1+rng.Float64()))
						default:
							ov = ov.With(pidx, p.Delay*0.5).With(pidx, p.Delay) // back to base delay
						}
					}
					r, err := core.MinTcOverlay(ov, opts)
					if err != nil {
						continue // a hold-infeasible edit: nothing was solved
					}
					want, _, _ := core.BuildLP(ov.Materialize(), opts)
					requireSameLP(t, want, r.LP)
					overlays++
				}
			}
		}
	}
	t.Logf("%d overlays compared", overlays)
	if overlays < 150 {
		t.Fatalf("only %d overlays compared", overlays)
	}
}
