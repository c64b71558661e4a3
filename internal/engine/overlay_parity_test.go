package engine_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
	"mintc/internal/mcr"
)

// holdVariant gives every synchronizer a hold requirement of 0.3× the
// mean path delay and every path a best-case delay of half its worst
// case, so DesignForHold adds a hold row (and an mcr hold edge) per
// path, and an edit below MinDelay moves it.
func holdVariant(c *core.Circuit) *core.Circuit {
	var mean float64
	for _, p := range c.Paths() {
		mean += p.Delay
	}
	mean /= float64(len(c.Paths()))
	syncs := append([]core.Synchronizer(nil), c.Syncs()...)
	for i := range syncs {
		syncs[i].Hold = 0.3 * mean
	}
	paths := append([]core.Path(nil), c.Paths()...)
	for i := range paths {
		paths[i].MinDelay = paths[i].Delay * 0.5
	}
	return core.Build(c.K(), syncs, paths)
}

// editOverlay layers deterministic edits on the snapshot: a raise, a
// cut below the path's MinDelay (which clamps MinDelay) and a chained
// pair on one path (cut, then raise again, so the clamp composes).
func editOverlay(cc *core.Compiled, rng *rand.Rand) core.DelayOverlay {
	paths := cc.Circuit().Paths()
	ov := cc.Overlay()
	pick := func() int { return rng.Intn(len(paths)) }
	p := pick()
	ov = ov.With(p, paths[p].Delay*1.3+0.25)
	p = pick()
	ov = ov.With(p, paths[p].MinDelay*0.4)
	p = pick()
	ov = ov.With(p, paths[p].Delay*0.2).With(p, paths[p].Delay*1.1)
	return ov
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestOverlayEditsMatchMaterialized: the mcr, nrip and ettf engines
// read every delay through the overlay. On every gen.Suite circuit ×
// {default, PhaseSkew, DesignForHold on a hold variant}, a solve of
// an edited overlay equals, bit for bit, a solve of a fresh snapshot
// of the overlay's materialized circuit: Tc, S, T, D, and mcr's
// critical arcs (or the same error).
func TestOverlayEditsMatchMaterialized(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(20))
	checked := 0
	for _, bm := range gen.Suite() {
		k := bm.Circuit.K()
		skew := make([]float64, k)
		for p := range skew {
			skew[p] = 0.05 * float64(p+1)
		}
		cases := []struct {
			name string
			c    *core.Circuit
			opts core.Options
		}{
			{"default", bm.Circuit, core.Options{}},
			{"phaseskew", bm.Circuit, core.Options{PhaseSkew: skew}},
			{"hold", holdVariant(bm.Circuit), core.Options{DesignForHold: true}},
		}
		for _, tc := range cases {
			cc := tc.c.MustFreeze()
			ov := editOverlay(cc, rng)
			ref := ov.Materialize().MustFreeze().Overlay()
			for _, name := range []string{"mcr", "nrip", "ettf"} {
				where := fmt.Sprintf("%s/%s/%s", bm.Name, tc.name, name)
				opts := engine.Options{Core: tc.opts}
				got, gerr := engine.Solve(ctx, name, ov, opts)
				want, werr := engine.Solve(ctx, name, ref, opts)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s: overlay err %v, materialized err %v", where, gerr, werr)
				}
				if gerr != nil {
					if gerr.Error() != werr.Error() {
						t.Fatalf("%s: overlay err %q, materialized err %q", where, gerr, werr)
					}
					continue
				}
				checked++
				if math.Float64bits(got.Tc) != math.Float64bits(want.Tc) {
					t.Fatalf("%s: Tc %.17g, materialized %.17g", where, got.Tc, want.Tc)
				}
				if !sameBits(got.Schedule.S, want.Schedule.S) || !sameBits(got.Schedule.T, want.Schedule.T) {
					t.Fatalf("%s: schedule %v, materialized %v", where, got.Schedule, want.Schedule)
				}
				if !sameBits(got.D, want.D) {
					t.Fatalf("%s: D differs from the materialized solve", where)
				}
				if name != "mcr" {
					continue
				}
				ga := got.Detail.(*mcr.Result).CriticalArcs
				wa := want.Detail.(*mcr.Result).CriticalArcs
				if len(ga) != len(wa) {
					t.Fatalf("%s: %d critical arcs, materialized %d", where, len(ga), len(wa))
				}
				for i := range ga {
					if ga[i].From != wa[i].From || ga[i].To != wa[i].To ||
						math.Float64bits(ga[i].A) != math.Float64bits(wa[i].A) || math.Float64bits(ga[i].B) != math.Float64bits(wa[i].B) {
						t.Fatalf("%s: critical arc %d = %+v, materialized %+v", where, i, ga[i], wa[i])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no case solved")
	}
	t.Logf("%d solves compared", checked)
}
