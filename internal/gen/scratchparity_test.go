package gen_test

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/sim"
)

// This file is the pooled-scratch bit-identity property suite: every
// hot path that recycles arenas (the LP solver scratch, the MLP slide
// pool, the MCR epoch-stamped probe buffers, the Monte-Carlo campaign
// arena) must produce results bitwise identical to the fresh-
// allocation path. The first run of each solver starts on fresh
// buffers; the repetitions run on recycled ones, so rep 0 IS the
// fresh-path reference the pooled reps are held to. Under
// `-tags noscratch` the pools are compiled out and the same assertions
// pin the baseline. Run under -race this doubles as the data-race
// proof for the pools themselves.

// flattenResult reduces a core MinTc result to comparable floats.
func flattenResult(r *core.Result) []float64 {
	out := []float64{r.Schedule.Tc}
	out = append(out, r.Schedule.S...)
	out = append(out, r.Schedule.T...)
	out = append(out, r.D...)
	return out
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Exact bit comparison (NaN-safe): pooled != fresh by even one
		// ULP is a failure.
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPooledSlideBitIdentity re-solves every suite circuit's MinTc
// several times through one Compiled snapshot: each rep after the
// first runs on recycled slide/LP scratch and must match rep 0
// bitwise.
func TestPooledSlideBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, bm := range gen.Suite() {
		cc, err := bm.Circuit.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		var want []float64
		for rep := 0; rep < 3; rep++ {
			r, err := core.MinTcOverlayCtx(ctx, cc.Overlay(), core.Options{})
			if err != nil {
				t.Fatalf("%s rep %d: %v", bm.Name, rep, err)
			}
			got := flattenResult(r)
			if rep == 0 {
				want = got
				continue
			}
			if !sameFloats(got, want) {
				t.Errorf("%s rep %d: pooled result diverged from fresh-scratch result", bm.Name, rep)
			}
		}
	}
}

// TestPooledProbeBitIdentity does the same for the MCR engine, whose
// epoch-stamped visit marks and bitset worklists persist across probes
// and across solves on a reusable Solver.
func TestPooledProbeBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, bm := range gen.Suite() {
		var want []float64
		for rep := 0; rep < 3; rep++ {
			r, err := mcr.SolveOverlayCtx(ctx, bm.Circuit.MustFreeze().Overlay(), core.Options{})
			if err != nil {
				t.Fatalf("%s rep %d: %v", bm.Name, rep, err)
			}
			got := []float64{r.Tc, r.CriticalRatio, float64(len(r.CriticalArcs))}
			got = append(got, r.Schedule.S...)
			got = append(got, r.Schedule.T...)
			got = append(got, r.D...)
			if rep == 0 {
				want = got
				continue
			}
			if !sameFloats(got, want) {
				t.Errorf("%s rep %d: reused probe scratch diverged from fresh run", bm.Name, rep)
			}
		}
	}
}

// TestPooledCampaignBitIdentity re-runs an identical seeded
// Monte-Carlo campaign: rep 0 allocates the campaign arena, later reps
// recycle it (and, with Workers > 1, carve it across goroutines) — the
// summary must be bitwise stable either way.
func TestPooledCampaignBitIdentity(t *testing.T) {
	for _, bm := range gen.Suite() {
		cc, err := bm.Circuit.Freeze()
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		r0, err := core.MinTcOverlay(cc.Overlay(), core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		cfg := sim.MCConfig{Trials: 16, Cycles: 8, Workers: 4}
		var want *sim.MCResult
		for rep := 0; rep < 3; rep++ {
			res, err := sim.RunMonteCarlo(context.Background(), cc.Overlay(), r0.Schedule, cfg, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("%s rep %d: %v", bm.Name, rep, err)
			}
			if rep == 0 {
				want = res
				continue
			}
			if *res != *want {
				t.Errorf("%s rep %d: pooled campaign %+v != fresh campaign %+v", bm.Name, rep, res, want)
			}
		}
	}
}

// TestPooledScratchConcurrentBitIdentity hammers one Compiled snapshot
// from many goroutines — MinTc, MCR, and Monte-Carlo interleaved, all
// drawing from the shared pools — and checks every concurrent result
// against its serial reference. With -race this is the proof that
// per-goroutine scratch states never alias.
func TestPooledScratchConcurrentBitIdentity(t *testing.T) {
	bm := gen.Suite()[0]
	for _, cand := range gen.Suite() {
		if cand.Name == "rand-medium" {
			bm = cand
		}
	}
	cc, err := bm.Circuit.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	wantMin, err := core.MinTcOverlayCtx(ctx, cc.Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantFlat := flattenResult(wantMin)
	wantMcr, err := mcr.SolveOverlayCtx(ctx, bm.Circuit.MustFreeze().Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.MCConfig{Trials: 8, Cycles: 8, Workers: 2}
	wantMC, err := sim.RunMonteCarlo(context.Background(), cc.Overlay(), wantMin.Schedule, cfg, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				r, err := core.MinTcOverlayCtx(ctx, cc.Overlay(), core.Options{})
				if err == nil && !sameFloats(flattenResult(r), wantFlat) {
					t.Errorf("goroutine %d: concurrent MinTc diverged", i)
				}
				errs[i] = err
			case 1:
				r, err := mcr.SolveOverlayCtx(ctx, bm.Circuit.MustFreeze().Overlay(), core.Options{})
				if err == nil && r.Tc != wantMcr.Tc {
					t.Errorf("goroutine %d: concurrent MCR Tc %v != %v", i, r.Tc, wantMcr.Tc)
				}
				errs[i] = err
			default:
				r, err := sim.RunMonteCarlo(context.Background(), cc.Overlay(), wantMin.Schedule, cfg, rand.New(rand.NewSource(9)))
				if err == nil && *r != *wantMC {
					t.Errorf("goroutine %d: concurrent campaign %+v != %+v", i, r, wantMC)
				}
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", i, err)
		}
	}
}
