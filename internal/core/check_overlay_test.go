package core_test

import (
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// analysisCircuits returns the circuits the analysis gates and
// benchmarks run on: the GaAs model (one 18-synchronizer loop) and the
// 512-latch ring and random pair.
func analysisCircuits(t testing.TB) []gen.Benchmark {
	t.Helper()
	var out []gen.Benchmark
	for _, bm := range gen.Suite() {
		if bm.Name == "gaas-mips" {
			out = append(out, bm)
		}
	}
	return append(out, gen.XLarge()...)
}

// TestCheckTcOverlayAllocs pins the allocations of a repeated analysis
// over one frozen snapshot: the kernel, its component order and the
// fixpoint scratch are reused, so a check on an empty overlay at a
// feasible schedule allocates only its result (the Analysis and its
// D, A, Q, SetupSlack and HoldSlack slices) — the same small count on
// 18 synchronizers as on 512.
func TestCheckTcOverlayAllocs(t *testing.T) {
	if !scratchPooled {
		t.Skip("allocation counts assume pooled solve scratch (not under -race or -tags noscratch)")
	}
	const ceiling = 12
	var first float64
	var firstName string
	for i, bm := range analysisCircuits(t) {
		cc := bm.Circuit.MustFreeze()
		ov := cc.Overlay()
		r, err := core.MinTcOverlay(ov, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(50, func() {
			an, err := core.CheckTcOverlay(ov, r.Schedule, core.Options{})
			if err != nil || !an.Feasible {
				t.Fatalf("%s: optimal schedule rejected: %v %v", bm.Name, err, an.Violations)
			}
		})
		t.Logf("%s: %.0f allocations per CheckTcOverlay", bm.Name, n)
		if n > ceiling {
			t.Errorf("%s: CheckTcOverlay allocates %.0f times, ceiling %d", bm.Name, n, ceiling)
		}
		if i == 0 {
			first, firstName = n, bm.Name
		} else if n != first {
			t.Errorf("%s: CheckTcOverlay allocates %.0f times, %.0f on %s: the count depends on the circuit", bm.Name, n, first, firstName)
		}
	}
}

// BenchmarkCheckTcOverlay measures one repeated analysis over a frozen
// snapshot at the optimal schedule — the LEADOUT-style inner step of a
// design loop — on Example 1 (Δ41 = 80), the GaAs model and the
// 512-latch pair, with no edit and with one what-if delay edit (the
// edit costs a private copy of the kernel's weight arrays).
func BenchmarkCheckTcOverlay(b *testing.B) {
	bms := append([]gen.Benchmark{gen.Suite()[0]}, analysisCircuits(b)...)
	for _, bm := range bms {
		cc := bm.Circuit.MustFreeze()
		r, err := core.MinTcOverlay(cc.Overlay(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		p := bm.Circuit.Paths()[0]
		for _, v := range []struct {
			name string
			ov   core.DelayOverlay
		}{
			{"empty", cc.Overlay()},
			{"edit", cc.Overlay().With(0, p.Delay/2)},
		} {
			b.Run(bm.Name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.CheckTcOverlay(v.ov, r.Schedule, core.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
