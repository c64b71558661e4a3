package decomp

import (
	"context"
	"testing"

	"mintc/internal/core"
)

// benchRing builds a two-phase ring of n latches plus one chord path
// latch 0 → latch n/2, the swept path (index n). The ring is one
// strongly connected component, so the sweep's only lever is the
// witness-bound walk; over the swept range the chord never becomes
// critical, so every point sits on one straight segment of Tc(Δ).
func benchRing(b *testing.B, n int) *core.Compiled {
	b.Helper()
	c := core.NewCircuit(2)
	for i := 0; i < n; i++ {
		c.AddLatch("", i%2, 1, 2)
	}
	for i := 0; i < n; i++ {
		c.AddPath(i, (i+1)%n, 30)
	}
	c.AddPath(0, n/2, 12) // the swept chord, index n
	cc, err := c.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	return cc
}

func sweepValues(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 5 + float64(i)*30/float64(n)
	}
	return vals
}

// BenchmarkSweep measures the library sweep: one priming pass, then
// per value a warm coupling probe started at the re-priced witness
// bound. Compare against BenchmarkSweepPerSolveBaseline.
func BenchmarkSweep(b *testing.B) {
	cc := benchRing(b, 512)
	values := sweepValues(64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, errs := SweepAll(ctx, cc.Overlay(), core.Options{}, 512, values, Config{}, nil)
		for j := range errs {
			if errs[j] != nil {
				b.Fatal(errs[j])
			}
		}
	}
}

// BenchmarkSweepPerSolveBaseline is the per-point LP reference: the
// same sweep as one independent warm-started MLP solve per value
// (assemble + factor + dual simplex each time).
func BenchmarkSweepPerSolveBaseline(b *testing.B) {
	cc := benchRing(b, 512)
	values := sweepValues(64)
	ctx := context.Background()
	base, err := core.MinTcOverlayCtx(ctx, cc.Overlay(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	warm := base.LPBasis()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range values {
			r, err := core.MinTcOverlayWarmCtx(ctx, cc.Overlay().With(512, v), core.Options{}, warm)
			if err != nil {
				b.Fatal(err)
			}
			_ = r.Schedule.Tc
		}
	}
}
