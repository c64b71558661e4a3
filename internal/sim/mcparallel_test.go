package sim

import (
	"context"
	"math/rand"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// TestParallelMonteCarloMatchesSequential: with a fixed seed, the
// Monte-Carlo result must be bit-identical for every worker count —
// the per-trial sub-RNG scheme makes trial outcomes independent of
// scheduling, and the merge is order-independent.
func TestParallelMonteCarloMatchesSequential(t *testing.T) {
	for _, bm := range gen.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			r, err := core.MinTc(bm.Circuit, core.Options{})
			if err != nil {
				t.Skipf("MinTc: %v", err)
			}
			cfg := MCConfig{Cycles: 8, Trials: 24, Workers: 1}
			seq, err := RunMonteCarlo(context.Background(), frozen(bm.Circuit), r.Schedule, cfg, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			if seq.Trials != cfg.Trials {
				t.Fatalf("sequential run completed %d trials, want %d", seq.Trials, cfg.Trials)
			}
			for _, workers := range []int{0, 2, 3, 8, 64} {
				cfg.Workers = workers
				par, err := RunMonteCarlo(context.Background(), frozen(bm.Circuit), r.Schedule, cfg, rand.New(rand.NewSource(7)))
				if err != nil {
					t.Fatal(err)
				}
				if *par != *seq {
					t.Fatalf("workers=%d: %+v != sequential %+v", workers, par, seq)
				}
			}
		})
	}
}

// TestParallelMonteCarloCancellation: cancelling mid-campaign returns
// promptly with the context error and a merged partial result.
func TestParallelMonteCarloCancellation(t *testing.T) {
	c := suiteCircuit(t, "ring-2x128")
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunMonteCarlo(ctx, frozen(c), r.Schedule,
		MCConfig{Cycles: 1 << 20, Trials: 1 << 20, Workers: 4}, rand.New(rand.NewSource(1)))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("nil result on cancellation")
	}
	if res.Trials != 0 {
		t.Fatalf("pre-cancelled run completed %d trials", res.Trials)
	}
}

func suiteCircuit(tb testing.TB, name string) *core.Circuit {
	tb.Helper()
	for _, bm := range gen.Suite() {
		if bm.Name == name {
			return bm.Circuit
		}
	}
	tb.Fatalf("suite workload %q not found", name)
	return nil
}

// BenchmarkMonteCarloTrial measures one randomized trial (32 cycles)
// on the 256-latch ring, sequentially, isolating the kernel-backed
// trial loop from worker scheduling.
func BenchmarkMonteCarloTrial(b *testing.B) {
	c := suiteCircuit(b, "ring-2x128")
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ov := frozen(c)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunMonteCarlo(context.Background(), ov, r.Schedule, MCConfig{Trials: 1, Workers: 1}, rng); err != nil {
			b.Fatal(err)
		}
	}
}
