package engine_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/gen"
)

// largePipeline is a >=2000-latch generated circuit whose LP has
// thousands of rows — an LP-based solve takes several seconds, far
// beyond the deadlines used below.
func largePipeline() *core.Circuit {
	return gen.Pipeline(4, 2400, 1, 2, func(i int) float64 { return float64(10 + i%7) })
}

// largeRing is a cyclic workload for the min-cycle-ratio engine (a
// feedforward pipeline has no cycles, so mcr would finish instantly).
func largeRing(t *testing.T, n int) *core.Circuit {
	t.Helper()
	c, err := gen.Ring(4, n, 1, 2, func(i int) float64 { return float64(10 + i%7) })
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMinTcDeadlineLargeCircuit is the repo's cancellation acceptance
// criterion: MinTc under a 50 ms deadline on a >=2000-latch generated
// circuit must return context.DeadlineExceeded within twice the
// deadline — the hot loops (tableau construction, simplex pivots,
// departure slide) poll the context, so a solve that would take
// seconds aborts in tens of milliseconds.
func TestMinTcDeadlineLargeCircuit(t *testing.T) {
	c := largePipeline()
	if c.L() < 2000 {
		t.Fatalf("workload has %d latches, want >= 2000", c.L())
	}
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := core.MinTcCtx(ctx, c, core.Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Errorf("MinTc returned after %v, want within %v", elapsed, 2*deadline)
	}
}

// TestMidSolveCancellation cancels each engine's context while the
// solve is in flight (not before it starts) and checks that the engine
// returns ctx.Err() promptly, that the engine layer still delivers a
// Result with the partial stats, and that no goroutines leak.
func TestMidSolveCancellation(t *testing.T) {
	pipe := largePipeline()
	ring := largeRing(t, 6000)
	// The mcr solve must still be running when the cancel fires. On a
	// 2-vCPU host a 6000-latch ring solves in about 12 ms, before the
	// 20 ms cancel; a 100k-latch one takes about 0.3 s.
	bigRing := largeRing(t, 100000)

	// A valid 4-phase schedule from a small circuit: schedules are
	// per-phase, so it drives the simulator on any 4-phase workload.
	small := gen.Pipeline(4, 8, 1, 2, func(i int) float64 { return 10 })
	opt, err := engine.Solve(context.Background(), "mlp", small, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		c    *core.Circuit
		opts engine.Options
	}{
		{name: "mlp", c: pipe},
		{name: "ettf", c: pipe},
		{name: "nrip", c: pipe},
		{name: "mcr", c: bigRing},
		{name: "sim", c: ring, opts: engine.Options{
			Schedule:  opt.Schedule,
			SimCycles: 2_000_000,
			Trials:    1000,
			Seed:      1,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(20*time.Millisecond, cancel)
			defer timer.Stop()
			defer cancel()

			start := time.Now()
			res, err := engine.Solve(ctx, tc.name, tc.c, tc.opts)
			elapsed := time.Since(start)

			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if elapsed > 2*time.Second {
				t.Errorf("cancellation honored after %v, want prompt return", elapsed)
			}
			if res == nil {
				t.Fatal("want a non-nil Result carrying partial stats")
			}
			if res.Engine != tc.name {
				t.Errorf("Result.Engine = %q, want %q", res.Engine, tc.name)
			}

			// The engines are synchronous: a solve must not leave helper
			// goroutines behind. Allow the runtime a moment to settle.
			deadline := time.Now().Add(time.Second)
			for {
				if g := runtime.NumGoroutine(); g <= before {
					break
				}
				if time.Now().After(deadline) {
					t.Errorf("goroutines: %d before solve, %d after", before, runtime.NumGoroutine())
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
