// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact), the quantitative §IV–V
// claims, and ablations over the design choices called out in
// DESIGN.md (MLP update modes, LP versus min-cycle-ratio engines,
// scaling with circuit size).
//
// Run with: go test -bench=. -benchmem
package mintc_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mintc"
	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/experiments"
	"mintc/internal/gen"
	"mintc/internal/mcr"
	"mintc/internal/nrip"
	"mintc/internal/sim"
)

// --- Figures and tables ---

// BenchmarkFig3ClockModel builds and validates the 2-, 3- and 4-phase
// reference clocks of Fig. 3.
func BenchmarkFig3ClockModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4TheoremToy solves the Theorem 1 geometric toy problem.
func BenchmarkFig4TheoremToy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5BuildExample1 constructs the Example 1 circuit.
func BenchmarkFig5BuildExample1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := circuits.Example1(80); c.L() != 4 {
			b.Fatal("bad circuit")
		}
	}
}

// BenchmarkFig6Example1Solve runs Algorithm MLP on the three Fig. 6
// design points (Δ41 = 80, 100, 120 → Tc = 110, 120, 140).
func BenchmarkFig6Example1Solve(b *testing.B) {
	for _, d41 := range []float64{80, 100, 120} {
		b.Run(fmt.Sprintf("d41=%g", d41), func(b *testing.B) {
			c := circuits.Example1(d41)
			want := circuits.Example1OptimalTc(d41)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := core.MinTc(c, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if math.Abs(r.Schedule.Tc-want) > 1e-6 {
					b.Fatalf("Tc = %g, want %g", r.Schedule.Tc, want)
				}
			}
		})
	}
}

// BenchmarkFig7Sweep regenerates the full Tc-versus-Δ41 curve (MLP,
// NRIP, edge-triggered), the paper's central comparison figure.
func BenchmarkFig7Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7Sweep(10)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 15 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig8BuildExample2 constructs the Example 2 reconstruction.
func BenchmarkFig8BuildExample2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := circuits.Example2(); c.L() != 11 {
			b.Fatal("bad circuit")
		}
	}
}

// BenchmarkFig9Example2 reruns the MLP-versus-NRIP comparison whose
// gap the paper reports as 35%.
func BenchmarkFig9Example2(b *testing.B) {
	c := circuits.Example2()
	for i := 0; i < b.N; i++ {
		opt, err := core.MinTc(c, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		nr, err := mintc.MinTcNRIP(c, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if g := nrip.Gap(nr.Schedule.Tc, opt.Schedule.Tc); g < 0.30 || g > 0.40 {
			b.Fatalf("gap %g out of band", g)
		}
	}
}

// BenchmarkFig10BuildGaAs constructs the GaAs MIPS timing model.
func BenchmarkFig10BuildGaAs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := circuits.GaAsMIPS(); c.L() != 18 {
			b.Fatal("bad model")
		}
	}
}

// BenchmarkFig11GaAs measures the full optimal-clock computation on
// the 91-constraint GaAs model — the paper's "hardly noticeable ...
// a few seconds on a DECStation 3100" data point.
func BenchmarkFig11GaAs(b *testing.B) {
	c := circuits.GaAsMIPS()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := core.MinTc(c, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if math.Abs(r.Schedule.Tc-4.4) > 1e-6 || r.NumConstraints != 91 {
			b.Fatalf("Tc = %g rows = %d", r.Schedule.Tc, r.NumConstraints)
		}
	}
}

// BenchmarkTableITransistorCounts regenerates the Table I inventory.
func BenchmarkTableITransistorCounts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.TableI()
		if err != nil || len(s) == 0 {
			b.Fatal("table failed")
		}
	}
}

// BenchmarkAppendixFig1ConstraintGen generates the full constraint set
// of the appendix's 11-latch four-phase circuit.
func BenchmarkAppendixFig1ConstraintGen(b *testing.B) {
	c := circuits.Fig1(circuits.DefaultFig1Delays(), 2, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, _, rows := core.BuildLP(c, core.Options{})
		if p.NumConstraints() != len(rows) {
			b.Fatal("row mismatch")
		}
	}
}

// --- §IV-V claims ---

// BenchmarkSimplexPivots tracks the pivots-per-constraint ratio on the
// paper's examples (claim: the simplex reaches the optimum in n..3n
// steps on average).
func BenchmarkSimplexPivots(b *testing.B) {
	cases := []struct {
		name string
		c    *core.Circuit
	}{
		{"Example1", circuits.Example1(80)},
		{"Fig1", circuits.Fig1(circuits.DefaultFig1Delays(), 2, 3)},
		{"GaAs", circuits.GaAsMIPS()},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var pivots, rows int
			for i := 0; i < b.N; i++ {
				r, err := core.MinTc(tc.c, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				pivots, rows = r.Pivots, r.NumConstraints
			}
			b.ReportMetric(float64(pivots), "pivots")
			b.ReportMetric(float64(pivots)/float64(rows), "pivots/row")
		})
	}
}

// BenchmarkMLPUpdateIterations tracks the departure-update iteration
// count (claim: usually 2-3, sometimes zero).
func BenchmarkMLPUpdateIterations(b *testing.B) {
	c := circuits.GaAsMIPS()
	var iters int
	for i := 0; i < b.N; i++ {
		r, err := core.MinTc(c, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters = r.UpdateIterations
	}
	b.ReportMetric(float64(iters), "iterations")
}

// --- Ablations ---

// BenchmarkAblationUpdateMode compares the three MLP update strategies
// (paper: Jacobi in the listing; Gauss–Seidel and event-driven noted
// as refinements).
func BenchmarkAblationUpdateMode(b *testing.B) {
	c := circuits.GaAsMIPS()
	for _, mode := range []core.UpdateMode{core.Jacobi, core.GaussSeidel, core.EventDriven} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MinTc(c, core.Options{Update: mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEngine compares the LP (Algorithm MLP) engine with
// the min-cycle-ratio engine the paper's conclusion anticipates, on
// growing random circuits.
func BenchmarkAblationEngine(b *testing.B) {
	sizes := []int{10, 40, 160}
	for _, size := range sizes {
		rng := rand.New(rand.NewSource(int64(size)))
		c := gen.Random(rng, gen.RandomConfig{MaxSyncs: size, MaxPhases: 4, EdgeFactor: 2})
		// Make sure it is solvable before timing.
		if _, err := core.MinTc(c, core.Options{}); err != nil {
			continue
		}
		b.Run(fmt.Sprintf("lp/l=%d", c.L()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.MinTc(c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mcr/l=%d", c.L()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mcr.Solve(c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBaselines times the two baselines next to the
// optimal engine on Example 2.
func BenchmarkAblationBaselines(b *testing.B) {
	c := circuits.Example2()
	b.Run("mlp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinTc(c, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nrip", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mintc.MinTcNRIP(c, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ettf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mintc.MinTcEdgeTriggered(c, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScalingRings measures MinTc on growing latch rings (the
// paper's complexity discussion: constraints grow linearly in l).
func BenchmarkScalingRings(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		c, err := gen.Ring(2, n, 1, 2, func(i int) float64 { return float64(10 + i%7) })
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("lp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.MinTc(c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("mcr/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mcr.Solve(c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulationGaAs measures the dynamic validator.
func BenchmarkSimulationGaAs(b *testing.B) {
	c := circuits.GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ov := c.MustFreeze().Overlay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(context.Background(), ov, r.Schedule, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPI exercises the façade end to end (parse → solve →
// render), the path a downstream user takes.
func BenchmarkPublicAPI(b *testing.B) {
	src := `
clock 2
latch L1 phase 1 setup 10 dq 10
latch L2 phase 2 setup 10 dq 10
path L1 -> L2 delay 20
path L2 -> L1 delay 60
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := mintc.ParseCircuitString(src)
		if err != nil {
			b.Fatal(err)
		}
		r, err := mintc.MinTc(c, mintc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if s := mintc.RenderDiagram(c, r.Schedule, r.D, mintc.RenderOptions{}); len(s) == 0 {
			b.Fatal("empty diagram")
		}
	}
}

// BenchmarkSuite runs the optimal engine over the named benchmark
// circuits (paper examples + synthetic workloads).
func BenchmarkSuite(b *testing.B) {
	for _, bench := range gen.Suite() {
		b.Run(bench.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := core.MinTc(bench.Circuit, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if bench.OptimalTc > 0 && math.Abs(r.Schedule.Tc-bench.OptimalTc) > 1e-6*(1+bench.OptimalTc) {
					b.Fatalf("Tc = %g, oracle %g", r.Schedule.Tc, bench.OptimalTc)
				}
			}
		})
	}
}

// BenchmarkAblationParametricVsSampling compares the parametric
// reconstruction of the Fig. 7 curve (a handful of LP solves) against
// naive point sampling (one solve per point).
func BenchmarkAblationParametricVsSampling(b *testing.B) {
	b.Run("parametric", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := circuits.Example1(0)
			segs, err := core.ParametricDelay(c, core.Options{}, 3, 0, 140)
			if err != nil {
				b.Fatal(err)
			}
			if len(segs) != 3 {
				b.Fatalf("segments = %d", len(segs))
			}
		}
	})
	b.Run("sampling15", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for d := 0.0; d <= 140; d += 10 {
				if _, err := core.MinTc(circuits.Example1(d), core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkLexTieBreak measures the cost of the duty-cycle style
// secondary optimization over plain MinTc.
func BenchmarkLexTieBreak(b *testing.B) {
	c := circuits.GaAsMIPS()
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinTc(c, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("max-min-width", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.MinTcLex(c, core.Options{}, core.MaxMinPhaseWidth); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCheckTcOverlay measures the LEADOUT-style repeated
// analysis on the GaAs model: CheckTc, which freezes the circuit on
// every call, against CheckTcOverlay over one frozen snapshot.
func BenchmarkCheckTcOverlay(b *testing.B) {
	c := circuits.GaAsMIPS()
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("CheckTc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.CheckTc(c, r.Schedule, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("overlay", func(b *testing.B) {
		ov := c.MustFreeze().Overlay()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.CheckTcOverlay(ov, r.Schedule, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
