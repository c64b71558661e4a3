package mcr

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/gen"
)

func TestSolverMatchesSolveAcrossSweep(t *testing.T) {
	c := circuits.Example1(0)
	s, err := newSolver(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0.0; d <= 150; d += 12.5 {
		s.SetDelay(3, d)
		got, err := s.Solve()
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d, err)
		}
		want := circuits.Example1OptimalTc(d)
		if math.Abs(got.Tc-want) > 1e-6 {
			t.Errorf("Δ41=%g: solver Tc %g, want %g", d, got.Tc, want)
		}
	}
	// The circuit itself was never mutated.
	if c.Paths()[3].Delay != 0 {
		t.Errorf("solver mutated the circuit: %g", c.Paths()[3].Delay)
	}
}

func TestSolverRepeatedSolvesIndependent(t *testing.T) {
	c := circuits.GaAsMIPS()
	s, err := newSolver(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Bump and restore a delay: the solve after restoring must match
	// the first exactly (no hidden state drift).
	s.SetDelay(0, 99)
	if _, err := s.Solve(); err != nil {
		t.Fatal(err)
	}
	s.SetDelay(0, c.Paths()[0].Delay)
	again, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first.Tc-again.Tc) > 1e-12 {
		t.Errorf("state drift: %g vs %g", first.Tc, again.Tc)
	}
	if math.Abs(first.Tc-4.4) > 1e-9 {
		t.Errorf("GaAs Tc = %g", first.Tc)
	}
}

func TestSolverSetDelayPanics(t *testing.T) {
	c := circuits.Example1(80)
	s, err := newSolver(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.SetDelay(99, 1)
}

func TestSolverRejectsInvalid(t *testing.T) {
	if _, err := newSolver(core.NewCircuit(1), core.Options{}); err == nil {
		t.Fatal("invalid circuit compiled")
	}
}

func BenchmarkSolverVsFreshSolve(b *testing.B) {
	c := circuits.GaAsMIPS()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Solve(c, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		s, err := newSolver(c, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// buildAllocs counts the objects one NewSolverOverlay and one
// NewComponentSolver (over the largest latch-graph component) allocate
// on circuit c.
func buildAllocs(t *testing.T, c *core.Circuit) (full, comp float64) {
	t.Helper()
	cc := c.MustFreeze()
	ov := cc.Overlay()
	pt := cc.Partition()
	big := 0
	for ci := 1; ci < pt.NumComponents(); ci++ {
		if len(pt.Members(ci)) > len(pt.Members(big)) {
			big = ci
		}
	}
	var err error
	full = testing.AllocsPerRun(5, func() {
		if _, e := NewSolverOverlay(ov, core.Options{}); e != nil {
			err = e
		}
	})
	comp = testing.AllocsPerRun(5, func() {
		if _, e := NewComponentSolver(ov, core.Options{}, pt.Members(big)); e != nil {
			err = e
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return full, comp
}

// TestBuildAllocs pins the allocation count of a constraint-graph
// build: the edge list is sized before it is filled and node names
// are rendered only for witness cycles, so building the full graph or
// a component's subsystem allocates a fixed set of slices, the same on
// Example 1 (4 synchronizers) as on rand-huge-10k (10,000). One string
// per node or one append regrowth per doubling would add thousands or
// more.
func TestBuildAllocs(t *testing.T) {
	const ceiling = 16
	smallFull, smallComp := buildAllocs(t, circuits.Example1(80))
	var huge *core.Circuit
	for _, bm := range gen.Huge() {
		if bm.Name == "rand-huge-10k" {
			huge = bm.Circuit
		}
	}
	bigFull, bigComp := buildAllocs(t, huge)
	t.Logf("allocs per build: full %.0f / %.0f, component %.0f / %.0f (example1-80 / rand-huge-10k)",
		smallFull, bigFull, smallComp, bigComp)
	if bigFull > ceiling || bigComp > ceiling {
		t.Errorf("rand-huge-10k build allocates %.0f (full) / %.0f (component) objects, ceiling %d", bigFull, bigComp, ceiling)
	}
	// AllocsPerRun reads process-wide counters, so allow a stray runtime
	// allocation; per-node work would add thousands.
	if bigFull > smallFull+2 || bigComp > smallComp+2 {
		t.Errorf("build allocations grow with the circuit: full %.0f -> %.0f, component %.0f -> %.0f",
			smallFull, bigFull, smallComp, bigComp)
	}
}

// holdVariant rebuilds a circuit with a hold requirement on every
// synchronizer and MinDelay at half of every delay, so DesignForHold
// emits a hold edge per path.
func holdVariant(c *core.Circuit) *core.Circuit {
	out := core.NewCircuit(c.K())
	for _, s := range c.Syncs() {
		s.Hold = 0.1
		out.AddSync(s)
	}
	for _, p := range c.Paths() {
		p.MinDelay = p.Delay / 2
		out.AddPathFull(p)
	}
	return out
}

// TestSetDelayMatchesFreshBuild: an edited solver must answer bit for
// bit like a solver built over the edited overlay. Every gen.Suite
// path, on the plain circuit and on a hold variant under
// DesignForHold with a skew margin, is raised to 2d+5 and then cut to
// a quarter of its MinDelay (which moves the hold edge too), each
// edit on one long-lived solver: every edge constant, Tc, D and the
// witness arcs must equal the fresh build's, and editing the delay
// back must restore the original constants exactly.
func TestSetDelayMatchesFreshBuild(t *testing.T) {
	consts := func(s *Solver) []float64 {
		a := make([]float64, len(s.b.edges))
		for i, e := range s.b.edges {
			a[i] = e.a
		}
		return a
	}
	sameBits := func(x, y []float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return len(x) == len(y)
	}
	edits := 0
	for _, bm := range gen.Suite() {
		for _, v := range []struct {
			name string
			c    *core.Circuit
			opts core.Options
		}{
			{"plain", bm.Circuit, core.Options{}},
			{"hold", holdVariant(bm.Circuit), core.Options{DesignForHold: true, Skew: 0.125}},
		} {
			base := v.c.MustFreeze().Overlay()
			s, err := NewSolverOverlay(base, v.opts)
			if err != nil {
				t.Fatal(err)
			}
			orig := consts(s)
			for p, path := range v.c.Paths() {
				for _, d := range []float64{2*path.Delay + 5, path.MinDelay / 4} {
					where := fmt.Sprintf("%s/%s path %d -> %v", bm.Name, v.name, p, d)
					s.SetDelay(p, d)
					fresh, err := NewSolverOverlay(base.With(p, d), v.opts)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(consts(s), consts(fresh)) {
						t.Fatalf("%s: edge constants differ from a fresh build", where)
					}
					got, gerr := s.Solve()
					want, werr := fresh.Solve()
					if (gerr == nil) != (werr == nil) {
						t.Fatalf("%s: edited solver err %v, fresh build %v", where, gerr, werr)
					}
					if gerr == nil {
						if math.Float64bits(got.Tc) != math.Float64bits(want.Tc) || !sameBits(got.D, want.D) ||
							!reflect.DeepEqual(got.CriticalArcs, want.CriticalArcs) {
							t.Fatalf("%s: edited solver Tc %v, fresh build %v", where, got.Tc, want.Tc)
						}
					}
					edits++
				}
				s.SetDelayMin(p, path.Delay, path.MinDelay)
				if !sameBits(consts(s), orig) {
					t.Fatalf("%s/%s path %d: restoring the delay left different constants", bm.Name, v.name, p)
				}
			}
		}
	}
	t.Logf("%d edits", edits)
}
