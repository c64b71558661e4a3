package mcr

import (
	"math"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
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
