package mcr

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/gen"
)

// arcSet renders a critical cycle as a sorted list of its arcs, so two
// walks of one cycle from different start nodes compare equal.
func arcSet(arcs []CycleArc) []string {
	out := make([]string, len(arcs))
	for i, a := range arcs {
		out[i] = a.From + "->" + a.To
	}
	sort.Strings(out)
	return out
}

// TestWarmSolveStartsAtWitness: after a solve, an edit that keeps the
// same critical cycle leaves that cycle's re-priced ratio as the new
// optimum, so a warm re-solve from a zero bound must finish in one
// feasible probe at it, with the fresh solver's answer.
func TestWarmSolveStartsAtWitness(t *testing.T) {
	ctx := context.Background()
	for _, bm := range []gen.Benchmark{
		{Name: "example1", Circuit: circuits.Example1(80)},
		{Name: "gaas-mips", Circuit: circuits.GaAsMIPS()},
		{Name: "ring-2x32", Circuit: suiteCircuit(t, "ring-2x32")},
	} {
		base := bm.Circuit.MustFreeze().Overlay()
		s, err := NewSolverOverlay(base, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r0, err := s.MinTcFromCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		// A path whose arc lies on the critical cycle.
		onCycle := map[int32]bool{}
		for _, ei := range s.b.witIdx {
			onCycle[ei] = true
		}
		p := -1
		for i, ei := range s.b.pathEdge {
			if ei >= 0 && onCycle[ei] {
				p = i
				break
			}
		}
		if p < 0 {
			t.Fatalf("%s: no path arc on the critical cycle %v", bm.Name, r0.CriticalLoop)
		}
		v := 1.01 * base.Delay(p)
		fresh, err := NewSolverOverlay(base.With(p, v), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.MinTcFromCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(arcSet(want.CriticalArcs)) != fmt.Sprint(arcSet(r0.CriticalArcs)) {
			t.Fatalf("%s: the edit of path %d moved the critical cycle; pick a smaller one", bm.Name, p)
		}
		s.SetDelay(p, v)
		got, err := s.MinTcFromWarmCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Probes != 1 {
			t.Errorf("%s: warm re-solve took %d probes, want 1 at the re-priced witness", bm.Name, got.Probes)
		}
		if d := math.Abs(got.Tc-want.Tc) / want.Tc; d > 1e-12 {
			t.Errorf("%s: warm Tc %.17g, fresh %.17g", bm.Name, got.Tc, want.Tc)
		}
		// The extracting warm solve also ends at the re-priced witness,
		// and reports it as the binding cycle, like the fresh solve.
		gotS, err := s.SolveFromWarmCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantS, err := fresh.SolveFromCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprint(arcSet(gotS.CriticalArcs)), fmt.Sprint(arcSet(wantS.CriticalArcs)); g != w || w == "[]" {
			t.Errorf("%s: warm solve critical arcs %s, fresh %s", bm.Name, g, w)
		}
	}
}

// TestWarmResolvesMatchFresh walks one long-lived solver the way a
// per-point checker does — edit a path, re-solve warm, restore it —
// over the longest paths of every suite circuit, against a fresh
// solver built over the edited overlay. The verdict must match and Tc
// agree to 1e-12 relative. A warm answer taken at the re-priced witness
// sums that cycle from another start arc, so it may differ from the
// fresh one in the last bits; the count is logged.
func TestWarmResolvesMatchFresh(t *testing.T) {
	ctx := context.Background()
	solves, differ, worst := 0, 0, 0.0
	for _, bm := range gen.Suite() {
		base := bm.Circuit.MustFreeze().Overlay()
		s, err := NewSolverOverlay(base, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		paths := bm.Circuit.Paths()
		order := make([]int, len(paths))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return paths[order[i]].Delay > paths[order[j]].Delay })
		for _, p := range order[:min(6, len(order))] {
			d := paths[p].Delay
			for _, v := range []float64{0, 0.5 * d, 0.9 * d, 1.1 * d, 2 * d, 4 * d} {
				s.SetDelay(p, v)
				got, gerr := s.MinTcFromWarmCtx(ctx, 0)
				s.SetDelayMin(p, d, paths[p].MinDelay)
				fresh, err := NewSolverOverlay(base.With(p, v), core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, werr := fresh.MinTcFromCtx(ctx, 0)
				solves++
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s path %d = %g: warm err %v, fresh err %v", bm.Name, p, v, gerr, werr)
				}
				if gerr != nil {
					continue
				}
				if got.Tc != want.Tc {
					differ++
					rel := math.Abs(got.Tc-want.Tc) / math.Max(math.Abs(want.Tc), math.SmallestNonzeroFloat64)
					worst = math.Max(worst, rel)
					if rel > 1e-12 {
						t.Errorf("%s path %d = %g: warm Tc %.17g, fresh %.17g", bm.Name, p, v, got.Tc, want.Tc)
					}
				}
			}
		}
	}
	t.Logf("%d warm re-solves, %d differ from a fresh solve in the last bits (worst %.3g relative)", solves, differ, worst)
}

// TestLongWarmWalkStaysAnchored walks one warm solver the way a
// per-point checker does: 200 sweeps of 32 rising delays over the
// ring's paths, each point edited, re-solved warm and restored. Each
// sweep's first point lowers the cycle time, which lifts every
// potential on the tight ring, the origin's included. Unanchored they
// creep by ~44 per sweep, and past ~2^16 the rounding error over a lap
// of the 1024-edge ring exceeds eps: every probe then pumps noise for
// hundreds of rounds (a re-solve went from 531 relaxations to 45,000
// after ~96k points). The origin must stay at zero and every potential
// within the ring's own spread.
func TestLongWarmWalkStaysAnchored(t *testing.T) {
	c := gen.XLarge()[0].Circuit // ring-2x512
	s, err := NewSolverOverlay(c.MustFreeze().Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	d := c.Paths()[0].Delay
	for k := 0; k < 200; k++ {
		for i := 0; i < 32; i++ {
			s.SetDelay(k%7, 1.5*d*float64(i)/31)
			if _, err := s.MinTcFromWarmCtx(ctx, 0); err != nil {
				t.Fatal(err)
			}
			s.SetDelay(k%7, d)
		}
	}
	if z := s.b.dist[s.b.z]; z != 0 {
		t.Errorf("origin potential %g after the walk, want 0", z)
	}
	for v, x := range s.b.dist {
		if math.Abs(x) > 1024 {
			t.Fatalf("potential of node %d is %g after the walk: the warm start has drifted", v, x)
		}
	}
}
