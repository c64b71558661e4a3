package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomOptions draws margin options exercising every folded term.
func randomOptions(rng *rand.Rand, k int) Options {
	var opts Options
	if rng.Float64() < 0.5 {
		opts.Skew = rng.Float64() * 2
	}
	if rng.Float64() < 0.5 {
		opts.PhaseSkew = make([]float64, k)
		for p := range opts.PhaseSkew {
			opts.PhaseSkew[p] = rng.Float64()
		}
	}
	return opts
}

// randomSchedule draws a schedule with arbitrary (not necessarily
// legal) starts/widths — the kernel must agree with the reference on
// any schedule, not just feasible ones.
func randomSchedule(rng *rand.Rand, k int) *Schedule {
	sc := NewSchedule(k)
	sc.Tc = 10 + rng.Float64()*200
	for p := 0; p < k; p++ {
		sc.S[p] = rng.Float64() * sc.Tc
		sc.T[p] = rng.Float64() * sc.Tc
	}
	return sc
}

// TestKernelMatchesReferenceRecurrence: for random circuits, margin
// options, schedules and departure vectors, the compiled kernel
// evaluates the L2 arrival and departure operators bit-for-bit
// identically to the closure-based reference (core.Arrive/DepartLatch
// with ArcWeight and Schedule.PhaseShift).
func TestKernelMatchesReferenceRecurrence(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		opts := randomOptions(rng, c.K())
		sched := randomSchedule(rng, c.K())
		kn := CompileKernel(c, opts)
		shift := kn.ShiftTable(sched, nil)
		d := make([]float64, c.L())
		for i := range d {
			d[i] = rng.Float64() * 100
		}
		for i := 0; i < c.L(); i++ {
			refA := Arrive(c, i,
				func(j int) float64 { return d[j] },
				func(pidx int) float64 { return ArcWeight(c, opts, pidx) },
				sched.PhaseShift)
			gotA := kn.Arrive(i, d, shift)
			if gotA != refA && !(math.IsInf(gotA, -1) && math.IsInf(refA, -1)) {
				t.Logf("sync %d: kernel arrival %v != reference %v", i, gotA, refA)
				return false
			}
			refD := DepartLatch(c, i, refA)
			if c.Sync(i).Kind == FlipFlop {
				refD = 0
			}
			if gotD := kn.Depart(i, d, shift); gotD != refD {
				t.Logf("sync %d: kernel departure %v != reference %v", i, gotD, refD)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}

// TestKernelSlideMatchesReferenceFixpoint: the kernel-backed slide
// lands on a propagation fixpoint of the *reference* operator — the
// residual check below goes through departureOf, which uses the
// closure-based recurrence, so a kernel/reference disagreement would
// surface as a nonzero residual.
func TestKernelSlideMatchesReferenceFixpoint(t *testing.T) {
	prop := func(seed int64, modeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		opts := randomOptions(rng, c.K())
		opts.Update = UpdateMode(int(modeRaw) % 3)
		r, err := MinTc(c, opts)
		if err != nil {
			return true
		}
		return PropagationResidualOpts(c, r.Schedule, r.D, opts) <= Eps
	}
	if err := quick.Check(prop, quickConfig); err != nil {
		t.Fatal(err)
	}
}

// benchRing builds a 2-phase ring of n latches with heavy loop delay —
// the slide has real work to do (borrowing propagates around the
// loop).
func benchRing(n int) *Circuit {
	c := NewCircuit(2)
	for i := 0; i < n; i++ {
		c.AddLatch("", i%2, 1, 2)
	}
	for i := 0; i < n; i++ {
		c.AddPath(i, (i+1)%n, 30)
	}
	return c
}

// BenchmarkSlideDepartures measures one full departure slide (steps
// 3–5 of Algorithm MLP) from the LP point on a 128-latch ring,
// isolated from the LP solve.
func BenchmarkSlideDepartures(b *testing.B) {
	for _, mode := range []UpdateMode{Jacobi, GaussSeidel, EventDriven} {
		b.Run(mode.String(), func(b *testing.B) {
			c := benchRing(128)
			opts := Options{Update: mode}
			r, err := MinTc(c, opts)
			if err != nil {
				b.Fatal(err)
			}
			// Start each iteration from the LP's departure point, not
			// the slid fixpoint, so the slide performs its real work.
			d0 := make([]float64, c.L())
			for i := range d0 {
				d0[i] = r.LPSol.X[r.Vars.D[i]]
			}
			d := make([]float64, len(d0))
			ctx := context.Background()
			kn := CompileKernel(c, opts)
			shift := kn.ShiftTable(r.Schedule, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(d, d0)
				if _, _, err := slideDepartures(ctx, c, kn, shift, d, opts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
