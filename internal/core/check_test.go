package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestCheckTcAcceptsOptimalSchedule(t *testing.T) {
	for _, d41 := range []float64{0, 40, 80, 120} {
		c := example1(d41)
		r, err := MinTc(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		an, err := CheckTc(c, r.Schedule, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !an.Feasible {
			t.Fatalf("Δ41=%g: optimal schedule rejected: %v", d41, an.Violations)
		}
		// checkTc computes the least fixpoint of L2; MLP slides down
		// from the LP point to some (possibly larger) fixpoint. On a
		// critical loop the fixpoints form a family that slides
		// together, so assert the lattice relation and that both are
		// genuine fixpoints — not equality.
		for i := range an.D {
			if an.D[i] > r.D[i]+1e-6 {
				t.Errorf("Δ41=%g: least fixpoint D[%d]=%g exceeds MLP's %g", d41, i, an.D[i], r.D[i])
			}
		}
		if res := PropagationResidual(c, r.Schedule, an.D); res > 1e-6 {
			t.Errorf("Δ41=%g: analysis D not a fixpoint (residual %g)", d41, res)
		}
	}
}

func TestCheckTcRejectsBelowOptimal(t *testing.T) {
	c := example1(80) // Tc* = 110
	// Build a plausible-looking schedule at Tc = 100: must fail.
	sc := NewSchedule(2)
	sc.Tc = 100
	sc.S = []float64{0, 50}
	sc.T = []float64{50, 50}
	an, err := CheckTc(c, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Fatal("schedule below Tc* accepted")
	}
}

func TestCheckTcDetectsUnstableLoop(t *testing.T) {
	// Loop gains delay every cycle: no periodic steady state.
	c := NewCircuit(1)
	a := c.AddLatch("A", 0, 1, 2)
	c.AddPath(a, a, 50)
	sc := NewSchedule(1)
	sc.Tc = 10 // loop needs 52 per cycle
	sc.S = []float64{0}
	sc.T = []float64{10}
	an, err := CheckTc(c, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible || an.PositiveLoop == nil {
		t.Fatalf("unstable loop not detected: %+v", an)
	}
	if len(an.Violations) == 0 || an.Violations[0].Kind != "unstable" {
		t.Errorf("expected unstable violation, got %v", an.Violations)
	}
}

func TestCheckTcSetupViolationReported(t *testing.T) {
	// Narrow phase: departure (0) + setup (10) > width (5).
	c := NewCircuit(1)
	c.AddLatch("A", 0, 10, 10)
	sc := NewSchedule(1)
	sc.Tc = 100
	sc.T = []float64{5}
	sc.S = []float64{0}
	an, err := CheckTc(c, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Fatal("setup violation missed")
	}
	if an.SetupSlack[0] > -4.9 {
		t.Errorf("setup slack = %g, want about -5", an.SetupSlack[0])
	}
}

func TestCheckTcFFSetup(t *testing.T) {
	// Latch (phi1) feeding FF (phi2): FF captures at s2. Arrival in
	// FF-local time must be <= -setup.
	c := NewCircuit(2)
	l := c.AddLatch("L", 0, 1, 2)
	c.AddFF("F", 1, 3, 1)
	c.AddPath(l, 1, 10)
	_ = l
	// Generous schedule: phi2 starts late enough.
	sc := NewSchedule(2)
	sc.Tc = 100
	sc.S = []float64{0, 50}
	sc.T = []float64{20, 20}
	an, err := CheckTc(c, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Arrival at F: D_L(0) + DQ(2) + 10 + S_{1,2} = 12 + (0-50) = -38;
	// slack = -3 - (-38) = 35.
	if !an.Feasible {
		t.Fatalf("feasible FF timing rejected: %v", an.Violations)
	}
	if math.Abs(an.SetupSlack[1]-35) > 1e-6 {
		t.Errorf("FF setup slack = %g, want 35", an.SetupSlack[1])
	}
	// Tight schedule: phi2 starts at 10: arrival 12-10 = 2 > -3: fail.
	sc.S = []float64{0, 10}
	an, err = CheckTc(c, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Fatal("FF setup violation missed")
	}
}

func TestCheckTcHoldExtension(t *testing.T) {
	// Two latches exchanging data on a two-phase clock; give L2 a hold
	// requirement and a fast path into it.
	build := func(hold float64) *Circuit {
		c := NewCircuit(2)
		a := c.AddLatch("A", 0, 1, 2)
		b := c.AddSync(Synchronizer{Name: "B", Phase: 1, Kind: Latch, Setup: 1, DQ: 2, Hold: hold})
		c.AddPathFull(Path{From: a, To: b, Delay: 20, MinDelay: 0.5})
		c.AddPath(b, a, 10)
		return c
	}
	sc := NewSchedule(2)
	sc.Tc = 60
	sc.S = []float64{0, 30}
	sc.T = []float64{25, 25}
	// Earliest arrival at B: d_A(0)+DQ(2)+0.5+S_{1,2}(0-30) = -27.5;
	// next-wave arrival -27.5+60 = 32.5 after close(25)+hold. With
	// hold = 5: slack = 32.5 - 30 = 2.5 (ok); with hold = 10: -2.5.
	an, err := CheckTc(build(5), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !an.Feasible {
		t.Fatalf("hold-ok case rejected: %v", an.Violations)
	}
	if math.Abs(an.HoldSlack[1]-2.5) > 1e-6 {
		t.Errorf("hold slack = %g, want 2.5", an.HoldSlack[1])
	}
	an, err = CheckTc(build(10), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Fatal("hold violation missed")
	}
	if an.Violations[len(an.Violations)-1].Kind != "hold" {
		t.Errorf("want hold violation, got %v", an.Violations)
	}
}

func TestCheckTcHoldDisabledIsNaN(t *testing.T) {
	c := example1(80)
	r, err := MinTc(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := CheckTc(c, r.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, hs := range an.HoldSlack {
		if !math.IsNaN(hs) {
			t.Errorf("HoldSlack[%d] = %g, want NaN when no hold specified", i, hs)
		}
	}
}

func TestCheckTcClockViolationsSurface(t *testing.T) {
	c := example1(80)
	sc := NewSchedule(2)
	sc.Tc = 200
	sc.S = []float64{0, 20}
	sc.T = []float64{50, 100} // phi1 overlaps phi2 start: C3 violated
	an, err := CheckTc(c, sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Fatal("clock violation not surfaced")
	}
	if an.Violations[0].Kind != "clock" {
		t.Errorf("first violation = %v, want clock", an.Violations[0])
	}
}

func TestCheckTcMatchesMinTcBoundaryRandom(t *testing.T) {
	// For random circuits: the MLP schedule passes CheckTc; shrinking
	// Tc by 5% while scaling the schedule must eventually fail either
	// clock or latch constraints (it may occasionally stay feasible if
	// the binding constraint scales with Tc, so count successes).
	rng := rand.New(rand.NewSource(7))
	accepted := 0
	total := 0
	for iter := 0; iter < 40; iter++ {
		c := randomCircuit(rng)
		r, err := MinTc(c, Options{})
		if err != nil {
			continue
		}
		an, err := CheckTc(c, r.Schedule, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !an.Feasible {
			t.Fatalf("iter %d: optimal schedule fails analysis: %v", iter, an.Violations)
		}
		total++
		// Shrink uniformly.
		sc := r.Schedule.Clone()
		f := 0.95
		sc.Tc *= f
		for i := range sc.S {
			sc.S[i] *= f
			sc.T[i] *= f
		}
		an, err = CheckTc(c, sc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if an.Feasible {
			accepted++
		}
	}
	if total > 0 && accepted == total {
		t.Errorf("shrunken schedules always accepted (%d/%d); analysis looks vacuous", accepted, total)
	}
}

// TestCheckTcWorstSlack: at the optimum every setup slack is
// nonnegative (criticality may live in the loop constraints rather
// than a setup row), and shrinking the whole schedule by 5% pushes a
// slack negative or destabilizes a loop.
func TestCheckTcWorstSlack(t *testing.T) {
	c := example1(80)
	r, err := MinTc(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := CheckTc(c, r.Schedule, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if worst := slices.Min(an.SetupSlack); worst < -1e-6 {
		t.Errorf("worst slack at optimum = %g, want >= 0", worst)
	}
	an, err = CheckTc(c, scaled(r.Schedule, 0.95), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible {
		t.Errorf("5%% shrink still feasible: %+v", an)
	}
}

// TestCheckTcOverlayDelayEdit: a what-if delay edit flips the verdict
// on a fixed schedule, and editing the delay back restores it.
func TestCheckTcOverlayDelayEdit(t *testing.T) {
	cc := example1(80).MustFreeze()
	r, err := MinTcOverlay(cc.Overlay(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ov       DelayOverlay
		feasible bool
	}{
		{cc.Overlay(), true},
		{cc.Overlay().With(3, 200), false},
		{cc.Overlay().With(3, 200).With(3, 80), true},
	} {
		an, err := CheckTcOverlay(tc.ov, r.Schedule, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if an.Feasible != tc.feasible {
			t.Errorf("overlay with %d edits: feasible %v, want %v (%v)", tc.ov.Len(), an.Feasible, tc.feasible, an.Violations)
		}
	}
}

// TestEvaluatorUnstableLoop: the what-if check (a delay edit on a
// frozen circuit's overlay, checked by CheckTcOverlay) turns a stable
// self-loop unstable when the edit makes the loop need more than Tc per
// cycle, names the loop, and leaves the base circuit's verdict alone.
// The name is the one the what-if check carried when it was an
// Evaluator method.
func TestEvaluatorUnstableLoop(t *testing.T) {
	c := NewCircuit(1)
	a := c.AddLatch("A", 0, 1, 2)
	c.AddPath(a, a, 5) // loop needs 7 per cycle
	cc := c.MustFreeze()
	sc := NewSchedule(1)
	sc.Tc, sc.T[0] = 10, 10
	base, err := CheckTcOverlay(cc.Overlay(), sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Feasible || base.PositiveLoop != nil {
		t.Fatalf("stable loop rejected: %+v", base)
	}
	an, err := CheckTcOverlay(cc.Overlay().With(0, 50), sc, Options{}) // loop needs 52 per cycle
	if err != nil {
		t.Fatal(err)
	}
	if an.Feasible || len(an.PositiveLoop) != 1 || an.PositiveLoop[0] != a {
		t.Fatalf("instability missed: %+v", an)
	}
	if len(an.Violations) == 0 || an.Violations[0].Kind != "unstable" {
		t.Errorf("expected unstable violation, got %v", an.Violations)
	}
	if again, err := CheckTcOverlay(cc.Overlay(), sc, Options{}); err != nil || !again.Feasible {
		t.Fatalf("base verdict changed after edits: %+v, %v", again, err)
	}
}

// TestCheckTcRejectsInvalidCircuit: a circuit that fails validation
// (here: no synchronizers) is refused when it is frozen for checking.
func TestCheckTcRejectsInvalidCircuit(t *testing.T) {
	if _, err := CheckTc(NewCircuit(1), SymmetricSchedule(1, 10, 0.5), Options{}); err == nil {
		t.Fatal("invalid circuit checked")
	}
}

// TestOverlayWithPanics: a what-if edit of a path that does not exist,
// or to a delay that is negative or not finite, panics at With time,
// before any analysis reads it.
func TestOverlayWithPanics(t *testing.T) {
	ov := example1(80).MustFreeze().Overlay()
	for _, tc := range []struct {
		path  int
		delay float64
	}{{99, 1}, {-1, 1}, {0, -1}, {0, math.NaN()}, {0, math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("With(%d, %g) did not panic", tc.path, tc.delay)
				}
			}()
			ov.With(tc.path, tc.delay)
		}()
	}
}

// scaled returns sched with Tc, every start and every width
// multiplied by f.
func scaled(sched *Schedule, f float64) *Schedule {
	sc := sched.Clone()
	sc.Tc *= f
	for i := range sc.S {
		sc.S[i] *= f
		sc.T[i] *= f
	}
	return sc
}

// TestLeastFixpointCases drives the propagation on one-phase circuits
// under a hand-set shift, so every arc weighs ΔDQ + Δ + shift: chains,
// primary inputs, loops of zero, negative and positive gain, and the
// positive loop's witness order.
func TestLeastFixpointCases(t *testing.T) {
	type path struct {
		from, to int
		delay    float64
	}
	for _, tc := range []struct {
		name  string
		syncs int
		ffs   []int
		paths []path
		shift float64
		want  []float64 // nil: a positive loop
		loop  []int     // the witness, in arc order
	}{
		{name: "chain", syncs: 4, paths: []path{{0, 1, 5}, {0, 2, 2}, {2, 1, 4}, {1, 3, 1}}, want: []float64{0, 6, 2, 7}},
		{name: "primary-input", syncs: 3, paths: []path{{0, 1, 1}}, want: []float64{0, 1, 0}},
		{name: "zero-gain-loop", syncs: 3, paths: []path{{0, 1, 5}, {1, 2, 4}, {2, 1, 0}}, shift: -2, want: []float64{0, 3, 5}},
		{name: "negative-self-loop", syncs: 2, paths: []path{{0, 1, 3}, {1, 1, 1}}, shift: -2, want: []float64{0, 1}},
		{name: "floor", syncs: 2, paths: []path{{0, 1, 1}}, shift: -2, want: []float64{0, 0}},
		{name: "flip-flop-pinned", syncs: 3, ffs: []int{1}, paths: []path{{0, 1, 9}, {1, 2, 1}, {2, 1, 9}}, want: []float64{0, 0, 1}},
		{name: "positive-self-loop", syncs: 2, paths: []path{{0, 1, 1}, {1, 1, 0.5}}, loop: []int{1}},
		{name: "positive-loop", syncs: 4, paths: []path{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 1, 1}, {2, 0, 0}}, shift: -0.5, loop: []int{3, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCircuit(1)
			for i := 0; i < tc.syncs; i++ {
				if slices.Contains(tc.ffs, i) {
					c.AddFF("", 0, 0, 0)
				} else {
					c.AddLatch("", 0, 0, 0)
				}
			}
			for _, p := range tc.paths {
				c.AddPath(p.from, p.to, p.delay)
			}
			kn := CompileKernel(c, Options{})
			d := make([]float64, tc.syncs)
			loop := leastFixpoint(kn, []float64{tc.shift}, d, new(slideScratch))
			if tc.want == nil {
				if !slices.Equal(loop, tc.loop) {
					t.Fatalf("loop %v, want %v", loop, tc.loop)
				}
				return
			}
			if loop != nil {
				t.Fatalf("spurious positive loop %v", loop)
			}
			if !slices.Equal(d, tc.want) {
				t.Errorf("D = %v, want %v", d, tc.want)
			}
		})
	}
}

// TestCheckTcPositiveLoopIsWitness: every PositiveLoop CheckTc reports
// is a cycle of the kernel — each synchronizer is a latch fed by the
// previous one, the first by the last, none repeated — whose gain at
// the schedule is positive, so the "no periodic steady state" verdict
// is backed by the loop it names. Delays on a coarse grid make many
// loops tie, so several positive loops compete.
func TestCheckTcPositiveLoopIsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	witnessed := 0
	for iter := 0; iter < 600; iter++ {
		c := randomCircuit(rng)
		if iter%2 == 1 {
			for pidx, p := range c.Paths() {
				c.SetPathDelay(pidx, math.Round(p.Delay/5)*5)
			}
		}
		opts := randomOptions(rng, c.K())
		r, err := MinTc(c, opts)
		if err != nil {
			continue
		}
		for _, f := range []float64{0.999999, 0.93, 0.7} {
			sched := scaled(r.Schedule, f)
			an, err := CheckTc(c, sched, opts)
			if err != nil {
				t.Fatal(err)
			}
			loop := an.PositiveLoop
			if loop == nil {
				continue
			}
			witnessed++
			kn := CompileKernel(c, opts)
			shift := kn.ShiftTable(sched, nil)
			seen := map[int]bool{}
			gain := 0.0
			for x, v := range loop {
				u := loop[(x+len(loop)-1)%len(loop)]
				if seen[v] || kn.FF[v] {
					t.Fatalf("iter %d ×%g: loop %v repeats or pins synchronizer %d", iter, f, loop, v)
				}
				seen[v] = true
				// The heaviest parallel arc bounds the witness's own.
				best := math.Inf(-1)
				for a := kn.Start[v]; a < kn.Start[v+1]; a++ {
					if int(kn.Src[a]) == u {
						best = math.Max(best, kn.W[a]+shift[kn.PP[a]])
					}
				}
				if math.IsInf(best, -1) {
					t.Fatalf("iter %d ×%g: loop %v has no arc %d -> %d", iter, f, loop, u, v)
				}
				gain += best
			}
			if !(gain > 0) {
				t.Fatalf("iter %d ×%g: loop %v gains %g per cycle, want > 0", iter, f, loop, gain)
			}
		}
	}
	t.Logf("%d positive loops checked", witnessed)
	if witnessed < 100 {
		t.Fatalf("only %d positive loops checked", witnessed)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: "setup", Sync: 3, Detail: "L4 on phi2", Amount: 1.5}
	if s := v.String(); s == "" {
		t.Error("empty violation string")
	}
}

func BenchmarkCheckTcExample1(b *testing.B) {
	c := example1(80)
	r, err := MinTc(c, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CheckTc(c, r.Schedule, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
