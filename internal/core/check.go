package core

import (
	"fmt"
	"math"
	"slices"
)

// Violation describes one failed timing requirement found by CheckTc.
type Violation struct {
	Kind   string // "clock", "setup", "ff-setup", "hold", "unstable"
	Sync   int    // synchronizer index, or -1
	Detail string
	Amount float64 // positive magnitude of the violation
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (by %.6g)", v.Kind, v.Detail, v.Amount)
}

// Analysis is the outcome of verifying a circuit against a fixed clock
// schedule (the paper's "analysis problem").
type Analysis struct {
	// Feasible is true when every clock and latch constraint holds.
	Feasible bool
	// D, A, Q are the steady-state departure/arrival/output times (the
	// least fixpoint of the propagation operator), valid when the
	// schedule admits a periodic steady state.
	D, A, Q []float64
	// SetupSlack[i] is the margin of synchronizer i's setup check
	// (negative = violated): T_{p_i} − ΔDC_i − D_i for latches,
	// −ΔDC_i − A_i for flip-flops.
	SetupSlack []float64
	// HoldSlack[i] is the hold-check margin for synchronizers with a
	// nonzero Hold (an extension beyond the paper); NaN when unchecked.
	HoldSlack []float64
	// Violations lists every failed requirement.
	Violations []Violation
	// PositiveLoop, when non-nil, names the synchronizers of a loop
	// whose delays exceed its clock allocation, making a periodic
	// steady state impossible at this schedule.
	PositiveLoop []int
}

// CheckTc verifies a circuit against a concrete clock schedule: the
// analysis problem of the paper's introduction ("determine if these
// constraints are indeed satisfied for a given circuit and a given
// clocking scheme"). The departure times are the least fixpoint of the
// propagation constraints L2 (see leastFixpoint); cyclic dependencies
// are handled natively (no unrolling).
//
// The circuit is frozen first and checked through its empty overlay;
// callers that check one circuit repeatedly freeze once and call
// CheckTcOverlay.
func CheckTc(c *Circuit, sched *Schedule, opts Options) (*Analysis, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return CheckTcOverlay(cc.Overlay(), sched, opts)
}

// CheckTcOverlay is CheckTc against a frozen snapshot seen through a
// delay overlay: the verification runs on the overlay's effective
// delays without materializing a circuit, reusing the snapshot's
// cached kernel, component order and pooled scratch, so repeated
// checks with different schedules or delay edits pay only for the
// propagation and the result slices — the "compilation of the timing
// constraints into a fast-executing program which allows repeated
// analysis of a circuit with different clocking or device parameters"
// the paper's related-work section credits to LEADOUT. The snapshot
// was validated at Freeze, so no re-validation happens per call; the
// overlay itself validates edits at With time.
func CheckTcOverlay(ov DelayOverlay, sched *Schedule, opts Options) (*Analysis, error) {
	if !ov.Valid() {
		return nil, fmt.Errorf("core: CheckTcOverlay on a zero DelayOverlay (start from Compiled.Overlay)")
	}
	c := ov.base.c
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validatePhaseSkew(c); err != nil {
		return nil, err
	}
	an := &Analysis{Feasible: true}

	// Clock constraints C1–C4.
	for _, cv := range sched.validateClock(c, ov.base.kmat) {
		an.Violations = append(an.Violations, Violation{Kind: "clock", Sync: -1, Detail: cv.Constraint, Amount: cv.Amount})
		an.Feasible = false
	}

	// Edge weights carry the same skew margins as the LP's L2R rows —
	// the kernel pre-folds the same ArcWeight shared with BuildLP and
	// the MLP slide — so analysis and design agree exactly under
	// Options.Skew/PhaseSkew.
	kn := ov.Kernel(opts)
	sc := kn.getSlide()
	defer kn.putSlide(sc)
	sc.shift = kn.ShiftTable(sched, sc.shift)
	shift := sc.shift
	l := c.L()
	d := make([]float64, l)
	if loop := leastFixpoint(kn, shift, d, sc); loop != nil {
		an.Feasible = false
		an.PositiveLoop = loop
		an.Violations = append(an.Violations, Violation{
			Kind: "unstable", Sync: -1,
			Detail: fmt.Sprintf("loop %v gains delay every cycle at this schedule (no periodic steady state)", loopNames(c, an.PositiveLoop)),
			Amount: math.Inf(1),
		})
		return an, nil
	}
	an.D = d
	an.A = make([]float64, l)
	kn.ArriveAll(d, shift, an.A) // margin-adjusted, like the fixpoint
	an.Q = Outputs(c, d)

	// Setup checks (margins on the propagation side are already in the
	// arrival values; L1 additionally tightens by the capture-side
	// margins, mirroring BuildLP exactly).
	an.SetupSlack = make([]float64, l)
	for i, s := range c.Syncs() {
		var slack float64
		switch s.Kind {
		case Latch:
			slack = sched.T[s.Phase] - s.Setup - opts.Skew - opts.sigma(s.Phase) - d[i]
		case FlipFlop:
			if math.IsInf(an.A[i], -1) {
				slack = math.Inf(1) // no fanin: nothing to set up
			} else {
				slack = -s.Setup - an.A[i]
			}
		}
		an.SetupSlack[i] = slack
		if slack < -Eps {
			an.Feasible = false
			kind := "setup"
			if s.Kind == FlipFlop {
				kind = "ff-setup"
			}
			an.Violations = append(an.Violations, Violation{
				Kind: kind, Sync: i,
				Detail: fmt.Sprintf("%s on %s", c.SyncName(i), c.PhaseName(s.Phase)),
				Amount: -slack,
			})
		}
	}

	// Hold checks (extension; enabled per synchronizer by Hold > 0).
	an.HoldSlack = holdSlacks(ov, sched, opts)
	for i, hs := range an.HoldSlack {
		if !math.IsNaN(hs) && hs < -Eps {
			an.Feasible = false
			an.Violations = append(an.Violations, Violation{
				Kind: "hold", Sync: i,
				Detail: fmt.Sprintf("%s on %s", c.SyncName(i), c.PhaseName(c.Sync(i).Phase)),
				Amount: -hs,
			})
		}
	}
	return an, nil
}

// fixpointEps is the least fixpoint's acceptance threshold: a
// relaxation must raise a departure by more than this to count, so
// round-off on zero-gain loops cannot refine forever.
const fixpointEps = 1e-9

// leastFixpoint fills d with the least fixpoint of the kernel's
// departure operator D_i = max(0, max_j (D_j + ΔDQ_j + Δ_ji + S)) at
// the schedule's shift table, flip-flops pinned at 0. It iterates only
// inside loops: the latch graph's strongly connected components
// (Kernel.fixpointOrder) are visited sources first, an acyclic one is
// relaxed once — its fanin is final by then — and a cyclic one is
// swept Gauss–Seidel in ascending member order until no departure
// rises. A longest simple path through a component has fewer arcs
// than it has members, so a component that still changes on pass
// |comp|+1 holds a loop that gains delay every cycle: d is then not a
// fixpoint, and the returned loop names that loop's synchronizers in
// arc order, traced back through the per-node predecessor arcs kept in
// sc. A nil loop means d is the fixpoint.
func leastFixpoint(kn *Kernel, shift, d []float64, sc *slideScratch) (loop []int) {
	l := kn.L()
	if cap(sc.pred) < l {
		sc.pred = make([]int32, l)
	}
	pred := sc.pred[:l]
	for i := range d {
		d[i] = 0
		pred[i] = -1
	}
	members, compStart, cyclic, bySrc := kn.fixpointOrder()
	for ci := len(compStart) - 2; ci >= 0; ci-- {
		comp := members[compStart[ci]:compStart[ci+1]]
		if !cyclic[ci] {
			kn.raise(comp[0], bySrc, shift, d, pred)
			continue
		}
		for pass := 0; pass <= len(comp); pass++ {
			last := int32(-1)
			for _, i := range comp {
				if kn.raise(i, bySrc, shift, d, pred) {
					last = i
				}
			}
			if last < 0 {
				break
			}
			if pass == len(comp) {
				return kn.traceLoop(pred, last)
			}
		}
	}
	return nil
}

// raise relaxes every fanin arc of synchronizer i, accepting
// d[Src] + (W + shift) when it exceeds d[i] by more than fixpointEps
// and recording the arc in pred; it reports whether d[i] rose.
// Flip-flops never rise. Among candidates within fixpointEps of each
// other the first one found stays, so the arcs go by ascending source
// (bySrc): the order a source-major longest-path scan meets them,
// which is how the parity tests' Bellman–Ford oracle resolves such
// near-ties too.
func (kn *Kernel) raise(i int32, bySrc []int32, shift, d []float64, pred []int32) bool {
	if kn.FF[i] {
		return false
	}
	rose := false
	for _, a := range bySrc[kn.Start[i]:kn.Start[i+1]] {
		if v := d[kn.Src[a]] + (kn.W[a] + shift[kn.PP[a]]); v > d[i]+fixpointEps {
			d[i] = v
			pred[i] = a
			rose = true
		}
	}
	return rose
}

// traceLoop extracts a positive loop from the predecessor arcs after
// synchronizer v rose on a pass that proves one exists: walking L
// steps back lands on the loop, which is then read off backwards and
// returned in arc order (each synchronizer feeds the next, the last
// feeds the first).
func (kn *Kernel) traceLoop(pred []int32, v int32) []int {
	l := kn.L()
	for i := 0; i < l && pred[v] >= 0; i++ {
		v = kn.Src[pred[v]]
	}
	var loop []int
	for u := v; len(loop) <= l; {
		loop = append(loop, int(u))
		if pred[u] < 0 {
			break // degenerate: no loop behind v
		}
		if u = kn.Src[pred[u]]; u == v {
			break
		}
	}
	slices.Reverse(loop)
	return loop
}

func loopNames(c *Circuit, loop []int) []string {
	names := make([]string, len(loop))
	for i, v := range loop {
		names[i] = c.SyncName(v)
	}
	return names
}

// holdSlacks computes the hold-check margins using best-case (MinDelay)
// propagation: the earliest next-cycle arrival a_i + Tc must come after
// the closing edge plus the hold requirement. For a latch the closing
// edge is T_{p_i}; for a flip-flop the capture happens at the phase
// start (0 in local time). Entries are NaN for synchronizers with
// Hold == 0 (check disabled) or no fanin.
func holdSlacks(ov DelayOverlay, sched *Schedule, opts Options) []float64 {
	c := ov.base.c
	l := c.L()
	out := make([]float64, l)
	any := false
	for i := range out {
		out[i] = math.NaN()
		if c.Sync(i).Hold > 0 {
			any = true
		}
	}
	if !any {
		return out
	}
	de := earliestDepartures(ov, sched)
	for i, s := range c.Syncs() {
		if s.Hold == 0 || len(c.Fanin(i)) == 0 {
			continue
		}
		ae := earliestArrivalOf(ov, sched, de, i)
		closing := 0.0
		if s.Kind == Latch {
			closing = sched.T[s.Phase]
		}
		out[i] = (ae + sched.Tc) - (closing + s.Hold + opts.Skew)
	}
	return out
}

// earliestDepartures computes the least fixpoint of the best-case
// departure recursion d_i = max(0, min_j (d_j + ΔDQ_j + Δmin_ji + S)),
// with flip-flops pinned at 0, by monotone iteration from below.
func earliestDepartures(ov DelayOverlay, sched *Schedule) []float64 {
	c := ov.base.c
	l := c.L()
	d := make([]float64, l)
	limit := 2*l + 8
	for it := 0; it < limit; it++ {
		changed := false
		for i := range d {
			var nv float64
			if c.Sync(i).Kind == FlipFlop || len(c.Fanin(i)) == 0 {
				nv = 0
			} else {
				nv = earliestArrivalOf(ov, sched, d, i)
				if nv < 0 {
					nv = 0
				}
			}
			if math.Abs(nv-d[i]) > Eps {
				d[i] = nv
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return d
}

// earliestArrivalOf is min over fanin of (d_j + ΔDQ_j + Δmin_ji + S),
// with Δmin read through the overlay.
func earliestArrivalOf(ov DelayOverlay, sched *Schedule, d []float64, i int) float64 {
	c := ov.base.c
	a := math.Inf(1)
	pi := c.Sync(i).Phase
	for _, pidx := range c.Fanin(i) {
		p := c.Paths()[pidx]
		j := p.From
		v := d[j] + c.Sync(j).DQ + ov.MinDelay(pidx) + sched.PhaseShift(c.Sync(j).Phase, pi)
		if v < a {
			a = v
		}
	}
	return a
}
