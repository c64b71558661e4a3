package core

import "math"

// This file is the single source of truth for the paper's L2
// propagation recurrence
//
//	A_i = max over fanin paths j→i of (D_j + ΔDQ_j + Δ_ji + margins + S_{p_j p_i})
//	D_i = 0 for flip-flops, max(0, A_i) for latches
//
// Every computation of that recurrence — the LP rows (BuildLP), the
// analysis fixpoint (CheckTc), the MLP departure slide, and the
// cycle-accurate and Monte-Carlo simulators — goes through
// ArcWeight/Arrive/DepartLatch below (the Kernel folds and evaluates
// the same terms), so the engines cannot drift apart on margins or
// flip-flop conventions.

// ArcWeight returns the margin-adjusted transfer weight of path pidx:
//
//	ΔDQ_j + Δ_ji + Skew + σ_{p_j} + σ_{p_i}
//
// — the constant part of one L2 term, identical to the right-hand side
// of the LP's L2R rows. Pass the zero Options for the paper's nominal
// operator.
func ArcWeight(c *Circuit, opts Options, pidx int) float64 {
	p := c.paths[pidx]
	pj, pi := c.syncs[p.From].Phase, c.syncs[p.To].Phase
	return c.syncs[p.From].DQ + p.Delay + opts.Skew + opts.sigma(pj) + opts.sigma(pi)
}

// Arrive evaluates the arrival recurrence for synchronizer i:
//
//	A_i = max over fanin paths p of dep(p.From) + weight(pidx) + shift(p_j, p_i)
//
// parameterized so each engine supplies its own time frame:
//
//   - dep gives the source departure (schedule-relative for the static
//     analyses, absolute and cycle-aware for the simulators);
//   - weight gives the transfer weight of a path (ArcWeight for the
//     nominal/margined operator, a sampled delay for Monte Carlo);
//   - shift maps the source phase into the destination's frame
//     (Schedule.PhaseShift for local time, zero for absolute time).
//
// Returns -Inf when i has no fanin (primary-input synchronizer).
func Arrive(c *Circuit, i int, dep func(j int) float64, weight func(pidx int) float64, shift func(pj, pi int) float64) float64 {
	a := math.Inf(-1)
	pi := c.syncs[i].Phase
	for _, pidx := range c.fanin[i] {
		p := c.paths[pidx]
		v := dep(p.From) + weight(pidx) + shift(c.syncs[p.From].Phase, pi)
		if v > a {
			a = v
		}
	}
	return a
}

// DepartLatch clamps an arrival into the departure convention of the
// model: flip-flops depart at their triggering edge (0 in local time),
// latches at max(0, A_i), with -Inf (no fanin) collapsing to the phase
// opening.
func DepartLatch(c *Circuit, i int, arrival float64) float64 {
	if c.syncs[i].Kind == FlipFlop {
		return 0
	}
	if arrival < 0 || math.IsInf(arrival, -1) {
		return 0
	}
	return arrival
}
