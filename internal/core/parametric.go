package core

import (
	"context"
	"fmt"
	"math"
)

// DelaySegment is one linear piece of the dependence of the optimal
// cycle time on a single combinational delay: for delays in
// [From, To], Tc*(Δ) = TcAtFrom + Slope·(Δ − From).
//
// This realizes the parametric-programming analysis the paper's
// conclusion proposes: the slope is the dual ("price") of the path's
// propagation constraint, and breakpoints occur where the optimal
// basis changes — e.g. Example 1's Fig. 7 curve has slopes 0, 1/2, 1
// with breakpoints at Δ41 = 20 and 100.
type DelaySegment struct {
	From, To float64
	Slope    float64
	TcAtFrom float64
}

// TcAt evaluates the segment's cycle time at delay d (no range check).
func (s DelaySegment) TcAt(d float64) float64 {
	return s.TcAtFrom + s.Slope*(d-s.From)
}

// ParametricDelay computes the piecewise-linear function Tc*(Δ) for
// the delay of path pathIndex swept over [from, to], by repeatedly
// solving the LP and extending each segment to the end of its basis's
// RHS validity range (classic one-parameter RHS parametrics). The
// circuit is never mutated: it is frozen once and each probe delay is
// layered over the snapshot as an overlay edit.
//
// The number of LP solves equals the number of segments plus the
// degenerate steps, not the number of sample points — on Example 1 the
// whole Fig. 7 curve costs three solves.
func ParametricDelay(c *Circuit, opts Options, pathIndex int, from, to float64) ([]DelaySegment, error) {
	if pathIndex < 0 || pathIndex >= len(c.Paths()) {
		return nil, fmt.Errorf("core: path index %d out of range", pathIndex)
	}
	if !(from >= 0) || to < from {
		return nil, fmt.Errorf("core: invalid delay range [%g, %g]", from, to)
	}
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return ParametricDelayCompiled(cc, opts, pathIndex, from, to)
}

// ParametricDelayCompiled is ParametricDelay against an already-frozen
// snapshot. Each segment's solve runs cold on purpose: the walk probes
// 1e-6 past each breakpoint, exactly where a warm-started dual simplex
// may legally stop on the previous basis (primal-feasible within
// tolerance) and report the old segment's duals and validity range —
// derailing the slope/extent logic for no measurable saving, since the
// whole walk costs segments-plus-degenerate-steps solves (three for
// Example 1's Fig. 7 curve).
//
// Every probe edits the base snapshot, so a delay below the path's
// MinDelay clamps MinDelay to it (DelayOverlay.With semantics). Under
// DesignForHold that moves the path's hold row as well: below MinDelay
// a segment is ranged along the two-row RHS direction and priced on
// both rows, and it never extends past MinDelay, where the hold row
// stops moving.
func ParametricDelayCompiled(cc *Compiled, opts Options, pathIndex int, from, to float64) ([]DelaySegment, error) {
	if pathIndex < 0 || pathIndex >= len(cc.c.Paths()) {
		return nil, fmt.Errorf("core: path index %d out of range", pathIndex)
	}
	if !(from >= 0) || to < from {
		return nil, fmt.Errorf("core: invalid delay range [%g, %g]", from, to)
	}
	if err := requireMinTc("ParametricDelay", opts); err != nil {
		return nil, err
	}

	const (
		step        = 1e-6 // progress past a breakpoint
		maxSegments = 1000
	)
	var segs []DelaySegment
	minDelay := cc.c.paths[pathIndex].MinDelay
	cur := from
	for len(segs) < maxSegments {
		r, err := MinTcOverlayCtx(context.Background(), cc.Overlay().With(pathIndex, cur), opts)
		if err != nil {
			return segs, fmt.Errorf("core: parametric solve at Δ=%g: %w", cur, err)
		}
		row, sign, hold, err := r.pathRows(pathIndex)
		if err != nil {
			return segs, err
		}
		sol := r.LPSol
		var slope, hiDelta float64
		limit := to
		if hold >= 0 && cur < minDelay {
			// MinDelay follows Δ: the delay row moves by sign and the
			// hold row by −1 per unit of Δ, up to MinDelay.
			_, hi, err := sol.RHSStepRange([]int{row, hold}, []float64{sign, -1})
			if err != nil {
				return segs, fmt.Errorf("core: parametric ranging at Δ=%g: %w", cur, err)
			}
			slope = sol.Dual[row]*sign - sol.Dual[hold]
			hiDelta = cur + hi
			limit = math.Min(to, minDelay)
		} else {
			// dTc/dΔ = dual(row) · dRHS/dΔ. Validity range of the
			// current basis in terms of Δ: the row's RHS moves 1:1
			// (sign-adjusted) with Δ.
			rng, err := sol.RHSRange(row)
			if err != nil {
				return segs, fmt.Errorf("core: parametric ranging at Δ=%g: %w", cur, err)
			}
			slope = sol.Dual[row] * sign
			rhsNow := r.LP.Constraint(row).RHS
			if sign > 0 {
				hiDelta = cur + (rng[0][1] - rhsNow)
			} else {
				hiDelta = cur + (rhsNow - rng[0][0])
			}
		}
		end := math.Min(hiDelta, limit)
		if end < cur {
			end = cur
		}
		seg := DelaySegment{From: cur, To: end, Slope: slope, TcAtFrom: r.Schedule.Tc}
		// Snap to the previous segment's end so breakpoints are exact
		// (cur sits a hair past the true breakpoint).
		if n := len(segs); n > 0 && cur-segs[n-1].To <= 2*step {
			seg.TcAtFrom -= slope * (cur - segs[n-1].To)
			seg.From = segs[n-1].To
		}
		segs = append(segs, seg)
		if end >= to-1e-12 {
			// Final segment reaches the sweep end.
			segs[len(segs)-1].To = to
			return mergeSegments(segs), nil
		}
		next := end + step
		if next <= cur {
			next = cur + step // degenerate basis: force progress
		}
		cur = next
	}
	return segs, fmt.Errorf("core: parametric sweep exceeded %d segments", maxSegments)
}

// mergeSegments coalesces consecutive segments with equal slope
// (degenerate breakpoints produce zero-length or same-slope pieces).
func mergeSegments(segs []DelaySegment) []DelaySegment {
	if len(segs) == 0 {
		return segs
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if math.Abs(last.Slope-s.Slope) < 1e-9 {
			last.To = s.To
			continue
		}
		if s.To <= s.From+1e-12 {
			continue // zero-length transition piece
		}
		out = append(out, s)
	}
	return out
}

// Breakpoints returns the interior delay values where the slope
// changes.
func Breakpoints(segs []DelaySegment) []float64 {
	var bps []float64
	for i := 1; i < len(segs); i++ {
		bps = append(bps, segs[i].From)
	}
	return bps
}
