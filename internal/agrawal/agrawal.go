// Package agrawal reconstructs the earliest baseline in the paper's
// related-work section: Agrawal's bounded binary search for the
// maximum operating frequency ("attempted to find the maximum
// frequency of operation of a logic circuit through a bounded binary
// search algorithm", §II).
//
// The reconstruction searches the cycle time directly: the clock
// *shape* is fixed to a family parameterized only by Tc (evenly spaced
// phases with a chosen duty factor — the kind of symmetric clock a
// frequency search presupposes), and the exact level-sensitive
// analysis of core.CheckTc decides feasibility at each probe. The
// result upper-bounds the true optimum of core.MinTc, because the
// search cannot reshape the phases the way the LP can; the gap between
// the two is the value of treating the full clock schedule as
// optimization variables — the paper's central methodological point.
package agrawal

import (
	"errors"
	"fmt"

	"mintc/internal/core"
)

// Result is the outcome of the frequency search.
type Result struct {
	// Tc is the smallest feasible cycle time found for the fixed
	// clock shape.
	Tc float64
	// Schedule is the symmetric schedule at Tc.
	Schedule *core.Schedule
	// Probes counts CheckTc evaluations.
	Probes int
}

// ErrInfeasible indicates no cycle time in the search bound makes the
// fixed-shape clock work (e.g. a duty factor that can never satisfy a
// setup time).
var ErrInfeasible = errors.New("agrawal: no feasible cycle time for the fixed clock shape")

// MinTc runs the bounded binary search on the snapshot behind ov, every
// probe an exact analysis of the overlay (core.CheckTcOverlay). duty is
// the fraction of each phase slot that is active (0 < duty <= 1); tol
// is the absolute search tolerance (default 1e-9 of the upper bound).
func MinTc(ov core.DelayOverlay, duty, tol float64) (*Result, error) {
	if !ov.Valid() {
		return nil, errors.New("agrawal: search on a zero DelayOverlay (start from Circuit.Freeze)")
	}
	if duty <= 0 || duty > 1 {
		return nil, fmt.Errorf("agrawal: duty factor %g outside (0,1]", duty)
	}
	c := ov.Base().Circuit()
	res := &Result{}
	feasible := func(tc float64) bool {
		res.Probes++
		an, err := core.CheckTcOverlay(ov, core.SymmetricSchedule(c.K(), tc, duty), core.Options{})
		return err == nil && an.Feasible
	}

	// Upper bound: the total delay in the circuit is always enough for
	// one cycle of a k-phase clock once every stage fits in a slot.
	hi := 1.0
	for pidx := range c.Paths() {
		hi += ov.Delay(pidx)
	}
	for _, s := range c.Syncs() {
		hi += s.Setup + s.DQ
	}
	hi *= float64(c.K())
	// Grow the bound if even that is infeasible (the "bounded" part:
	// give up after a few doublings).
	grow := 0
	for !feasible(hi) {
		hi *= 2
		if grow++; grow > 12 {
			return nil, ErrInfeasible
		}
	}
	if tol <= 0 {
		tol = hi * 1e-9
	}
	lo := 0.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.Tc = hi
	res.Schedule = core.SymmetricSchedule(c.K(), hi, duty)
	return res, nil
}
