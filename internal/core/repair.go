package core

import "fmt"

// RepairSchedule finds the smallest uniform stretch of a given clock
// schedule that satisfies all timing constraints: the shape (relative
// phase positions and duty cycles) is kept, and every time value is
// scaled by the returned factor alpha >= something feasible. It
// answers the practical question "my intended clock fails timing — how
// much slower must this exact waveform run?", complementing MinTc
// (which redesigns the waveform) and CheckTc (which only reports the
// failure).
//
// Returns the repaired schedule and the scale factor (1 when the input
// already passes, which is also the minimum possible answer for inputs
// that pass — shrinking is never attempted). maxScale caps the search
// (default 1024); if even that fails, an error is returned.
func RepairSchedule(c *Circuit, sched *Schedule, opts Options, maxScale float64) (*Schedule, float64, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, 0, err
	}
	if sched.K() != c.K() {
		return nil, 0, fmt.Errorf("core: schedule has %d phases, circuit has %d", sched.K(), c.K())
	}
	if sched.Tc <= 0 {
		return nil, 0, fmt.Errorf("core: schedule has nonpositive Tc %g", sched.Tc)
	}
	if maxScale <= 1 {
		maxScale = 1024
	}
	feasible := func(alpha float64) (*Schedule, bool) {
		sc := sched.Clone()
		sc.Tc *= alpha
		for i := range sc.S {
			sc.S[i] *= alpha
			sc.T[i] *= alpha
		}
		an, err := CheckTcOverlay(cc.Overlay(), sc, opts)
		return sc, err == nil && an.Feasible
	}
	if sc, ok := feasible(1); ok {
		return sc, 1, nil
	}
	// Bracket the feasibility threshold by doubling, then bisect.
	// Feasibility is monotone in the uniform scale: more time
	// everywhere never hurts the long-path constraints (hold-style
	// checks with Hold > 0 scale favorably too, since the next-wave
	// margin grows by alpha*Tc while the requirement is fixed).
	lo, hi := 1.0, 2.0
	for {
		if _, ok := feasible(hi); ok {
			break
		}
		lo = hi
		hi *= 2
		if hi > maxScale {
			return nil, 0, fmt.Errorf("core: no feasible stretch up to %gx (structural problem?)", maxScale)
		}
	}
	for hi-lo > 1e-9*hi {
		mid := (lo + hi) / 2
		if _, ok := feasible(mid); ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	sc, ok := feasible(hi)
	if !ok {
		return nil, 0, fmt.Errorf("core: bisection landed infeasible (numerical)")
	}
	return sc, hi, nil
}
