package core

import (
	"fmt"
	"math"
	"strings"
)

// Report renders a human-readable summary of a CheckTc analysis for
// circuit c: verdict, per-synchronizer departures and slacks, and the
// violation list.
func (an *Analysis) Report(c *Circuit) string {
	var b strings.Builder
	if an.Feasible {
		b.WriteString("PASS: all timing constraints satisfied\n")
	} else {
		b.WriteString("FAIL: timing constraints violated\n")
		for _, v := range an.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	if an.D == nil {
		return b.String()
	}
	b.WriteString("synchronizers (times local to own phase):\n")
	for i := 0; i < c.L(); i++ {
		fmt.Fprintf(&b, "  %-12s %-5s %-8s D=%9.6g  A=%9.6g  setup slack=%9.6g",
			c.SyncName(i), c.Sync(i).Kind, c.PhaseName(c.Sync(i).Phase),
			an.D[i], an.A[i], an.SetupSlack[i])
		if i < len(an.HoldSlack) && !math.IsNaN(an.HoldSlack[i]) {
			fmt.Fprintf(&b, "  hold slack=%9.6g", an.HoldSlack[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// StabilityWindow describes when the data at a latch input is valid
// and stable within the periodic steady state: the signal becomes
// valid at Valid (the late-mode arrival A_i) and is overwritten by the
// next wave at Expire (the early-mode arrival of the following cycle,
// a^e_i + Tc). Both are local to the element's phase start. The latch
// samples correctly iff the window covers the closing edge with the
// setup/hold margins; Width <= 0 marks an unstable input.
type StabilityWindow struct {
	Valid  float64
	Expire float64
}

// Width returns Expire − Valid.
func (w StabilityWindow) Width() float64 { return w.Expire - w.Valid }

// StabilityWindows computes the input-stability window of every
// synchronizer under the given schedule, combining the late-mode
// analysis (the paper's model) with the best-case early-mode recursion
// of the hold extension. Synchronizers with no fanin get an unbounded
// window [-Inf, +Inf].
func StabilityWindows(c *Circuit, sched *Schedule) ([]StabilityWindow, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	ov := cc.Overlay()
	an, err := CheckTcOverlay(ov, sched, Options{})
	if err != nil {
		return nil, err
	}
	if an.D == nil {
		return nil, fmt.Errorf("core: no periodic steady state at this schedule")
	}
	de := earliestDepartures(ov, sched)
	out := make([]StabilityWindow, c.L())
	for i := range out {
		if len(c.Fanin(i)) == 0 {
			out[i] = StabilityWindow{Valid: math.Inf(-1), Expire: math.Inf(1)}
			continue
		}
		out[i] = StabilityWindow{
			Valid:  an.A[i],
			Expire: earliestArrivalOf(ov, sched, de, i) + sched.Tc,
		}
	}
	return out, nil
}
