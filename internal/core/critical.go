package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CriticalSegment reports one binding constraint of the optimal LP
// solution. The paper observes (§V, example 2) that in latch-controlled
// circuits the notion of a single critical path is inadequate: instead
// there are several critical combinational delay *segments*, identified
// by the zero-slack rows of the LP, whose duals quantify the
// sensitivity of the optimal cycle time to the corresponding delays.
type CriticalSegment struct {
	Row RowInfo
	// Dual is d(Tc*)/d(RHS): how much the optimal cycle time moves per
	// unit increase of this constraint's right-hand side. For an L2R
	// propagation row the RHS is ΔDQ_j + Δ_ji, so the dual is exactly
	// the sensitivity of Tc* to that combinational delay.
	Dual float64
	// RHSLow/RHSHigh bound the RHS interval over which Dual stays
	// valid (simple parametric analysis; ±Inf when unconstrained).
	RHSLow, RHSHigh float64
}

// CriticalSegments extracts the binding constraints with nonzero duals
// from an MLP result, sorted by decreasing |dual| (most critical
// first). Only propagation and setup rows are reported by default;
// pass all=true to include clock-structure rows too.
//
// The RHS intervals are ranged on demand for the reported rows only;
// should that fail, RHSLow and RHSHigh are NaN.
func (r *Result) CriticalSegments(all bool) []CriticalSegment {
	var binding []int
	for i, info := range r.Rows {
		if r.LPSol.Slack[i] != 0 || r.LPSol.Dual[i] == 0 {
			continue
		}
		if !all && info.Kind != RowPropagation && info.Kind != RowSetup && info.Kind != RowFFSetup {
			continue
		}
		binding = append(binding, i)
	}
	if len(binding) == 0 {
		return nil
	}
	ranges, err := r.LPSol.RHSRange(binding...)
	out := make([]CriticalSegment, len(binding))
	for k, i := range binding {
		out[k] = CriticalSegment{Row: r.Rows[i], Dual: r.LPSol.Dual[i], RHSLow: math.NaN(), RHSHigh: math.NaN()}
		if err == nil {
			out[k].RHSLow, out[k].RHSHigh = ranges[k][0], ranges[k][1]
		}
	}
	sort.Slice(out, func(a, b int) bool {
		da, db := abs(out[a].Dual), abs(out[b].Dual)
		if da != db {
			return da > db
		}
		return out[a].Row.Name < out[b].Row.Name
	})
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Borrowing quantifies the time borrowing of the solution (Jouppi's
// term, paper §II): a latch's departure retardation D_i is exactly the
// time its stage borrowed from the preceding one through latch
// transparency. The returned slice is indexed by synchronizer;
// flip-flops (which cannot borrow) report zero.
func (r *Result) Borrowing() []float64 {
	out := make([]float64, len(r.D))
	copy(out, r.D)
	return out
}

// TotalBorrowing sums the per-latch borrowing.
func (r *Result) TotalBorrowing() float64 {
	var t float64
	for _, d := range r.D {
		t += d
	}
	return t
}

// Report renders a human-readable summary of an MLP result: the optimal
// schedule, the departure times, iteration statistics and the critical
// segments.
func (r *Result) Report() string {
	var b strings.Builder
	c := r.Circuit
	fmt.Fprintf(&b, "optimal cycle time: Tc = %.6g\n", r.Schedule.Tc)
	fmt.Fprintf(&b, "clock schedule:\n")
	for i := 0; i < c.K(); i++ {
		fmt.Fprintf(&b, "  %-8s start %10.6g  width %10.6g  end %10.6g\n",
			c.PhaseName(i), r.Schedule.S[i], r.Schedule.T[i], r.Schedule.End(i))
	}
	fmt.Fprintf(&b, "synchronizers (times local to own phase):\n")
	for i := 0; i < c.L(); i++ {
		fmt.Fprintf(&b, "  %-12s %-5s %-6s  D=%9.6g  A=%9.6g  Q=%9.6g\n",
			c.SyncName(i), c.Sync(i).Kind, c.PhaseName(c.Sync(i).Phase), r.D[i], r.A[i], r.Q[i])
	}
	fmt.Fprintf(&b, "constraints: %d (bound 4k+(F+1)l = %d), simplex pivots: %d, update iterations: %d\n",
		r.NumConstraints, ConstraintCountBound(c), r.Pivots, r.UpdateIterations)
	segs := r.CriticalSegments(false)
	if len(segs) > 0 {
		fmt.Fprintf(&b, "critical segments (dTc*/dDelay):\n")
		for _, s := range segs {
			fmt.Fprintf(&b, "  %-28s dual %7.4g  RHS range [%.6g, %.6g]\n", s.Row.Name, s.Dual, s.RHSLow, s.RHSHigh)
		}
	}
	return b.String()
}
