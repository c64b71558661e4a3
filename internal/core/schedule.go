package core

import (
	"fmt"
	"math"
	"strings"
)

// Eps is the absolute tolerance used when comparing times (ns).
const Eps = 1e-6

// Schedule is a concrete k-phase clock assignment: the common cycle
// time Tc, and for each phase its start s_i and active-interval width
// T_i, all relative to the beginning of the common cycle.
type Schedule struct {
	Tc float64
	S  []float64 // start times, len k
	T  []float64 // active widths, len k
}

// NewSchedule allocates a zero schedule for k phases.
func NewSchedule(k int) *Schedule {
	return &Schedule{S: make([]float64, k), T: make([]float64, k)}
}

// K returns the number of phases in the schedule.
func (sc *Schedule) K() int { return len(sc.S) }

// Clone returns a deep copy.
func (sc *Schedule) Clone() *Schedule {
	cp := &Schedule{Tc: sc.Tc, S: append([]float64(nil), sc.S...), T: append([]float64(nil), sc.T...)}
	return cp
}

// End returns the end time s_i + T_i of phase i's active interval
// (possibly beyond Tc; the interval then wraps into the next cycle).
func (sc *Schedule) End(i int) float64 { return sc.S[i] + sc.T[i] }

// SymmetricSchedule returns the canonical evenly spaced nonoverlapping
// k-phase schedule with the given cycle time and duty factor in (0,1]:
// phase i starts at i·Tc/k with width duty·Tc/k. Useful as a reference
// clock (paper Fig. 3) and as a checkTc test input.
func SymmetricSchedule(k int, tc, duty float64) *Schedule {
	sc := NewSchedule(k)
	sc.Tc = tc
	slot := tc / float64(k)
	for i := 0; i < k; i++ {
		sc.S[i] = float64(i) * slot
		sc.T[i] = duty * slot
	}
	return sc
}

// PhaseShift evaluates the paper's phase-shift operator
// S_ij = s_i − s_j − C_ij·Tc for 0-based phases i, j, where C_ij = 1
// iff i >= j. Adding S_ij to a time referenced to the start of φ_i
// re-references it to the start of φ_j.
func (sc *Schedule) PhaseShift(i, j int) float64 {
	cij := 0.0
	if i >= j {
		cij = 1
	}
	return sc.S[i] - sc.S[j] - cij*sc.Tc
}

// ClockViolation describes one violated clock constraint found by
// ValidateClock.
type ClockViolation struct {
	Constraint string  // e.g. "C3 nonoverlap phi2->phi1"
	Amount     float64 // by how much it is violated (positive)
}

func (v ClockViolation) String() string {
	return fmt.Sprintf("%s violated by %.6g", v.Constraint, v.Amount)
}

// ValidateClock checks the paper's clock constraints C1, C2, C3 and C4
// against the circuit's K matrix and returns all violations (nil when
// the schedule is a legal k-phase clock for the circuit).
func (sc *Schedule) ValidateClock(c *Circuit) []ClockViolation {
	return sc.validateClock(c, c.KMatrix())
}

// validateClock is ValidateClock with the K matrix supplied (a frozen
// snapshot caches it). Constraint names are formatted only for the
// violated rows, so a legal clock costs no allocation.
func (sc *Schedule) validateClock(c *Circuit, km [][]int) []ClockViolation {
	var out []ClockViolation
	k := sc.K()
	if k != c.K() {
		return []ClockViolation{{Constraint: fmt.Sprintf("phase count %d != circuit %d", k, c.K()), Amount: math.Abs(float64(k - c.K()))}}
	}
	// add records a violation of the row named by format over the
	// names of the given phases.
	add := func(amount float64, format string, phases ...int) {
		if amount <= Eps {
			return
		}
		names := make([]any, len(phases))
		for i, p := range phases {
			names[i] = c.PhaseName(p)
		}
		out = append(out, ClockViolation{Constraint: fmt.Sprintf(format, names...), Amount: amount})
	}
	// C4 nonnegativity.
	add(-sc.Tc, "C4 Tc >= 0")
	for i := 0; i < k; i++ {
		add(-sc.T[i], "C4 T(%s) >= 0", i)
		add(-sc.S[i], "C4 s(%s) >= 0", i)
		// C1 periodicity.
		add(sc.T[i]-sc.Tc, "C1 T(%s) <= Tc", i)
		add(sc.S[i]-sc.Tc, "C1 s(%s) <= Tc", i)
	}
	// C2 phase ordering.
	for i := 0; i+1 < k; i++ {
		add(sc.S[i]-sc.S[i+1], "C2 s(%s) <= s(%s)", i, i+1)
	}
	// C3 phase nonoverlap for every I/O phase pair (K_ij = 1):
	// s_i >= s_j + T_j − C_ji·Tc, where C_ji = 1 iff j >= i.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] == 0 {
				continue
			}
			cji := 0.0
			if j >= i {
				cji = 1
			}
			add(sc.S[j]+sc.T[j]-cji*sc.Tc-sc.S[i], "C3 nonoverlap %s->%s", i, j)
		}
	}
	return out
}

// String renders the schedule compactly, e.g.
// "Tc=110 phi1:[0,55) phi2:[55,110)".
func (sc *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tc=%.6g", sc.Tc)
	for i := range sc.S {
		fmt.Fprintf(&b, " phi%d:[%.6g,%.6g)", i+1, sc.S[i], sc.S[i]+sc.T[i])
	}
	return b.String()
}

// Equal reports whether two schedules agree within tolerance.
func (sc *Schedule) Equal(o *Schedule, tol float64) bool {
	if sc.K() != o.K() || math.Abs(sc.Tc-o.Tc) > tol {
		return false
	}
	for i := range sc.S {
		if math.Abs(sc.S[i]-o.S[i]) > tol || math.Abs(sc.T[i]-o.T[i]) > tol {
			return false
		}
	}
	return true
}
