// Package sim dynamically validates clock schedules by cycle-accurate
// wavefront simulation: it launches one data token per synchronizer
// per cycle and propagates actual departure/arrival times forward in
// absolute time, with real latch semantics (data flows through a
// transparent latch immediately, or waits for the enabling edge).
//
// This is an independent computation path from the static analysis of
// core.CheckTc (which solves a longest-path fixpoint): the simulated
// steady-state departure times must converge, cycle over cycle, to the
// static least fixpoint D_i, and the simulated setup margins must
// match the static slacks. The integration tests use this agreement as
// a cross-check of the paper's constraint model, and the simulator
// also demonstrates the *instability* of schedules below the optimal
// cycle time: departures drift later every cycle instead of settling.
package sim

import (
	"context"
	"fmt"
	"math"

	"mintc/internal/core"
	"mintc/internal/obs"
)

// Violation is one timing failure observed during simulation.
type Violation struct {
	Cycle  int
	Sync   int
	Kind   string // "setup" or "ff-setup"
	Amount float64
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s at sync %d (by %.6g)", v.Cycle, v.Kind, v.Sync, v.Amount)
}

// Trace is the outcome of a simulation run.
type Trace struct {
	// LocalD[n][i] is the departure time of synchronizer i's token in
	// cycle n, relative to that cycle's occurrence of the element's
	// phase (directly comparable to the paper's D_i).
	LocalD [][]float64
	// Arrival[n][i] is the corresponding local arrival time (A_i);
	// -Inf for synchronizers with no fanin.
	Arrival [][]float64
	// Violations lists every setup failure observed after the warmup.
	Violations []Violation
	// ConvergedAt is the first cycle whose departures match the
	// previous cycle's within Eps (periodic steady state), or -1 if
	// the run never settled — the signature of an unstable schedule.
	ConvergedAt int
	// SteadyD is the final cycle's local departure vector.
	SteadyD []float64
}

// Config tunes a simulation run.
type Config struct {
	// Cycles is the number of clock cycles to simulate (default 64).
	Cycles int
	// InitialD optionally sets the cycle-0 local departures (default
	// all zero — tokens launched at the phase opening, a "cold
	// start"). Use to probe convergence from perturbed states.
	InitialD []float64
	// WarmupCycles suppresses violation reporting for the first n
	// cycles while the wavefront settles (default 2).
	WarmupCycles int
}

func (cfg Config) withDefaults(c *core.Circuit) Config {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 64
	}
	if cfg.WarmupCycles < 0 {
		cfg.WarmupCycles = 0
	} else if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = 2
	}
	if cfg.InitialD == nil {
		cfg.InitialD = make([]float64, c.L())
	}
	return cfg
}

// Run simulates a frozen snapshot seen through a delay overlay under
// the given schedule. The snapshot's cached kernel and phase order are
// reused (zero compile cost when the overlay has no edits), nothing is
// validated per call (Freeze already did), and nothing shared is
// mutated — any number of goroutines may simulate divergent overlays
// of one snapshot concurrently. The context is polled once per
// simulated cycle, and the cycle count is reported into any obs
// recorder carried by the context; on cancellation the truncated
// trace is returned alongside ctx.Err().
func Run(ctx context.Context, ov core.DelayOverlay, sched *core.Schedule, cfg Config) (*Trace, error) {
	if !ov.Valid() {
		return nil, fmt.Errorf("sim: Run on a zero DelayOverlay (start from Compiled.Overlay)")
	}
	c := ov.Base().Circuit()
	if sched.K() != c.K() {
		return nil, fmt.Errorf("sim: schedule has %d phases, circuit has %d", sched.K(), c.K())
	}
	cfg = cfg.withDefaults(c)
	if len(cfg.InitialD) != c.L() {
		return nil, fmt.Errorf("sim: InitialD has %d entries, want %d", len(cfg.InitialD), c.L())
	}
	// The simulator works in absolute time, so the compiled kernel is
	// used without a shift table; the pre-folded arc weight W is the
	// same ArcWeight the static analyses use (margins don't apply to a
	// concrete simulation, hence the zero Options).
	kn := ov.Kernel(core.Options{})
	// Within a cycle, data flows from lower-numbered phases to strictly
	// higher-numbered ones (same-phase and backward paths pair with the
	// previous cycle's token), so evaluating synchronizers in phase
	// order resolves all same-cycle dependencies.
	order := ov.Base().PhaseOrder()

	l := c.L()
	tr := &Trace{ConvergedAt: -1}
	// The arrival recurrence only ever looks one token back, so absolute
	// departures need a two-row rolling window, not a per-cycle history
	// (which would make long cancellable runs allocate O(Cycles·L)).
	prevDep := make([]float64, l)
	curDep := make([]float64, l)

	phaseStart := func(i, n int) float64 {
		return sched.S[c.Sync(i).Phase] + float64(n)*sched.Tc
	}

	rec := obs.From(ctx)

	for n := 0; n < cfg.Cycles; n++ {
		// The trace grows one cycle at a time (rather than being sized
		// up front) so an early cancellation of a long run never pays
		// for — or allocates — the cycles it skipped.
		if err := ctx.Err(); err != nil {
			return tr, err
		}
		rec.Add(obs.SimCycles, 1)
		tr.LocalD = append(tr.LocalD, make([]float64, l))
		tr.Arrival = append(tr.Arrival, make([]float64, l))
		for _, i := range order {
			open := phaseStart(i, n)
			// Arrival of this cycle's token: the latest contribution
			// over fanin arcs. The C matrix (kernel PrevCycle flag)
			// decides which upstream token feeds this one: same cycle
			// when the source phase precedes the destination phase,
			// previous cycle otherwise.
			arr := math.Inf(-1)
			for a := kn.Start[i]; a < kn.Start[i+1]; a++ {
				j := int(kn.Src[a])
				var d float64
				switch {
				case !kn.PrevCycle[a]:
					d = curDep[j]
				case n > 0:
					d = prevDep[j]
				default:
					// Cold start: pretend the pre-history token left
					// at its phase opening with the initial local D.
					d = phaseStart(j, -1) + cfg.InitialD[j]
				}
				if v := d + kn.W[a]; v > arr {
					arr = v
				}
			}
			tr.Arrival[n][i] = localize(arr, open)

			s := c.Sync(i)
			switch s.Kind {
			case core.Latch:
				// Transparent flow-through or wait for the edge.
				if n == 0 && cfg.InitialD[i] > 0 {
					// Honor an explicit perturbed start.
					curDep[i] = open + math.Max(cfg.InitialD[i], math.Max(0, localize(arr, open)))
				} else {
					curDep[i] = math.Max(open, arr)
				}
				// Setup: data must be stable setup before the closing
				// edge.
				if n >= cfg.WarmupCycles {
					closing := open + sched.T[s.Phase]
					if slack := closing - s.Setup - curDep[i]; slack < -core.Eps {
						tr.Violations = append(tr.Violations, Violation{Cycle: n, Sync: i, Kind: "setup", Amount: -slack})
					}
				}
			case core.FlipFlop:
				curDep[i] = open
				if n >= cfg.WarmupCycles && !math.IsInf(arr, -1) {
					if slack := open - s.Setup - arr; slack < -core.Eps {
						tr.Violations = append(tr.Violations, Violation{Cycle: n, Sync: i, Kind: "ff-setup", Amount: -slack})
					}
				}
			}
			tr.LocalD[n][i] = curDep[i] - open
		}
		if n > 0 && tr.ConvergedAt < 0 && vecEqual(tr.LocalD[n], tr.LocalD[n-1], core.Eps) {
			tr.ConvergedAt = n
		}
		prevDep, curDep = curDep, prevDep
	}
	tr.SteadyD = tr.LocalD[cfg.Cycles-1]
	return tr, nil
}

// localize converts an absolute time to the frame of a phase opening;
// -Inf stays -Inf.
func localize(abs, open float64) float64 {
	if math.IsInf(abs, -1) {
		return abs
	}
	return abs - open
}

func vecEqual(a, b []float64, eps float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

// Drift measures how much the departure vector moved between the last
// two simulated cycles (positive drift on every latch of a loop is the
// signature of a schedule below the minimum cycle time).
func (tr *Trace) Drift() float64 {
	n := len(tr.LocalD)
	if n < 2 {
		return 0
	}
	worst := 0.0
	for i := range tr.LocalD[n-1] {
		if d := math.Abs(tr.LocalD[n-1][i] - tr.LocalD[n-2][i]); d > worst {
			worst = d
		}
	}
	return worst
}
