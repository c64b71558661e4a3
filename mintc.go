// Package mintc determines optimal clock schedules for latch-controlled
// synchronous digital circuits, implementing Sakallah, Mudge and
// Olukotun, "Analysis and Design of Latch-Controlled Synchronous
// Digital Circuits" (DAC 1990 / IEEE TCAD 1992) — the SMO timing model
// behind checkTc/minTc-style tools.
//
// The package answers the paper's two problems:
//
//   - the design problem ("minTc"): given a circuit, find the minimum
//     cycle time and a clock schedule achieving it — Algorithm MLP,
//     which solves the relaxed linear program P2 and then slides the
//     departure times to satisfy the exact nonlinear constraints
//     (Theorem 1 guarantees optimality);
//   - the analysis problem ("checkTc"): given a circuit and a concrete
//     clock schedule, verify every setup, propagation and clock
//     constraint, reporting slacks and violations.
//
// # Quick start
//
//	c := mintc.NewCircuit(2)                       // two-phase clock
//	a := c.AddLatch("A", 0, 10, 10)                // phase φ1, setup 10, ΔDQ 10
//	b := c.AddLatch("B", 1, 10, 10)                // phase φ2
//	c.AddPath(a, b, 20)                            // combinational block, 20 ns
//	c.AddPath(b, a, 60)
//	res, err := mintc.MinTc(c, mintc.Options{})
//	// res.Schedule.Tc is the optimal cycle time;
//	// res.Schedule.S/T position each phase; res.D hold departures.
//
// Circuits can also be read from .smo files (see ParseCircuit), drawn
// as timing diagrams (RenderDiagram, RenderSVG), cross-checked with an
// independent min-cycle-ratio engine (MinTcMCR), compared against the
// edge-triggered and NRIP baselines of the paper's evaluation
// (MinTcEdgeTriggered, MinTcNRIP), and validated dynamically by
// cycle-accurate simulation (Simulate).
package mintc

import (
	"context"
	"io"
	"math/rand"

	"mintc/internal/agrawal"
	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/delay"
	"mintc/internal/engine"
	"mintc/internal/ettf"
	"mintc/internal/lp"
	"mintc/internal/mcr"
	"mintc/internal/netex"
	"mintc/internal/nrip"
	"mintc/internal/obs"
	"mintc/internal/parse"
	"mintc/internal/render"
	"mintc/internal/session"
	"mintc/internal/sim"
	"mintc/internal/verify"
)

// Core model types, re-exported from the implementation packages. See
// the internal/core documentation for field-level details; the types
// are aliases, so values flow freely between the façade and any code
// written against it.
type (
	// Circuit is a synchronous circuit: a k-phase clock, a set of
	// latches/flip-flops, and the combinational paths between them.
	Circuit = core.Circuit
	// Synchronizer is one clocked storage element.
	Synchronizer = core.Synchronizer
	// Path is a combinational connection between two synchronizers.
	Path = core.Path
	// Schedule is a concrete clock assignment (Tc, phase starts and
	// widths).
	Schedule = core.Schedule
	// Options tunes constraint generation (minimum phase width,
	// minimum separation, clock skew, fixed Tc) and the MLP update
	// strategy.
	Options = core.Options
	// Result is the outcome of MinTc: optimal schedule, departure
	// times, LP statistics and critical segments.
	Result = core.Result
	// Analysis is the outcome of CheckTc: feasibility, slacks and
	// violations.
	Analysis = core.Analysis
	// Violation is one failed timing requirement found by CheckTc.
	Violation = core.Violation
	// ElementKind distinguishes latches from flip-flops.
	ElementKind = core.ElementKind
	// UpdateMode selects the MLP departure-update strategy.
	UpdateMode = core.UpdateMode
)

// Element kinds.
const (
	Latch    = core.Latch
	FlipFlop = core.FlipFlop
)

// MLP update strategies (paper: Jacobi, with Gauss–Seidel and
// event-driven refinements).
const (
	Jacobi      = core.Jacobi
	GaussSeidel = core.GaussSeidel
	EventDriven = core.EventDriven
)

// ErrInfeasible is returned when no cycle time satisfies the timing
// constraints (only possible with a FixedTc option or structurally
// impossible flip-flop timing).
var ErrInfeasible = core.ErrInfeasible

// NewCircuit returns a circuit clocked by k phases named phi1..phik.
func NewCircuit(k int) *Circuit { return core.NewCircuit(k) }

// NewSchedule allocates a zero schedule for k phases.
func NewSchedule(k int) *Schedule { return core.NewSchedule(k) }

// SymmetricSchedule returns the canonical evenly spaced nonoverlapping
// k-phase schedule with the given cycle time and duty factor.
func SymmetricSchedule(k int, tc, duty float64) *Schedule {
	return core.SymmetricSchedule(k, tc, duty)
}

// MinTc solves the design problem with Algorithm MLP: minimum cycle
// time, optimal clock schedule, and the supporting departure times.
func MinTc(c *Circuit, opts Options) (*Result, error) { return core.MinTc(c, opts) }

// CheckTc solves the analysis problem: verify a circuit against a
// fixed clock schedule, reporting slacks and violations.
func CheckTc(c *Circuit, sched *Schedule, opts Options) (*Analysis, error) {
	return core.CheckTc(c, sched, opts)
}

// MCRResult is the outcome of the min-cycle-ratio engine.
type MCRResult = mcr.Result

// MinTcMCR computes the optimal cycle time with the min-cycle-ratio
// engine — an independent algorithm exploiting the 0/±1 structure of
// the constraint matrix (the direction the paper's conclusion points
// at). It returns the same optimal Tc as MinTc and is useful both as a
// cross-check and as the faster engine on large circuits.
func MinTcMCR(c *Circuit, opts Options) (*MCRResult, error) { return mcr.Solve(c, opts) }

// EdgeTriggeredResult is the outcome of the edge-triggered baseline.
type EdgeTriggeredResult = ettf.Result

// MinTcEdgeTriggered computes the minimum cycle time under the classic
// edge-triggered approximation (no time borrowing): an upper bound on
// the true optimum, used as a baseline in the paper's comparisons.
func MinTcEdgeTriggered(c *Circuit, opts Options) (*EdgeTriggeredResult, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return ettf.MinTcCtx(context.Background(), cc.Overlay(), opts)
}

// NRIPResult is the outcome of the NRIP baseline reconstruction.
type NRIPResult = nrip.Result

// MinTcNRIP runs the reconstruction of Dagenais & Rumin's NRIP
// heuristic (edge-triggered schedule shape plus one borrowing pass),
// the baseline of the paper's Figs. 6, 7 and 9.
func MinTcNRIP(c *Circuit, opts Options) (*NRIPResult, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return nrip.MinTcCtx(context.Background(), cc.Overlay(), opts)
}

// FrequencySearchResult is the outcome of the Agrawal-style search.
type FrequencySearchResult = agrawal.Result

// MinTcFrequencySearch reconstructs the earliest baseline of the
// paper's related work (Agrawal's bounded binary search for the
// maximum operating frequency): a binary search on Tc over a fixed
// symmetric clock shape with the given duty factor, using the exact
// analysis for feasibility. Always an upper bound on MinTc's optimum.
func MinTcFrequencySearch(c *Circuit, duty, tol float64) (*FrequencySearchResult, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return agrawal.MinTc(cc.Overlay(), duty, tol)
}

// MCRSolver is a reusable min-cycle-ratio engine: compile once, update
// delays with SetDelay, re-solve cheaply — the design-side analogue of
// repeated CheckTcOverlay calls over one frozen snapshot.
type MCRSolver = mcr.Solver

// NewMCRSolver compiles a circuit for repeated min-cycle-ratio solves.
func NewMCRSolver(c *Circuit, opts Options) (*MCRSolver, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return mcr.NewSolverOverlay(cc.Overlay(), opts)
}

// Loop is one structural loop of the circuit with its cycle-ratio
// bound on the cycle time.
type Loop = mcr.Loop

// TopLoops returns the n most critical loops of the circuit ranked by
// their cycle-ratio bound Delay/Crossings — the quantified version of
// the paper's several-critical-segments observation. Ratios are lower
// bounds on Tc*; the maximum can be strictly below Tc* when a stage
// (non-loop) constraint dominates.
func TopLoops(c *Circuit, opts Options, n, maxCycles int) ([]Loop, error) {
	return mcr.TopLoops(c, opts, n, maxCycles)
}

// WriteDOT renders the circuit's synchronizer graph in Graphviz DOT
// format, optionally annotated with departure times.
func WriteDOT(w io.Writer, c *Circuit, d []float64) error { return render.WriteDOT(w, c, d) }

// ParseCircuit reads a circuit in the .smo description language.
func ParseCircuit(r io.Reader) (*Circuit, error) { return parse.Circuit(r) }

// ParseCircuitString parses a circuit from a string.
func ParseCircuitString(s string) (*Circuit, error) { return parse.CircuitString(s) }

// ParseSchedule reads a clock schedule for a k-phase clock.
func ParseSchedule(r io.Reader, k int) (*Schedule, error) { return parse.Schedule(r, k) }

// WriteCircuit renders a circuit back into the .smo format.
func WriteCircuit(w io.Writer, c *Circuit) error { return parse.WriteCircuit(w, c) }

// WriteSchedule renders a schedule in the .smo schedule format.
func WriteSchedule(w io.Writer, sc *Schedule) error { return parse.WriteSchedule(w, sc) }

// RenderOptions controls timing-diagram geometry.
type RenderOptions = render.Options

// RenderDiagram draws an ASCII timing diagram (clock waveforms plus
// per-block propagation strips) in the style of the paper's Fig. 6.
func RenderDiagram(c *Circuit, sched *Schedule, d []float64, opts RenderOptions) string {
	return render.Diagram(c, sched, d, opts)
}

// RenderClock draws just the clock waveforms (paper Fig. 3 style).
func RenderClock(sched *Schedule, names []string, opts RenderOptions) string {
	return render.ClockASCII(sched, names, opts)
}

// RenderSVG draws the schedule and strips as a self-contained SVG
// document.
func RenderSVG(c *Circuit, sched *Schedule, d []float64, opts RenderOptions) string {
	return render.SVG(c, sched, d, opts)
}

// Secondary selects a tie-breaking objective among the optimal clock
// schedules (the paper notes the optimum is generally non-unique and
// that requirements like minimum duty cycle may pick one).
type Secondary = core.Secondary

// Tie-breaking objectives for MinTcLex.
const (
	NoSecondary      = core.NoSecondary
	MaxPhaseWidths   = core.MaxPhaseWidths
	MinPhaseWidths   = core.MinPhaseWidths
	MaxMinPhaseWidth = core.MaxMinPhaseWidth
	MinDepartures    = core.MinDepartures
	CompactSchedule  = core.CompactSchedule
)

// MinTcLex solves the design problem lexicographically: minimum cycle
// time first, then the chosen secondary objective over the optimal
// family.
func MinTcLex(c *Circuit, opts Options, sec Secondary) (*Result, error) {
	return core.MinTcLex(c, opts, sec)
}

// MarginResult is the outcome of MaxMarginSchedule.
type MarginResult = core.MarginResult

// MaxMarginSchedule designs a clock at a fixed cycle time that
// maximizes the worst setup margin — how production schedules are
// chosen once the frequency target is set. tc must be at least the
// circuit's minimum cycle time.
func MaxMarginSchedule(c *Circuit, opts Options, tc float64) (*MarginResult, error) {
	return core.MaxMarginSchedule(c, opts, tc)
}

// Objective selects what a design-side solve optimizes. The zero value
// minimizes the cycle time (the paper's design problem); the
// constructors below fix the cycle time and optimize the schedule
// instead. Set it in Options.Objective — every solve entry point
// (MinTc, the engine layer, sessions) honors it, and certified solves
// re-check the achieved value independently.
type Objective = core.Objective

// ObjectiveKind enumerates the design-side objectives.
type ObjectiveKind = core.ObjectiveKind

// Design-side objectives for Options.Objective.
const (
	// ObjMinTc minimizes the cycle time (the default).
	ObjMinTc = core.ObjMinTc
	// ObjMaxMargin fixes Tc and maximizes the worst setup margin.
	ObjMaxMargin = core.ObjMaxMargin
	// ObjMinPhaseWidth fixes Tc and minimizes the total phase width
	// (narrowest clock pulses that still close timing).
	ObjMinPhaseWidth = core.ObjMinPhaseWidth
	// ObjMinSkewBudget fixes Tc and maximizes the uniform extra clock
	// skew the schedule tolerates.
	ObjMinSkewBudget = core.ObjMinSkewBudget
)

// MaxMarginAtTc returns the objective "fix the cycle time at tc,
// maximize the worst setup margin".
func MaxMarginAtTc(tc float64) Objective { return core.MaxMarginAt(tc) }

// MinPhaseWidthAtTc returns the objective "fix the cycle time at tc,
// minimize the total phase width".
func MinPhaseWidthAtTc(tc float64) Objective { return core.MinPhaseWidthAt(tc) }

// MaxSkewBudgetAtTc returns the objective "fix the cycle time at tc,
// maximize the uniform extra skew allowance".
func MaxSkewBudgetAtTc(tc float64) Objective { return core.MinSkewBudgetAt(tc) }

// OptimizeSchedule solves the design problem under an explicit
// objective: MinTc with opts.Objective set. The result's
// ObjectiveValue field reports the achieved value (worst margin, total
// phase width, or skew allowance).
func OptimizeSchedule(c *Circuit, opts Options, obj Objective) (*Result, error) {
	opts.Objective = obj
	return core.MinTc(c, opts)
}

// Conversion is the outcome of ConvertToLatches: the all-latch circuit
// plus index maps back to the original synchronizers.
type Conversion = core.Conversion

// ConvertToLatches rewrites an edge-triggered (or mixed) circuit into
// an equivalent pure level-sensitive latch circuit on a doubled clock:
// each flip-flop splits into its master/slave latch pair, opening the
// boundary to cycle stealing. The converted circuit's optimal cycle
// time never exceeds the edge-triggered baseline.
func ConvertToLatches(c *Circuit) (*Conversion, error) { return core.ConvertToLatches(c) }

// DelaySegment is one linear piece of Tc*(Δ) from ParametricDelay.
type DelaySegment = core.DelaySegment

// ParametricDelay computes the piecewise-linear dependence of the
// optimal cycle time on one path's delay — the parametric analysis the
// paper's conclusion proposes for quantifying critical segments. On
// the paper's Example 1 it recovers the Fig. 7 curve (slopes 0, 1/2, 1
// with breakpoints at 20 and 100 ns) in three LP solves.
func ParametricDelay(c *Circuit, opts Options, pathIndex int, from, to float64) ([]DelaySegment, error) {
	return core.ParametricDelay(c, opts, pathIndex, from, to)
}

// Breakpoints returns the interior delay values where a parametric
// curve's slope changes.
func Breakpoints(segs []DelaySegment) []float64 { return core.Breakpoints(segs) }

// NormalizePhases relabels a circuit's clock phases so the given
// schedule's start times are nondecreasing (the paper's §III.A
// preprocessing step), returning the relabeled circuit and schedule
// and the permutation used (perm[new] = old).
func NormalizePhases(c *Circuit, sched *Schedule) (*Circuit, *Schedule, []int, error) {
	return core.NormalizePhases(c, sched)
}

// Simplify returns an equivalent circuit with redundant parallel paths
// merged (max Delay, min MinDelay), plus the number of paths removed.
// The reduction is exact for every analysis in this package.
func Simplify(c *Circuit) (*Circuit, int) { return core.Simplify(c) }

// LumpEquivalent merges timing-equivalent synchronizers — the paper's
// bus-lumping remark ("by lumping latches corresponding to vector
// signals with similar timing ... the number l can be reasonably
// small"). Returns the lumped circuit and the old→new index mapping.
func LumpEquivalent(c *Circuit) (*Circuit, []int) { return core.LumpEquivalent(c) }

// StabilityWindow describes when a latch input is valid and stable
// within the periodic steady state.
type StabilityWindow = core.StabilityWindow

// StabilityWindows computes the input-stability window of every
// synchronizer under the given schedule (late-mode start, early-mode
// next-wave expiry).
func StabilityWindows(c *Circuit, sched *Schedule) ([]StabilityWindow, error) {
	return core.StabilityWindows(c, sched)
}

// MCConfig tunes a Monte-Carlo simulation run.
type MCConfig = sim.MCConfig

// MCResult summarizes a Monte-Carlo run.
type MCResult = sim.MCResult

// SimulateMonteCarlo runs repeated randomized simulations with
// per-cycle path delays drawn uniformly from [MinDelay, Delay]. A
// schedule passing the worst-case static analysis never fails here;
// the result reports the observed slack distribution.
func SimulateMonteCarlo(c *Circuit, sched *Schedule, cfg MCConfig, rng *rand.Rand) (*MCResult, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return sim.RunMonteCarlo(context.Background(), cc.Overlay(), sched, cfg, rng)
}

// Gate-level front end: the decomposition step the paper assumes
// ("the circuit has been decomposed into clocked combinational stages,
// and ... the various delay parameters have been calculated").
type (
	// GateNetlist is a sequential gate-level design: gates plus
	// clocked storage elements.
	GateNetlist = netex.Netlist
	// NetlistElement is one latch or flip-flop of a GateNetlist.
	NetlistElement = netex.Element
	// Gate is one combinational cell (shared with the delay models).
	Gate = delay.Gate
	// IOPolicy controls how primary I/O enters the timing model.
	IOPolicy = netex.IOPolicy
	// ExtractInfo reports gate-level extraction statistics.
	ExtractInfo = netex.Info
	// DelayModel maps gates and loads to delays.
	DelayModel = delay.Model
)

// Gate delay models, in increasing fidelity.
var (
	UnitDelay   DelayModel = delay.Unit{}
	LinearDelay DelayModel = delay.Linear{}
	ElmoreDelay DelayModel = delay.Elmore{}
)

// ParseNetlist reads a gate-level netlist in the .gnl format.
func ParseNetlist(r io.Reader) (*GateNetlist, error) { return netex.ParseNetlist(r) }

// ParseNetlistString parses a gate-level netlist from a string.
func ParseNetlistString(s string) (*GateNetlist, error) { return netex.ParseNetlistString(s) }

// SimConfig tunes a simulation run.
type SimConfig = sim.Config

// SimTrace is the outcome of a simulation run.
type SimTrace = sim.Trace

// Simulate runs a cycle-accurate wavefront simulation of the circuit
// under the given schedule, independently validating the static
// analysis (the steady-state departures converge to CheckTc's D).
func Simulate(c *Circuit, sched *Schedule, cfg SimConfig) (*SimTrace, error) {
	cc, err := c.Freeze()
	if err != nil {
		return nil, err
	}
	return sim.Run(context.Background(), cc.Overlay(), sched, cfg)
}

// RepairSchedule finds the smallest uniform stretch of a schedule that
// passes all timing checks, keeping its shape — "how much slower must
// this exact waveform run?". Returns the stretched schedule and the
// scale factor (1 when the input already passes).
func RepairSchedule(c *Circuit, sched *Schedule, opts Options, maxScale float64) (*Schedule, float64, error) {
	return core.RepairSchedule(c, sched, opts, maxScale)
}

// Unified engine layer: every cycle-time solver in the package — the
// exact Algorithm MLP ("mlp"), the min-cycle-ratio engine ("mcr"), the
// NRIP reconstruction ("nrip"), the edge-triggered baseline ("ettf")
// and the dynamic simulator ("sim") — is selectable by name through a
// common cancellable, instrumented interface.
type (
	// EngineOptions configures a SolveEngine call (core options plus
	// the simulation-only knobs).
	EngineOptions = engine.Options
	// EngineResult is the engine-independent view of a solve: Tc,
	// schedule, departures when available, observability stats, and the
	// engine's native result in Detail.
	EngineResult = engine.Result
	// EngineSolver is the interface every registered engine implements.
	EngineSolver = engine.Solver
	// Stats is an observability snapshot: named counters (pivots,
	// probes, slide iterations, simulated cycles, …) and per-stage
	// wall-clock durations.
	Stats = obs.Stats
	// Recorder accumulates counters and stage timings during a solve;
	// pass one in EngineOptions.Rec to observe a solve live (attach a
	// TraceSink for per-event traces).
	Recorder = obs.Rec
	// TraceEvent is one structured trace record emitted by a Recorder.
	TraceEvent = obs.Event
	// TraceSink receives TraceEvents.
	TraceSink = obs.Sink
	// SimDetail is the "sim" engine's native result: the deterministic
	// wavefront trace plus the optional Monte-Carlo summary.
	SimDetail = engine.SimDetail
)

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return obs.New() }

// NewTraceWriter returns a TraceSink writing one JSON object per event
// to w (JSONL).
func NewTraceWriter(w io.Writer) TraceSink { return obs.NewWriterSink(w) }

// Engines lists the available engine names, sorted.
func Engines() []string { return engine.Names() }

// SolveEngine runs the named engine against a frozen snapshot seen
// through a delay overlay (Freeze a builder circuit once, then pass
// Compiled.Overlay()). The context's deadline/cancellation is honored
// inside the engine's hot loops; the returned EngineResult carries the
// stats of whatever progress was made, also on error.
func SolveEngine(ctx context.Context, name string, ov DelayOverlay, opts EngineOptions) (*EngineResult, error) {
	return engine.Solve(ctx, name, ov, opts)
}

// Reliability layer: certified solves. SolveEngineCertified runs an
// engine through the degradation supervisor — every answer is
// independently re-checked against the paper's constraint system
// (compensated arithmetic, reference recurrence only), infeasibility
// claims must present a machine-checkable witness, and a failing or
// rejected solve falls down a ladder of increasingly independent
// methods (warm start → cold sparse simplex → dense oracle → the
// min-cycle-ratio engine) instead of returning unverified numbers.
type (
	// Certificate is the outcome of independently re-checking one
	// solver answer: per-clause residuals, the overall verdict
	// (Certificate.Certified), and the LP duality gap when available.
	Certificate = verify.Certificate
	// CertificateCheck is one verified clause of a Certificate.
	CertificateCheck = verify.Check
	// CertifyPolicy tunes a certified solve: tolerance, ladder rungs,
	// fallback behavior.
	CertifyPolicy = engine.Policy
	// CertifyAttempt is one degradation-ladder rung recorded in
	// EngineResult.Trail.
	CertifyAttempt = engine.Attempt
	// PanicError is a solver panic caught at the engine or session
	// boundary and converted into an error (recovered value + stack).
	PanicError = engine.PanicError
)

// Typed failure sentinels, matchable with errors.Is through every
// layer (engines wrap causes with %w).
var (
	// ErrUnknownEngine reports an engine name absent from the registry.
	ErrUnknownEngine = engine.ErrUnknownEngine
	// ErrLadderExhausted reports a certified solve whose every ladder
	// rung failed or was rejected by the checker.
	ErrLadderExhausted = engine.ErrLadderExhausted
	// ErrZeroOverlay reports a session query made with the zero
	// DelayOverlay value.
	ErrZeroOverlay = session.ErrZeroOverlay
	// ErrSnapshotMismatch reports a session query whose overlay belongs
	// to a different snapshot.
	ErrSnapshotMismatch = session.ErrSnapshotMismatch
	// ErrIterationLimit reports an LP solve that hit its pivot bound
	// (almost always basis cycling on degenerate input).
	ErrIterationLimit = lp.ErrIterationLimit
	// ErrSingularBasis reports an LP basis that could not be factorized.
	ErrSingularBasis = lp.ErrSingularBasis
)

// SolveEngineCertified runs the named engine against a snapshot
// overlay under the degradation supervisor: the result arrives with a
// passing Certificate (EngineResult.Certificate) and the Trail of
// ladder rungs tried, or the error explains every failed attempt. A
// zero CertifyPolicy certifies at 1e-9 and walks the engine's full
// ladder.
func SolveEngineCertified(ctx context.Context, name string, ov DelayOverlay, opts EngineOptions, pol CertifyPolicy) (*EngineResult, error) {
	return engine.SolveCertifiedOverlay(ctx, name, ov, opts, pol)
}

// VerifySchedule independently re-checks a schedule (and optional
// departure vector) against the paper's constraint system C1–C4/L1–L3
// with compensated arithmetic, sharing no code with the solvers beyond
// the reference recurrence. A nil d makes the checker compute the
// departure fixpoint itself. tol <= 0 means the 1e-9 default.
func VerifySchedule(c *Circuit, opts Options, sched *Schedule, d []float64, tol float64) *Certificate {
	return verify.Feasible(c, opts, sched, d, tol)
}

// Frozen model pipeline: a mutable builder Circuit is frozen into an
// immutable Compiled snapshot (validated once, derived artifacts
// cached), what-if delay edits layer over it as copy-on-write
// DelayOverlay values, and a Session serves concurrent queries over
// one snapshot with singleflight deduplication and memoization.
type (
	// Compiled is an immutable frozen circuit snapshot; see
	// Circuit.Freeze. Everything reachable from it is safe for
	// concurrent use and must be treated as read-only.
	Compiled = core.Compiled
	// DelayOverlay is a cheap copy-on-write set of what-if path-delay
	// edits over a Compiled snapshot; overlays are values and never
	// mutate anything shared.
	DelayOverlay = core.DelayOverlay
	// Session serves concurrent timing queries (engine solves,
	// schedule checks, incremental reoptimization) over one frozen
	// snapshot, with singleflight deduplication and a bounded
	// memoization cache.
	Session = session.Session
	// SessionConfig tunes a Session (cache bound).
	SessionConfig = session.Config
)

// Freeze validates the circuit once and returns its immutable compiled
// snapshot; the builder circuit may keep being mutated (or be dropped)
// without affecting the snapshot. Start what-if edits from
// Compiled.Overlay.
func Freeze(c *Circuit) (*Compiled, error) { return c.Freeze() }

// MinTcOverlay solves the design problem for a frozen snapshot seen
// through a delay overlay — the lock-free concurrent counterpart of
// mutating a circuit and calling MinTc, with bit-identical results.
func MinTcOverlay(ov DelayOverlay, opts Options) (*Result, error) {
	return core.MinTcOverlay(ov, opts)
}

// CheckTcOverlay solves the analysis problem for a frozen snapshot
// seen through a delay overlay.
func CheckTcOverlay(ov DelayOverlay, sched *Schedule, opts Options) (*Analysis, error) {
	return core.CheckTcOverlay(ov, sched, opts)
}

// Decomposed solving: the 100k-synchronizer-scale path. Freeze
// partitions the latch graph into strongly connected components; the
// decomposed solver ("decomp" engine, or "mlp" above its size
// threshold) solves each component independently in parallel — closed
// form for trivial components, min-cycle-ratio for the rest — and then
// certifies (or repairs) the combined bound with one global coupling
// pass, so the answer matches the monolithic engines to solver
// tolerance. A DecompState carries per-component
// answers keyed by content digest across solves, making repeat solves
// after localized delay edits touch only the dirty components.
type (
	// DecompResult is the decomposed solver's native result: the
	// certified Tc and schedule plus the per-component breakdown
	// (component count, how many were actually re-solved, closed-form
	// fast paths, per-component bounds).
	DecompResult = decomp.Result
	// DecompState is the reusable per-component answer cache. One state
	// serves one (snapshot, options) pair; see NewDecompState.
	DecompState = decomp.State
)

// NewDecompState returns an empty per-component answer cache. Use one
// state per (Compiled snapshot, Options) pair — digests identify
// components and their delay edits, not the snapshot or the options —
// and set it as EngineOptions.DecompState on every "decomp" (or
// large "mlp") solve that should share incremental work. Safe for
// concurrent use.
func NewDecompState() *DecompState { return decomp.NewState() }

// SweepDelays solves the design problem at each delay value for one
// path of a frozen snapshot — the bulk counterpart of ParametricDelay,
// for arbitrary value lists. It runs the decomposed solver: per value,
// only the edited path's component is re-solved, and a warm global
// probe that starts from the previous value's binding cycle
// re-certifies the combined bound. Results come back in input order
// and match a per-value MinTc to solver tolerance; a value that fails
// (invalid delay, infeasible under a pinned FixedTc) carries its error
// at its index. Only the min-Tc objective is supported.
func SweepDelays(ctx context.Context, cc *Compiled, opts Options, pathIndex int, values []float64) ([]float64, []error) {
	return decomp.SweepAll(ctx, cc.Overlay(), opts, pathIndex, values, decomp.Config{}, nil)
}

// NewSession opens an analysis session over a frozen snapshot. All
// Session methods are safe for concurrent use; returned results are
// shared (read-only).
func NewSession(cc *Compiled, cfg SessionConfig) *Session { return session.New(cc, cfg) }

// OpenSession freezes a builder circuit and opens a session over the
// snapshot in one step.
func OpenSession(c *Circuit, cfg SessionConfig) (*Session, error) {
	return session.Freeze(c, cfg)
}
