// Package engine unifies the repository's cycle-time solvers behind a
// single cancellable, instrumented interface. Each solver — the exact
// Algorithm MLP (core), the min-cycle-ratio formulation (mcr), the
// SCC-decomposed incremental solver (decomp), the NRIP reconstruction
// (nrip), the edge-triggered baseline (ettf), and the dynamic
// simulator (sim) — registers itself under a stable name,
// so the façade and the command-line tools can select an engine by
// string without knowing any engine package directly.
//
// Every solve goes through Solve, which takes a frozen snapshot seen
// through a core.DelayOverlay and guarantees the cross-cutting
// contract the individual packages implement:
//
//   - the context's deadline/cancellation is honored inside the hot
//     loops (simplex pivots, Bellman–Ford passes, departure slides,
//     simulated cycles) and surfaces as ctx.Err();
//   - an obs recorder travels with the context, so counters and stage
//     timings accumulate no matter how deep the work happens, and the
//     returned Result carries the snapshot — including the partial
//     progress reached when a solve is cancelled;
//   - the goroutine is labeled (pprof "mintc.engine") for profiling.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"

	"mintc/internal/core"
	"mintc/internal/decomp"
	"mintc/internal/lp"
	"mintc/internal/obs"
	"mintc/internal/verify"
)

// ErrUnknownEngine is returned (wrapped, with the offending name and
// the available engines) when a registry lookup fails. Match with
// errors.Is.
var ErrUnknownEngine = errors.New("engine: unknown engine")

// PanicError is a panic caught at the engine boundary and converted
// into an ordinary error: no panic from a solver's internals crosses
// Solve, the certified supervisor or the session layer. The recovered
// value and the goroutine stack at the panic site are retained for
// diagnosis, and obs.PanicsRecovered counts every conversion.
type PanicError struct {
	// Engine is the registry name of the solver that panicked.
	Engine string
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted goroutine stack captured inside recover.
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine/%s: panic recovered: %v", e.Engine, e.Value)
}

// Options carries the per-solve configuration common to all engines
// plus the knobs only some engines read (documented per field).
type Options struct {
	// Core is passed to the underlying solver; its validity is checked
	// (core.Options.Validate) before any work starts.
	Core core.Options
	// Schedule, when non-nil, is the clock the "sim" engine validates.
	// When nil, sim first computes the MLP-optimal schedule and
	// simulates that. Ignored by the static engines.
	Schedule *core.Schedule
	// SimCycles is the number of cycles per simulation run (0 = the
	// simulator's default). Read by "sim" only.
	SimCycles int
	// Trials, when positive, makes "sim" follow the deterministic run
	// with a Monte-Carlo campaign of that many randomized trials.
	Trials int
	// Seed seeds the Monte-Carlo RNG (only read when Trials > 0).
	Seed int64
	// Workers bounds the engines' worker pools (0 = GOMAXPROCS, 1 =
	// sequential): the Monte-Carlo trials of "sim" (when Trials > 0)
	// and the per-component solves of "decomp". The result is
	// identical for any value; only the wall clock changes.
	Workers int
	// Rec, when non-nil, receives the solve's counters and stage
	// timings (use obs.Rec.SetSink for a live trace). When nil, Solve
	// creates a private recorder; either way Result.Stats is populated.
	Rec *obs.Rec
	// WarmBasis, when non-nil, seeds the "mlp" engine's LP solve with a
	// previous optimal simplex basis (core.Result.LPBasis), turning the
	// LP phase into a warm-started dual re-solve. Only read by "mlp";
	// the degradation ladder starts at its warm rung when it is set and
	// clears it when it retreats to a cold rung.
	WarmBasis *lp.Basis
	// DecompState, when non-nil, is the per-component answer cache the
	// "decomp" engine (and "mlp" above DecompThreshold) reuses across
	// solves of the same snapshot under the same core options: repeat
	// solves after localized delay edits then re-solve only the dirty
	// components. Callers (the session layer) must key the state
	// exactly like a result cache — one per (snapshot, core options)
	// pair — since component digests cover neither.
	DecompState *decomp.State
}

// Result is the engine-independent view of a solve.
type Result struct {
	// Engine is the registry name of the solver that produced this.
	Engine string
	// Tc is the cycle time found (the minimum for the optimizing
	// engines, the validated schedule's for sim).
	Tc float64
	// Schedule is the supporting clock schedule.
	Schedule *core.Schedule
	// D holds per-synchronizer departure times when the engine computes
	// them (nil for ettf/nrip, whose results are schedule-only; use
	// core.CheckTc to derive departures).
	D []float64
	// Stats is the observability snapshot: counters (pivots, probes,
	// slide iterations, simulated cycles, …) and per-stage wall-clock
	// durations. Populated even when the solve returns an error, so
	// callers can see the partial progress of a cancelled solve.
	Stats obs.Stats
	// Certificate is the independent re-check of this result, present
	// when the solve went through SolveCertified/SolveCertifiedOverlay:
	// for feasible solves a constraint-by-constraint verification of
	// (Tc, s, D) plus the engine's optimality evidence (LP duality gap
	// or critical cycle); for certified-infeasible solves the validated
	// infeasibility witness. Nil for plain Solve calls.
	Certificate *verify.Certificate
	// Trail records every degradation-ladder rung the supervisor tried
	// to produce this result, in order, ending with the rung that
	// produced it. Nil for plain Solve calls.
	Trail []Attempt
	// Detail is the engine's native result (*core.Result, *mcr.Result,
	// *decomp.Result, *nrip.Result, *ettf.Result, or *SimDetail) for
	// callers that need engine-specific reporting. Note the "mlp"
	// engine reports *decomp.Result above DecompThreshold.
	Detail any
}

// Solver is one cycle-time engine. Implementations must honor ctx
// inside their hot loops and report progress into the obs recorder
// carried by ctx.
type Solver interface {
	// Name is the stable registry name ("mlp", "mcr", …).
	Name() string
	// Solve runs the engine against a frozen snapshot seen through a
	// delay overlay: the snapshot was validated at Freeze, its caches
	// (kernel, matrices, phase order) may be reused, and nothing
	// shared may be mutated. The overlay is never the zero value. On
	// cancellation it returns ctx.Err() (possibly wrapped); the
	// package-level Solve adds the stats snapshot afterwards.
	Solve(ctx context.Context, ov core.DelayOverlay, opts Options) (*Result, error)
}

// errZeroOverlay rejects a solve handed the zero DelayOverlay, which
// carries no snapshot to solve.
var errZeroOverlay = errors.New("overlay solve without a snapshot (start from Compiled.Overlay)")

var (
	regMu    sync.RWMutex
	registry = map[string]Solver{}
)

// Register adds a solver under its name. Registering a duplicate name
// panics: engine names are part of the CLI/façade contract.
func Register(s Solver) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name()]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", s.Name()))
	}
	registry[s.Name()] = s
}

// Get looks up a solver by name.
func Get(name string) (Solver, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Names lists the registered engine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Solve resolves name in the registry and runs the engine against a
// frozen snapshot seen through a delay overlay, under the engine
// contract: the overlay and the options are checked up front, an obs
// recorder is attached to the context (opts.Rec, or a private one),
// the goroutine is pprof-labeled with the engine name, and the
// returned Result — non-nil even on error, a deliberate deviation from
// the usual Go convention — carries the stats snapshot of whatever
// progress was made. Start from Compiled.Overlay; a builder circuit is
// frozen once with Circuit.Freeze.
func Solve(ctx context.Context, name string, ov core.DelayOverlay, opts Options) (*Result, error) {
	s, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (available: %s)", ErrUnknownEngine, name, strings.Join(Names(), ", "))
	}
	if !ov.Valid() {
		return &Result{Engine: name}, fmt.Errorf("engine/%s: %w", name, errZeroOverlay)
	}
	if err := opts.Core.Validate(); err != nil {
		return &Result{Engine: name}, fmt.Errorf("engine/%s: %w", name, err)
	}
	rec := opts.Rec
	if rec == nil {
		rec = obs.New()
	}
	ctx = obs.With(ctx, rec)

	var res *Result
	var err error
	pprof.Do(ctx, pprof.Labels("mintc.engine", name), func(ctx context.Context) {
		res, err = runGuarded(name, rec, func() (*Result, error) {
			return s.Solve(ctx, ov, opts)
		})
	})
	if res == nil {
		res = &Result{}
	}
	res.Engine = name
	res.Stats = rec.Snapshot()
	return res, err
}

// runGuarded executes one solver call under the engine boundary's
// failure contract: a panic anywhere inside the solver is converted
// into a *PanicError (stack captured at the panic site,
// obs.PanicsRecovered incremented) instead of unwinding into the
// caller, and every ordinary error is wrapped with the engine name —
// "engine/mlp: …" — while keeping the cause chain intact, so
// errors.Is(err, lp.ErrIterationLimit) and friends keep working
// through the façade.
func runGuarded(name string, rec *obs.Rec, fn func() (*Result, error)) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			rec.Add(obs.PanicsRecovered, 1)
			err = &PanicError{Engine: name, Value: p, Stack: string(debug.Stack())}
		}
	}()
	res, err = fn()
	if err != nil {
		err = fmt.Errorf("engine/%s: %w", name, err)
	}
	return res, err
}
