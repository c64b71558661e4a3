// Package decomp solves the minimum-cycle-time problem by latch-graph
// SCC decomposition: per-component subproblems solved independently
// (and cached, and re-solved incrementally), then coupled by one
// global witness-jumping pass that certifies — or repairs — the
// combined answer against the full constraint system.
//
// The paper's constraint system couples synchronizers only along
// combinational paths, so every latch-graph cycle lies inside exactly
// one strongly connected component (core.Partition). A component's
// subsystem — the clock rows plus the members' rows and the
// intra-component arcs — is a subset of the full system's rows, which
// makes its optimum Tc_i a sound lower bound on the circuit's optimum:
// any globally feasible point restricts to a subsystem-feasible point.
// The converse is NOT true: max_i Tc_i is not the answer, because
// constraint-graph cycles may thread through the shared clock nodes
// across components (a feedforward pipeline with all-singleton
// components still couples stages through phase separations). The
// global phase closes that gap exactly: starting the full-graph Lawler
// iteration at the candidate max_i Tc_i, a feasible first probe proves
// the candidate optimal (feasible + lower bound = optimal), and an
// infeasible one jumps witness by witness to the true optimum — the
// identical fixpoint the monolithic solver reaches, so decomposition
// never changes the answer, only the work.
//
// The work is where the payoff is: component subproblems solve in
// parallel, single-latch acyclic components collapse to a closed-form
// bound with no LP and no probe, unchanged components are answered
// from a digest-keyed cache (State), and a delay edit dirties exactly
// the component containing the edited arc — the incremental re-solve
// the session layer and the sweep driver exploit.
package decomp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mintc/internal/core"
	"mintc/internal/mcr"
	"mintc/internal/obs"
)

// Config tunes the decomposed solver. The zero value is ready to use.
type Config struct {
	// Workers bounds the component-solving pool (0 = GOMAXPROCS).
	Workers int
}

func (cfg Config) workers() int {
	if cfg.Workers > 0 {
		return cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is the outcome of a decomposed solve. Tc, Schedule and D
// match the monolithic solvers'; the remaining fields report the
// decomposition's shape and how much of it was actually re-solved.
type Result struct {
	// Tc is the minimum feasible cycle time (or the pinned FixedTc).
	Tc float64
	// Schedule is the least optimal clock schedule, extracted by the
	// global coupling phase over the full constraint graph.
	Schedule *core.Schedule
	// D holds every synchronizer's departure time.
	D []float64
	// CriticalArcs is the machine-checkable optimality witness: a
	// constraint cycle of ratio Tc, produced by the global phase when
	// it jumps, or inherited from the binding component (including the
	// synthesized setup loop of a closed-form singleton) when the
	// candidate is certified on the first probe. Empty when no
	// ratio-bearing cycle binds (Tc forced to 0 or pinned by FixedTc).
	CriticalArcs []mcr.CycleArc
	// CriticalRatio is A/(−B) of that cycle (== Tc when it binds).
	CriticalRatio float64
	// Components is the number of latch-graph components.
	Components int
	// Resolved counts components whose subproblem actually ran this
	// solve; the rest were closed-form singletons or cache hits.
	Resolved int
	// FastPaths counts closed-form singleton components.
	FastPaths int
	// CompTc holds every component's subsystem optimum (the lower
	// bounds whose max seeded the global phase), indexed by component.
	CompTc []float64
	// Probes counts the global phase's Bellman–Ford probes.
	Probes int
	// ProbeRounds counts worklist relaxation rounds across every probe
	// of the solve (component and coupling), ProbeParallelRounds the
	// subset that actually fanned out across more than one worker, and
	// WarmPotentialHits how many probes consumed persisted potentials
	// (State warm starts) instead of relaxing from scratch.
	ProbeRounds         int64
	ProbeParallelRounds int64
	WarmPotentialHits   int64
}

// compAnswer is one component subproblem's outcome: the subsystem
// optimum and, when a ratio-bearing cycle binds it, the witness cycle
// (whose node names are shared with the full constraint graph, so it
// certifies the global answer whenever the candidate wins). A
// closed-form singleton carries no arcs; Solve synthesizes its setup
// loop when it binds.
type compAnswer struct {
	tc    float64
	ratio float64
	arcs  []mcr.CycleArc
}

// Solve computes the circuit's minimum cycle time over the overlay's
// delays by component decomposition. st may be nil (no caching); a
// shared *State memoizes per-component answers across solves, keyed by
// each component's delay digest, so repeated solves after localized
// edits re-solve only the dirty components. The answer is the same as
// the monolithic solvers' (core.MinTc / mcr.Solve) up to solver
// tolerance; only the work differs.
func Solve(ctx context.Context, ov core.DelayOverlay, opts core.Options, cfg Config, st *State) (*Result, error) {
	if !ov.Valid() {
		return nil, fmt.Errorf("decomp: zero DelayOverlay (start from Compiled.Overlay)")
	}
	cc := ov.Base()
	if err := opts.ValidateFor(cc.Circuit()); err != nil {
		return nil, err
	}
	if !opts.Objective.IsMinTc() {
		// The component lower-bound/coupling argument is a min-Tc
		// argument; schedule objectives solve monolithically via the LP.
		return nil, fmt.Errorf("decomp: objective %s is not supported (min-Tc only)", opts.Objective)
	}
	rec := obs.From(ctx)
	if rec == nil {
		// Result reports probe-round/warm-hit telemetry as counter
		// deltas, so the solve always runs against a live recorder.
		rec = obs.New()
		ctx = obs.With(ctx, rec)
	}
	rounds0 := rec.Get(obs.ProbeRounds)
	par0 := rec.Get(obs.ProbeParallelRounds)
	warm0 := rec.Get(obs.WarmPotentialHits)
	// The partition is computed on the snapshot's first decomposed
	// solve and shared after that; its own stage keeps that first-use
	// cost out of the unattributed engine time.
	t0 := time.Now()
	pt := cc.Partition()
	rec.AddStage("decomp.partition", time.Since(t0))
	nc := pt.NumComponents()
	rec.Add(obs.ComponentsTotal, int64(nc))

	var answers []compAnswer
	var resolved, fastPaths int64
	err := rec.Phase(ctx, "decomp.components", func(ctx context.Context) error {
		var err error
		answers, resolved, fastPaths, err = solveAllComponents(ctx, ov, opts, cfg, st)
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.Add(obs.ComponentsResolved, resolved)
	rec.Add(obs.DecompFastPaths, fastPaths)

	// Candidate lower bound and the binding component's witness (ties
	// break to the lowest component for determinism).
	cand, arg := 0.0, -1
	compTc := make([]float64, nc)
	for ci := range answers {
		compTc[ci] = answers[ci].tc
		if answers[ci].tc > cand {
			cand, arg = answers[ci].tc, ci
		}
	}

	res := &Result{
		Components: nc,
		Resolved:   int(resolved),
		FastPaths:  int(fastPaths),
		CompTc:     compTc,
	}
	err = rec.Phase(ctx, "decomp.couple", func(ctx context.Context) error {
		gres, err := couplingSolve(ctx, ov, opts, cfg, st, cand)
		if err != nil {
			return err
		}
		res.Tc = gres.Tc
		res.Schedule = gres.Schedule
		res.D = gres.D
		res.Probes = gres.Probes
		res.CriticalArcs = gres.CriticalArcs
		res.CriticalRatio = gres.CriticalRatio
		if len(res.CriticalArcs) == 0 && arg >= 0 && ratioMatches(answers[arg].ratio, res.Tc) {
			// The candidate was certified on the first probe, so the
			// global phase never saw a witness — but the binding
			// component's cycle is one: its arcs are constraints of the
			// full graph and its ratio equals the answer. A closed-form
			// singleton's setup loop is synthesized only here, for the
			// one component that binds.
			arcs := answers[arg].arcs
			if pt.Trivial(arg) {
				arcs = trivialWitness(cc.Circuit(), int(pt.Members(arg)[0]), answers[arg].tc)
			}
			if len(arcs) > 0 {
				res.CriticalArcs = arcs
				res.CriticalRatio = answers[arg].ratio
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.ProbeRounds = rec.Get(obs.ProbeRounds) - rounds0
	res.ProbeParallelRounds = rec.Get(obs.ProbeParallelRounds) - par0
	res.WarmPotentialHits = rec.Get(obs.WarmPotentialHits) - warm0
	return res, nil
}

// couplingSolve runs the global coupling pass from the candidate lower
// bound. With a shared State (and no pinned FixedTc, which State does
// not key on) the pass reuses one persistent full-graph solver: the
// constraint graph and its CSR scratch are compiled once per State and
// reconciled against each overlay's edit set in O(edits), and every
// pass warm-starts from the base overlay's converged potentials — the
// full-graph analogue of the component caches' base-potential rule.
// Seeds only ever come from that base fixpoint (a pure function of the
// snapshot and options), never from whatever an arbitrary earlier
// overlay left behind, so a solve's outcome does not depend on which
// overlays the State served before it.
func couplingSolve(ctx context.Context, ov core.DelayOverlay, opts core.Options, cfg Config, st *State, cand float64) (*mcr.Result, error) {
	if st == nil || opts.FixedTc != 0 {
		g, err := mcr.NewSolverOverlay(ov, opts)
		if err != nil {
			return nil, err
		}
		g.SetProbeWorkers(cfg.Workers)
		return g.SolveFromCtx(ctx, cand)
	}
	st.coupMu.Lock()
	defer st.coupMu.Unlock()
	base := ov.Base().Overlay()
	if st.coupler == nil {
		g, err := mcr.NewSolverOverlay(base, opts)
		if err != nil {
			return nil, err
		}
		st.coupler = g
	}
	g := st.coupler
	g.SetProbeWorkers(cfg.Workers)
	// Reconcile the solver's constants with this overlay: paths edited
	// by the previous pass return to base, then the overlay's own edits
	// apply (with its already-composed MinDelay clamps, hence
	// SetDelayMin rather than SetDelay).
	for _, p := range st.couplerEdits {
		g.SetDelayMin(int(p), base.Delay(int(p)), base.MinDelay(int(p)))
	}
	edits := ov.EditedPaths()
	for _, p := range edits {
		g.SetDelayMin(int(p), ov.Delay(int(p)), ov.MinDelay(int(p)))
	}
	st.couplerEdits = edits
	if st.couplerPot == nil {
		gres, err := g.SolveFromCtx(ctx, cand)
		if err != nil {
			return nil, err
		}
		if len(edits) == 0 {
			// A base-overlay pass just converged cold: its extraction
			// probe left the canonical least potentials, the anchor every
			// later pass warm-starts from.
			st.couplerPot = g.Potentials()
		}
		return gres, nil
	}
	g.SeedPotentials(st.couplerPot)
	return g.SolveFromWarmCtx(ctx, cand)
}

// ratioMatches reports that a component witness ratio equals the final
// answer to certificate tolerance (relative, as verify.CriticalCycle
// measures it).
func ratioMatches(ratio, tc float64) bool {
	d := ratio - tc
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+abs(tc))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// solveAllComponents answers every component subproblem across a
// bounded worker pool, returning per-component answers plus the
// resolved / fast-path tallies. Errors select deterministically (the
// lowest failing component wins) so concurrent runs report the same
// failure.
func solveAllComponents(ctx context.Context, ov core.DelayOverlay, opts core.Options, cfg Config, st *State) (answers []compAnswer, resolved, fastPaths int64, err error) {
	pt := ov.Base().Partition()
	nc := pt.NumComponents()
	answers = make([]compAnswer, nc)
	errs := make([]error, nc)
	workers := cfg.workers()
	if workers > nc {
		workers = nc
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var next int64
	var mu sync.Mutex // guards resolved/fastPaths
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var nRes, nFast int64
			for {
				ci := int(atomic.AddInt64(&next, 1)) - 1
				if ci >= nc {
					break
				}
				if ctx.Err() != nil {
					errs[ci] = ctx.Err()
					continue
				}
				ans, ran, err := solveComponent(ctx, ov, opts, st, ci)
				if err != nil {
					errs[ci] = err
					continue
				}
				answers[ci] = ans
				if ran {
					nRes++
				}
				if pt.Trivial(ci) {
					nFast++
				}
			}
			mu.Lock()
			resolved += nRes
			fastPaths += nFast
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, 0, 0, e
		}
	}
	return answers, resolved, fastPaths, nil
}

// solveComponent answers one component subproblem: closed form for
// trivial singletons, the cached answer when the component's delay
// digest is known, otherwise a subsystem min-cycle-ratio solve whose
// critical cycle is the component's witness. ran reports whether a
// solve actually executed (the Resolved metric).
func solveComponent(ctx context.Context, ov core.DelayOverlay, opts core.Options, st *State, ci int) (ans compAnswer, ran bool, err error) {
	cc := ov.Base()
	c := cc.Circuit()
	pt := cc.Partition()
	if pt.Trivial(ci) {
		// Closed form: no intra-component arc means no delay
		// dependence, so neither caching nor solving is worth it. The
		// witness is synthesized by Solve if this component binds.
		tc := core.TrivialComponentBound(c, opts, int(pt.Members(ci)[0]))
		return compAnswer{tc: tc, ratio: tc}, false, nil
	}
	dig := ov.ComponentDigest(ci)
	if st != nil {
		if cached, ok := st.lookup(dig); ok {
			return cached, false, nil
		}
	}
	// Per-component solves drop FixedTc: pinning the cycle time is a
	// property of the full system (the subsystem bound may legitimately
	// sit below the pin), enforced by the global coupling phase.
	compOpts := opts
	compOpts.FixedTc = 0
	s, err := mcr.NewComponentSolver(ov, compOpts, pt.Members(ci))
	if err != nil {
		return ans, true, err
	}
	baseDig := cc.Overlay().ComponentDigest(ci)
	var mres *mcr.Result
	if st != nil && dig != baseDig {
		// Edited re-solve: warm-start from the component's BASE
		// potentials (computed on demand) so the answer for a digest
		// stays a pure function of (snapshot, digest, options),
		// whatever overlays the State served before.
		pot := st.potentials(ci)
		if pot == nil {
			bs, berr := mcr.NewComponentSolver(cc.Overlay(), compOpts, pt.Members(ci))
			if berr != nil {
				return ans, true, berr
			}
			bres, berr := bs.MinTcFromCtx(ctx, 0)
			if berr != nil {
				return ans, true, berr
			}
			st.store(baseDig, compAnswer{tc: bres.Tc, ratio: bres.CriticalRatio, arcs: bres.CriticalArcs})
			st.storePotentials(ci, bs.Potentials())
			pot = st.potentials(ci)
		}
		s.SeedPotentials(pot)
		mres, err = s.MinTcFromWarmCtx(ctx, 0)
	} else {
		mres, err = s.MinTcFromCtx(ctx, 0)
		if err == nil && st != nil {
			st.storePotentials(ci, s.Potentials())
		}
	}
	if err != nil {
		return ans, true, err
	}
	ans = compAnswer{tc: mres.Tc, ratio: mres.CriticalRatio, arcs: mres.CriticalArcs}
	if st != nil {
		st.store(dig, ans)
	}
	return ans, true, nil
}

// trivialWitness synthesizes the setup-loop witness of a closed-form
// latch singleton: u_i → e_p carries the setup row (A = bound), e_p →
// s_p the phase-width periodicity (B = −1), s_p → u_i the departure
// bound L3. The node names match the constraint-graph names the
// min-cycle-ratio builders use, so the cycle reads as a full-system
// certificate.
func trivialWitness(c *core.Circuit, sync int, bound float64) []mcr.CycleArc {
	p := c.Sync(sync).Phase
	u := "u." + c.SyncName(sync)
	e := "e." + c.PhaseName(p)
	s := "s." + c.PhaseName(p)
	return []mcr.CycleArc{
		{From: u, To: e, A: bound, B: 0},
		{From: e, To: s, A: 0, B: -1},
		{From: s, To: u, A: 0, B: 0},
	}
}
