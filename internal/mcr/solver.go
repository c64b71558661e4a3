package mcr

import (
	"context"
	"fmt"

	"mintc/internal/core"
)

// Solver is a reusable min-cycle-ratio engine for design iterations:
// the constraint graph is built once and worst-case path delays may be
// updated in place between solves — the design-side analogue of
// core.Evaluator. The circuit's structure (synchronizers, paths, and
// every option other than the delays) is fixed at construction.
type Solver struct {
	b    *builder
	opts core.Options
	// baseA[p] is the affine constant of path p's edge minus the
	// worst-case delay, so SetDelay is a single write.
	baseA []float64
	// holdBaseA[p] and consMin[p] are the construction-time affine
	// constant and best-case delay of path p's hold edge (when one
	// exists): SetDelay repairs the hold constant with the same
	// MinDelay clamp DelayOverlay.With applies — the effective
	// best-case delay is min(construction MinDelay, new delay), so the
	// repaired constant is holdBaseA + (consMin − clamped). Both are
	// nil without DesignForHold, which emits no hold edges.
	holdBaseA []float64
	consMin   []float64
}

// newSolverOn wraps a built constraint graph, recording the per-path
// base constants SetDelay repairs, with delays (and best-case delays)
// read through the overlay the graph was built from.
func newSolverOn(b *builder, opts core.Options, ov core.DelayOverlay) *Solver {
	n := len(b.pathEdge)
	s := &Solver{b: b, opts: opts, baseA: make([]float64, n)}
	if opts.DesignForHold {
		s.holdBaseA = make([]float64, n)
		s.consMin = make([]float64, n)
	}
	for p, ei := range b.pathEdge {
		if ei < 0 {
			continue // outside the subsystem; SetDelay panics on it
		}
		s.baseA[p] = b.edges[ei].a - ov.Delay(p)
		if hi := b.holdEdge[p]; hi >= 0 {
			s.holdBaseA[p] = b.edges[hi].a
			s.consMin[p] = ov.MinDelay(p)
		}
	}
	return s
}

// SetDelay updates path p's worst-case delay for subsequent solves
// (the underlying circuit is not modified). When the path carries a
// conservative hold edge, its best-case delay is clamped to
// min(construction MinDelay, d) — the same composition
// DelayOverlay.With and Circuit.SetPathDelay apply — and the hold
// constant repaired accordingly. On a component solver
// (NewComponentSolver) only intra-component paths may be edited; the
// rest are not part of the subsystem and panic.
func (s *Solver) SetDelay(p int, d float64) {
	if p < 0 || p >= len(s.baseA) {
		panic(fmt.Sprintf("mcr: Solver.SetDelay path %d out of range", p))
	}
	ei := s.b.pathEdge[p]
	if ei < 0 {
		panic(fmt.Sprintf("mcr: Solver.SetDelay path %d is outside this solver's subsystem", p))
	}
	s.b.setA(ei, s.baseA[p]+d)
	if hi := s.b.holdEdge[p]; hi >= 0 {
		m := s.consMin[p]
		if d < m {
			m = d
		}
		s.b.setA(hi, s.holdBaseA[p]+(s.consMin[p]-m))
	}
}

// SetDelayMin is SetDelay with a caller-supplied effective best-case
// delay instead of the min(construction MinDelay, d) clamp. Overlay
// reconciliation needs it: chained DelayOverlay edits compose their
// MinDelay clamps edit over edit, so the overlay's effective best-case
// delay for a path can differ from what SetDelay's single-step clamp
// would produce — the caller reads the overlay's own MinDelay and
// passes it through verbatim.
func (s *Solver) SetDelayMin(p int, d, minEff float64) {
	if p < 0 || p >= len(s.baseA) {
		panic(fmt.Sprintf("mcr: Solver.SetDelayMin path %d out of range", p))
	}
	ei := s.b.pathEdge[p]
	if ei < 0 {
		panic(fmt.Sprintf("mcr: Solver.SetDelayMin path %d is outside this solver's subsystem", p))
	}
	s.b.setA(ei, s.baseA[p]+d)
	if hi := s.b.holdEdge[p]; hi >= 0 {
		s.b.setA(hi, s.holdBaseA[p]+(s.consMin[p]-minEff))
	}
}

// SetProbeWorkers bounds the chunked probe's relaxation worker pool
// for subsequent solves (0 restores the GOMAXPROCS default). Results
// are bit-identical for every worker count — see parallel.go — so this
// only tunes CPU usage.
func (s *Solver) SetProbeWorkers(w int) { s.b.probeWorkers = w }

// Potentials returns a copy of the node potentials left by the most
// recent probe on this solver, or nil when none ran. Together with
// SeedPotentials it lets a caller persist a converged fixpoint (e.g. on
// decomp.State) and warm-start a future solver over the same subsystem
// from it instead of from -Inf.
func (s *Solver) Potentials() []float64 {
	if !s.b.distValid {
		return nil
	}
	out := make([]float64, len(s.b.dist))
	copy(out, s.b.dist)
	return out
}

// SeedPotentials installs externally persisted potentials as the warm
// start for the next warm solve (MinTcFromWarmCtx/SolveFromWarmCtx).
// Any finite potentials are sound starting points for the feasibility
// probe (shift invariance of difference constraints), so seeding
// changes cost, never answers; a length mismatch (different subsystem)
// is ignored. The first warm probe consuming a seed reports a
// warm_potential_hits tick.
func (s *Solver) SeedPotentials(pot []float64) {
	s.b.ensureScratch()
	if len(pot) != len(s.b.dist) {
		return
	}
	copy(s.b.dist, pot)
	s.b.distValid = true
	s.b.seededPot = true
}

// WitnessBound recomputes the most recent witness cycle's ratio
// against the current edge constants. Edge endpoints never change
// under SetDelay — only the affine constants move — so the stored
// cycle is still a real cycle of the graph and its ratio is a sound
// cycle-time lower bound at the current delays, however stale the
// delays that found it. Returns ok == false when no ratio-bearing
// witness is stored (no probe found one, or the cycle crosses no
// boundary at the current constants). This is what makes a sweep walk
// cheap: while the same cycle stays critical, each point costs one
// ratio recomputation plus one warm feasible probe.
func (s *Solver) WitnessBound() (bound float64, ok bool) {
	if len(s.b.witIdx) == 0 {
		return 0, false
	}
	var sumA, sumB float64
	for _, ei := range s.b.witIdx {
		sumA += s.b.edges[ei].a
		sumB += s.b.edges[ei].b
	}
	if sumB >= -eps {
		return 0, false
	}
	return sumA / -sumB, true
}

// Solve computes the optimal cycle time for the current delays.
func (s *Solver) Solve() (*Result, error) {
	return s.SolveCtx(context.Background())
}

// SolveCtx is Solve with cancellation; any obs recorder carried by the
// context receives the probe counts.
func (s *Solver) SolveCtx(ctx context.Context) (*Result, error) {
	return solveWith(ctx, s.b, s.opts)
}
