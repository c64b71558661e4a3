package mcr

import (
	"context"
	"fmt"

	"mintc/internal/core"
)

// Solver is a reusable min-cycle-ratio engine for design iterations:
// the constraint graph is built once and worst-case path delays may be
// updated in place between solves — the design-side analogue of
// repeated core.CheckTcOverlay calls over one frozen snapshot. The
// circuit's structure (synchronizers, paths, and every option other
// than the delays) is fixed at construction.
type Solver struct {
	b    *builder
	opts core.Options
	// consMin[p] is the construction-time best-case delay of path p
	// when it carries a hold edge: SetDelay clamps the new best-case
	// delay to min(consMin, d), the composition DelayOverlay.With
	// applies. nil without DesignForHold, which emits no hold edges.
	consMin []float64
}

// newSolverOn wraps a built constraint graph, recording the
// construction-time best-case delays SetDelay clamps against, read
// through the overlay the graph was built from.
func newSolverOn(b *builder, opts core.Options, ov core.DelayOverlay) *Solver {
	s := &Solver{b: b, opts: opts}
	if opts.DesignForHold {
		s.consMin = make([]float64, len(b.pathEdge))
		for p, hi := range b.holdEdge {
			if hi >= 0 {
				s.consMin[p] = ov.MinDelay(p)
			}
		}
	}
	return s
}

// SetDelay updates path p's worst-case delay for subsequent solves
// (the underlying circuit is not modified). When the path carries a
// conservative hold edge, its best-case delay is clamped to
// min(construction MinDelay, d) — the same composition
// DelayOverlay.With and Circuit.SetPathDelay apply — and the hold
// constant recomputed accordingly. Constants are summed afresh, as a
// build does, so the edited solver answers bit for bit like one built
// over the edited overlay. On a component solver (NewComponentSolver)
// only intra-component paths may be edited; the rest are not part of
// the subsystem and panic.
func (s *Solver) SetDelay(p int, d float64) {
	ei := s.edgeOf("SetDelay", p)
	minEff := d
	if s.consMin != nil && s.consMin[p] < d {
		minEff = s.consMin[p]
	}
	s.setDelay(ei, p, d, minEff)
}

// SetDelayMin is SetDelay with a caller-supplied effective best-case
// delay instead of the min(construction MinDelay, d) clamp. Overlay
// reconciliation needs it: chained DelayOverlay edits compose their
// MinDelay clamps edit over edit, so the overlay's effective best-case
// delay for a path can differ from what SetDelay's single-step clamp
// would produce — the caller reads the overlay's own MinDelay and
// passes it through verbatim.
func (s *Solver) SetDelayMin(p int, d, minEff float64) {
	s.setDelay(s.edgeOf("SetDelayMin", p), p, d, minEff)
}

// edgeOf returns path p's constraint edge, panicking (as method name)
// when p is out of range or outside the solver's subsystem.
func (s *Solver) edgeOf(name string, p int) int32 {
	if p < 0 || p >= len(s.b.pathEdge) {
		panic(fmt.Sprintf("mcr: Solver.%s path %d out of range", name, p))
	}
	ei := s.b.pathEdge[p]
	if ei < 0 {
		panic(fmt.Sprintf("mcr: Solver.%s path %d is outside this solver's subsystem", name, p))
	}
	return ei
}

func (s *Solver) setDelay(ei int32, p int, d, minEff float64) {
	s.b.setA(ei, s.b.pathA(p, d))
	if hi := s.b.holdEdge[p]; hi >= 0 {
		s.b.setA(hi, s.b.holdA(p, minEff))
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
// warm_potential_hits tick. Seeding replaces the whole warm state: the
// stored witness is dropped too, so a seeded solve starts from the
// caller's bound alone and its outcome is a function of the seed and
// the current delays, not of whatever this Solver solved before.
func (s *Solver) SeedPotentials(pot []float64) {
	s.b.ensureScratch()
	s.b.witIdx = s.b.witIdx[:0]
	if len(pot) != len(s.b.dist) {
		return
	}
	copy(s.b.dist, pot)
	s.b.distValid = true
	s.b.seededPot = true
}

// witnessBound recomputes the most recent witness cycle's ratio
// against the current edge constants. Edge endpoints never change
// under SetDelay — only the affine constants move — so the stored
// cycle is still a real cycle of the graph and its ratio is a sound
// cycle-time lower bound at the current delays, however stale the
// delays that found it. Returns ok == false when no ratio-bearing
// witness is stored (no probe found one, the potentials were seeded,
// or the cycle crosses no boundary at the current constants). Every
// warm solve starts from it: while the same cycle stays critical — the
// straight segments between breakpoints of a piecewise-linear
// Tc(delay) curve — the first probe at the bound is feasible and a
// re-solve costs one ratio recomputation plus one warm probe.
func (b *builder) witnessBound() (bound float64, ok bool) {
	if len(b.witIdx) == 0 {
		return 0, false
	}
	var sumA, sumB float64
	for _, ei := range b.witIdx {
		sumA += b.edges[ei].a
		sumB += b.edges[ei].b
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
