// Package ettf implements the classic edge-triggered approximation
// that the paper's related-work section attributes to most prior tools
// (e.g. the first iteration of Jouppi's TV): every level-sensitive
// latch is treated as if it were a flip-flop clocked by the closing
// edge of its phase — data launches at the closing edge and must
// arrive before the closing edge minus setup. Time borrowing through
// transparent latches is therefore ignored.
//
// Launching at the closing edge (rather than the opening edge) is what
// makes the approximation conservative: a real latch departs at
// max(0, A_i) <= T_{p_i}, so a schedule accepted here always passes
// the exact analysis of core.CheckTc, and the minimum cycle time found
// here upper-bounds the true optimum.
//
// The resulting minimum cycle time is an upper bound on the true
// optimum computed by core.MinTc; the gap between the two is exactly
// the benefit of modeling latch transparency. The package is used both
// as a baseline in the Fig. 7/Fig. 9 reproductions and as the starting
// point of the NRIP reconstruction.
package ettf

import (
	"context"
	"errors"
	"fmt"

	"mintc/internal/core"
	"mintc/internal/lp"
	"mintc/internal/obs"
)

// ErrInfeasible indicates no cycle time satisfies the edge-triggered
// constraints (cannot happen for pure-latch circuits, whose constraint
// graphs always admit large cycle times, but kept for symmetry).
var ErrInfeasible = errors.New("ettf: edge-triggered constraints are infeasible")

// Result is the outcome of the edge-triggered analysis.
type Result struct {
	// Schedule is the minimum-Tc clock schedule under the
	// edge-triggered approximation.
	Schedule *core.Schedule
	// NumConstraints and Pivots report LP statistics.
	NumConstraints int
	Pivots         int
	// Stats is the observability snapshot of the solve.
	Stats obs.Stats
}

// MinTcCtx computes the minimum cycle time and a clock schedule under
// the edge-triggered approximation for the snapshot behind ov, with
// path delays read through the overlay: minimize Tc subject to the
// clock constraints C1–C4 and, for every combinational path j→i,
//
//	T_{p_j} + ΔDQ_j + Δ_ji + S_{p_j p_i} <= T_{p_i} − ΔDC_i
//
// (data launched at the closing edge of φ_{p_j} arrives before the
// closing edge of φ_{p_i} minus setup). Flip-flop sources launch at
// their true opening edge, and flip-flop destinations require arrival
// before the opening edge, matching their exact semantics.
//
// The context is honored inside the simplex pivot loop, and LP
// statistics are reported into the obs recorder carried by the context
// (one is created when absent, so Result.Stats is always populated).
// The snapshot was validated at Freeze; only the options are checked.
func MinTcCtx(ctx context.Context, ov core.DelayOverlay, opts core.Options) (*Result, error) {
	if !ov.Valid() {
		return nil, errors.New("ettf: solve on a zero DelayOverlay (start from Circuit.Freeze)")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !opts.Objective.IsMinTc() {
		return nil, fmt.Errorf("ettf: objective %s is not supported (min-Tc only)", opts.Objective)
	}
	c := ov.Base().Circuit()
	rec := obs.From(ctx)
	if rec == nil {
		rec = obs.New()
		ctx = obs.With(ctx, rec)
	}
	k := c.K()
	p := &lp.Problem{}
	tc := p.AddVar("Tc", 1)
	s := make([]int, k)
	tw := make([]int, k)
	for i := 0; i < k; i++ {
		s[i] = p.AddVar("s."+c.PhaseName(i), 0)
	}
	for i := 0; i < k; i++ {
		tw[i] = p.AddVar("T."+c.PhaseName(i), 0)
	}

	// Clock constraints (identical to core's C1–C3).
	for i := 0; i < k; i++ {
		p.AddConstraint(fmt.Sprintf("C1.T.%s", c.PhaseName(i)),
			[]lp.Term{{Var: tw[i], Coef: 1}, {Var: tc, Coef: -1}}, lp.LE, 0)
		p.AddConstraint(fmt.Sprintf("C1.s.%s", c.PhaseName(i)),
			[]lp.Term{{Var: s[i], Coef: 1}, {Var: tc, Coef: -1}}, lp.LE, 0)
	}
	for i := 0; i+1 < k; i++ {
		p.AddConstraint(fmt.Sprintf("C2.%d", i),
			[]lp.Term{{Var: s[i], Coef: 1}, {Var: s[i+1], Coef: -1}}, lp.LE, 0)
	}
	km := c.KMatrix()
	cm := c.CMatrix()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] == 0 {
				continue
			}
			p.AddConstraint(fmt.Sprintf("C3.%d.%d", i, j),
				[]lp.Term{
					{Var: s[i], Coef: 1}, {Var: s[j], Coef: -1},
					{Var: tw[j], Coef: -1}, {Var: tc, Coef: float64(cm[j][i])},
				}, lp.GE, opts.MinSeparation)
		}
	}
	if opts.MinPhaseWidth > 0 {
		for i := 0; i < k; i++ {
			p.AddConstraint(fmt.Sprintf("minW.%d", i),
				[]lp.Term{{Var: tw[i], Coef: 1}}, lp.GE, opts.MinPhaseWidth)
		}
	}
	// Setup floor: with departures pinned at the opening edge, each
	// latch still needs T_{p_i} >= ΔDC_i (the paper's L1 with D = 0).
	for _, sy := range c.Syncs() {
		if sy.Kind == core.Latch {
			p.AddConstraint("L1."+sy.Name,
				[]lp.Term{{Var: tw[sy.Phase], Coef: 1}}, lp.GE, sy.Setup+opts.Skew)
		}
	}

	// Path constraints. Latch sources launch at their closing edge
	// (add T_{p_j}); FF sources launch at their opening edge.
	for pidx, path := range c.Paths() {
		j, i := path.From, path.To
		pj, pi := c.Sync(j).Phase, c.Sync(i).Phase
		cji := 0.0
		if pj >= pi {
			cji = 1
		}
		w := c.Sync(j).DQ + ov.Delay(pidx) + c.Sync(i).Setup + opts.Skew
		terms := []lp.Term{
			{Var: s[pj], Coef: 1}, {Var: s[pi], Coef: -1},
			{Var: tc, Coef: -cji},
		}
		if c.Sync(j).Kind == core.Latch {
			terms = append(terms, lp.Term{Var: tw[pj], Coef: 1})
		}
		switch c.Sync(i).Kind {
		case core.Latch:
			// ... <= T_pi − w.
			terms = append(terms, lp.Term{Var: tw[pi], Coef: -1})
			p.AddConstraint(fmt.Sprintf("path.%d", pidx), terms, lp.LE, -w)
		case core.FlipFlop:
			// Arrival before the triggering (opening) edge.
			p.AddConstraint(fmt.Sprintf("ffpath.%d", pidx), terms, lp.LE, -w)
		}
	}

	var sol *lp.Solution
	err := rec.Phase(ctx, "lp", func(ctx context.Context) error {
		rec.Add(obs.LPRows, int64(p.NumConstraints()))
		var serr error
		sol, serr = lp.SolveCtx(ctx, p)
		if sol != nil {
			rec.Add(obs.Pivots, int64(sol.Pivots))
		}
		return serr
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		return nil, fmt.Errorf("ettf: LP solve failed: %w", err)
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil, ErrInfeasible
	case lp.Unbounded:
		return nil, fmt.Errorf("ettf: LP unexpectedly unbounded")
	}
	sched := core.NewSchedule(k)
	sched.Tc = sol.X[tc]
	for i := 0; i < k; i++ {
		sched.S[i] = sol.X[s[i]]
		sched.T[i] = sol.X[tw[i]]
	}
	return &Result{Schedule: sched, NumConstraints: p.NumConstraints(), Pivots: sol.Pivots, Stats: rec.Snapshot()}, nil
}
