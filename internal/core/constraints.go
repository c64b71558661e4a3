package core

import (
	"fmt"
	"math"

	"mintc/internal/lp"
)

// RowKind classifies a generated LP constraint row by the paper's
// constraint family.
type RowKind int

// Constraint families (paper §III).
const (
	RowPeriodicity RowKind = iota // C1: T_i <= Tc, s_i <= Tc
	RowPhaseOrder                 // C2: s_i <= s_{i+1}
	RowNonOverlap                 // C3: s_i >= s_j + T_j - C_ji*Tc
	RowSetup                      // L1: D_i + ΔDC_i <= T_{p_i}
	RowPropagation                // L2R: D_i >= D_j + ΔDQ_j + Δ_ji + S
	RowFFDeparture                // extension: D_i == 0 for flip-flops
	RowFFSetup                    // extension: FF arrival setup per fanin path
	RowMinWidth                   // extension: T_i >= MinPhaseWidth
	RowFixedTc                    // extension: Tc == target
	RowHold                       // extension: conservative hold row per fanin path
)

// String names the row kind.
func (k RowKind) String() string {
	switch k {
	case RowPeriodicity:
		return "C1 periodicity"
	case RowPhaseOrder:
		return "C2 phase order"
	case RowNonOverlap:
		return "C3 nonoverlap"
	case RowSetup:
		return "L1 setup"
	case RowPropagation:
		return "L2R propagation"
	case RowFFDeparture:
		return "FF departure"
	case RowFFSetup:
		return "FF setup"
	case RowMinWidth:
		return "min width"
	case RowFixedTc:
		return "fixed Tc"
	case RowHold:
		return "hold"
	}
	return fmt.Sprintf("RowKind(%d)", int(k))
}

// RowInfo ties an LP row back to the model entity that generated it, so
// critical-constraint reports can speak the paper's language.
type RowInfo struct {
	Kind  RowKind
	Phase int // phase index for C1/C2/C3/min-width rows, else -1
	Sync  int // synchronizer index for L1/L2R/FF rows, else -1
	Path  int // path index for L2R/FF-setup rows, else -1
	Name  string
}

// VarMap records where each timing variable lives in the LP.
type VarMap struct {
	Tc int
	S  []int // per phase
	T  []int // per phase
	D  []int // per synchronizer
	// Obj is the objective slack variable added by schedule objectives
	// (ObjMaxMargin's margin, ObjMinSkewBudget's allowance), or -1 when
	// the active objective adds none.
	Obj int
}

// Options tunes constraint generation and the MLP algorithm.
// The zero value reproduces the paper's model exactly.
type Options struct {
	// MinPhaseWidth adds T_i >= MinPhaseWidth for every phase
	// (paper §III.A: "further requirements, such as minimum phase
	// width ... can be easily added").
	MinPhaseWidth float64
	// MinSeparation widens every C3 nonoverlap constraint by the given
	// gap between the closing and opening edges of an I/O phase pair.
	MinSeparation float64
	// Skew is a global clock-skew margin: it tightens every setup
	// constraint and every propagation constraint by the given amount.
	Skew float64
	// PhaseSkew optionally assigns a per-phase edge-uncertainty margin
	// σ_p (one entry per phase; nil disables). Worst-casing both ends
	// of each transfer, a propagation arc from phase p to phase q is
	// tightened by σ_p+σ_q, a latch setup on phase q by σ_q, an FF
	// capture by σ_q, and a C3 nonoverlap gap between phases p/q by
	// σ_p+σ_q. This generalizes the single Skew margin to per-domain
	// uncertainty.
	PhaseSkew []float64
	// DesignForHold adds conservative hold constraints to the design
	// LP for every synchronizer with Hold > 0: assuming the earliest
	// possible launch (at the source phase's opening edge), the
	// next-wave arrival over every fanin path must clear the closing
	// (or triggering) edge by the hold time. The resulting rows are
	// linear — per-path, with the best-case delay — so the optimal
	// schedule also passes CheckTc's hold analysis. Conservative
	// because real earliest departures can only be later than the
	// phase opening.
	DesignForHold bool
	// FixedTc, when positive, pins the cycle time (analysis of a given
	// clock frequency rather than optimization).
	FixedTc float64
	// Objective selects what the design LP optimizes. The zero value
	// minimizes Tc (the paper's problem); schedule objectives optimize
	// the waveforms at Objective.FixedTc. See the Objective type.
	Objective Objective
	// Update selects the departure-update strategy of Algorithm MLP's
	// steps 3–5. The default is Jacobi, as in the paper's listing.
	Update UpdateMode
	// MaxUpdateIter caps the update iterations (0 means automatic); a
	// slide that hits the cap finishes at the least fixpoint of the
	// propagation operator.
	MaxUpdateIter int
}

// UpdateMode selects how Algorithm MLP iterates the propagation
// operator after the LP solve.
type UpdateMode int

// Update strategies. The paper presents Jacobi and notes Gauss–Seidel
// and event-driven refinements.
const (
	Jacobi UpdateMode = iota
	GaussSeidel
	EventDriven
)

// String names the update mode.
func (m UpdateMode) String() string {
	switch m {
	case Jacobi:
		return "jacobi"
	case GaussSeidel:
		return "gauss-seidel"
	case EventDriven:
		return "event-driven"
	}
	return fmt.Sprintf("UpdateMode(%d)", int(m))
}

// Validate rejects option values that would otherwise surface as
// confusing LP infeasibility (or panics) deep in a solver: negative or
// non-finite margins, widths, separations, a negative fixed cycle
// time, a negative iteration cap, or an unknown update mode. Every
// engine entry point calls it before touching the circuit. The
// circuit-dependent PhaseSkew length check stays in validatePhaseSkew.
func (o Options) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"MinPhaseWidth", o.MinPhaseWidth},
		{"MinSeparation", o.MinSeparation},
		{"Skew", o.Skew},
		{"FixedTc", o.FixedTc},
	}
	for _, c := range checks {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("core: option %s = %g is invalid (must be finite and nonnegative)", c.name, c.v)
		}
	}
	for p, s := range o.PhaseSkew {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("core: option PhaseSkew[%d] = %g is invalid (must be finite and nonnegative)", p, s)
		}
	}
	if o.MaxUpdateIter < 0 {
		return fmt.Errorf("core: option MaxUpdateIter = %d is negative", o.MaxUpdateIter)
	}
	switch o.Update {
	case Jacobi, GaussSeidel, EventDriven:
	default:
		return fmt.Errorf("core: unknown update mode %d", int(o.Update))
	}
	return o.Objective.validate(o.FixedTc)
}

// The three RHS formulas below are the only places a path's delay
// enters the LP — always through the right-hand side, never a
// coefficient, and always read through the overlay. buildLP and the
// snapshot's template instances both evaluate them, so the two row
// generators cannot drift apart.

// propagationRHS is the RHS of a latch-destination L2R row for path
// pidx: the margin-adjusted arc weight ΔDQ_j + Δ_ji + margins.
func propagationRHS(ov DelayOverlay, opts Options, pidx int) float64 {
	return ov.ArcWeight(opts, pidx)
}

// ffSetupRHS is the RHS of a flip-flop-destination FFsu row for path
// pidx: −(setup + arc weight), the latest arrival meeting setup before
// the triggering edge.
func ffSetupRHS(ov DelayOverlay, opts Options, pidx int) float64 {
	c := ov.base.c
	return -(c.Sync(c.Paths()[pidx].To).Setup + ov.ArcWeight(opts, pidx))
}

// holdRHS is the RHS of a conservative hold row for path pidx (see
// Options.DesignForHold): hold − ΔDQ_j − δmin + margins.
func holdRHS(ov DelayOverlay, opts Options, pidx int) float64 {
	c := ov.base.c
	path := c.Paths()[pidx]
	j, i := path.From, path.To
	pj, piph := c.Sync(j).Phase, c.Sync(i).Phase
	return c.Sync(i).Hold - c.Sync(j).DQ - ov.MinDelay(pidx) + opts.Skew + opts.sigma(pj) + opts.sigma(piph)
}

// cShift returns C_pq for 0-based phases: 1 when p >= q, else 0.
func cShift(p, q int) float64 {
	if p >= q {
		return 1
	}
	return 0
}

// sigma returns the per-phase skew margin of phase p (0 when the
// option is unset or out of range).
func (o Options) sigma(p int) float64 {
	if p < 0 || p >= len(o.PhaseSkew) {
		return 0
	}
	return o.PhaseSkew[p]
}

// validatePhaseSkew checks the option against the circuit.
func (o Options) validatePhaseSkew(c *Circuit) error {
	if o.PhaseSkew == nil {
		return nil
	}
	if len(o.PhaseSkew) != c.K() {
		return fmt.Errorf("core: PhaseSkew has %d entries, circuit has %d phases", len(o.PhaseSkew), c.K())
	}
	for p, s := range o.PhaseSkew {
		if s < 0 {
			return fmt.Errorf("core: PhaseSkew[%d] = %g is negative", p, s)
		}
	}
	return nil
}

// BuildLP assembles the paper's linear program P2 (problem "Modified
// Optimal Cycle Time"): by default minimize Tc subject to the clock
// constraints C1–C4 and the latch constraints L1, L2R, L3.
// Nonnegativity (C4, L3) is implicit in the solver's x >= 0 convention.
//
// Options.Objective swaps the cost vector (and, for the margin and
// skew-budget objectives, appends one slack variable to the setup-type
// rows) without changing the constraint census; the zero objective
// reproduces the legacy min-Tc LP bit for bit.
//
// The returned RowInfo slice parallels the LP's constraint rows.
func BuildLP(c *Circuit, opts Options) (*lp.Problem, *VarMap, []RowInfo) {
	return buildLP(circuitView(c), opts)
}

// buildLP generates P2 over the overlay's base circuit with every path
// delay read through the overlay. Solves never call it per overlay:
// the snapshot's template (lpTemplate) builds it once from the empty
// overlay and patches edited paths' RHS values.
func buildLP(ov DelayOverlay, opts Options) (*lp.Problem, *VarMap, []RowInfo) {
	c := ov.base.c
	k := c.K()
	l := c.L()
	p := &lp.Problem{}
	vm := &VarMap{S: make([]int, k), T: make([]int, k), D: make([]int, l), Obj: -1}
	var rows []RowInfo

	obj := opts.Objective
	tcCoef := 1.0 // objective: minimize Tc
	if !obj.IsMinTc() {
		tcCoef = 0 // schedule objectives pin Tc via the fixed-Tc row
	}
	tCoef := 0.0
	if obj.Kind == ObjMinPhaseWidth {
		tCoef = 1 // objective: minimize sum(T_i)
	}
	vm.Tc = p.AddVar("Tc", tcCoef)
	for i := 0; i < k; i++ {
		vm.S[i] = p.AddVar("s."+c.PhaseName(i), 0)
	}
	for i := 0; i < k; i++ {
		vm.T[i] = p.AddVar("T."+c.PhaseName(i), tCoef)
	}
	for i := 0; i < l; i++ {
		vm.D[i] = p.AddVar("D."+c.SyncName(i), 0)
	}
	if name := obj.auxVarName(); name != "" {
		// Maximize the slack: minimize its negation.
		vm.Obj = p.AddVar(name, -1)
	}
	fixedTc := obj.effectiveFixedTc(opts.FixedTc)

	// setupSlack appends the objective slack to a setup-type LE row
	// (L1 latch setup, FF setup): both the margin and the skew-budget
	// objectives tighten those by the slack value.
	setupSlack := func(terms []lp.Term) []lp.Term {
		if vm.Obj >= 0 {
			terms = append(terms, lp.Term{Var: vm.Obj, Coef: 1})
		}
		return terms
	}
	// skewSlack appends the objective slack to a GE row tightened by
	// uniform skew (L2R propagation, hold): only the skew-budget
	// allowance enters those, exactly where Options.Skew does.
	skewSlack := func(terms []lp.Term) []lp.Term {
		if obj.Kind == ObjMinSkewBudget {
			terms = append(terms, lp.Term{Var: vm.Obj, Coef: -1})
		}
		return terms
	}

	addRow := func(info RowInfo, terms []lp.Term, rel lp.Rel, rhs float64) {
		p.AddConstraint(info.Name, terms, rel, rhs)
		rows = append(rows, info)
	}

	// C1 periodicity: T_i <= Tc and s_i <= Tc.
	for i := 0; i < k; i++ {
		addRow(RowInfo{Kind: RowPeriodicity, Phase: i, Sync: -1, Path: -1, Name: fmt.Sprintf("C1.T.%s", c.PhaseName(i))},
			[]lp.Term{{Var: vm.T[i], Coef: 1}, {Var: vm.Tc, Coef: -1}}, lp.LE, 0)
		addRow(RowInfo{Kind: RowPeriodicity, Phase: i, Sync: -1, Path: -1, Name: fmt.Sprintf("C1.s.%s", c.PhaseName(i))},
			[]lp.Term{{Var: vm.S[i], Coef: 1}, {Var: vm.Tc, Coef: -1}}, lp.LE, 0)
	}

	// C2 phase ordering: s_i <= s_{i+1}.
	for i := 0; i+1 < k; i++ {
		addRow(RowInfo{Kind: RowPhaseOrder, Phase: i, Sync: -1, Path: -1, Name: fmt.Sprintf("C2.%s<=%s", c.PhaseName(i), c.PhaseName(i+1))},
			[]lp.Term{{Var: vm.S[i], Coef: 1}, {Var: vm.S[i+1], Coef: -1}}, lp.LE, 0)
	}

	// C3 nonoverlap: for every I/O phase pair K_ij = 1,
	// s_i >= s_j + T_j − C_ji·Tc (+ optional MinSeparation).
	km := c.KMatrix()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] == 0 {
				continue
			}
			addRow(RowInfo{Kind: RowNonOverlap, Phase: i, Sync: -1, Path: -1, Name: fmt.Sprintf("C3.%s->%s", c.PhaseName(i), c.PhaseName(j))},
				[]lp.Term{
					{Var: vm.S[i], Coef: 1},
					{Var: vm.S[j], Coef: -1},
					{Var: vm.T[j], Coef: -1},
					{Var: vm.Tc, Coef: cShift(j, i)},
				}, lp.GE, opts.MinSeparation+opts.sigma(i)+opts.sigma(j))
		}
	}

	// Optional minimum phase widths.
	if opts.MinPhaseWidth > 0 {
		for i := 0; i < k; i++ {
			addRow(RowInfo{Kind: RowMinWidth, Phase: i, Sync: -1, Path: -1, Name: fmt.Sprintf("minW.%s", c.PhaseName(i))},
				[]lp.Term{{Var: vm.T[i], Coef: 1}}, lp.GE, opts.MinPhaseWidth)
		}
	}

	// Optional fixed cycle time (schedule objectives always pin it).
	if fixedTc > 0 {
		addRow(RowInfo{Kind: RowFixedTc, Phase: -1, Sync: -1, Path: -1, Name: "Tc.fixed"},
			[]lp.Term{{Var: vm.Tc, Coef: 1}}, lp.EQ, fixedTc)
	}

	// L1 setup for level-sensitive latches: D_i + ΔDC_i <= T_{p_i}.
	// Flip-flops instead pin D_i = 0 and constrain arrivals per path.
	for i, s := range c.Syncs() {
		switch s.Kind {
		case Latch:
			addRow(RowInfo{Kind: RowSetup, Phase: -1, Sync: i, Path: -1, Name: fmt.Sprintf("L1.%s", c.SyncName(i))},
				setupSlack([]lp.Term{{Var: vm.D[i], Coef: 1}, {Var: vm.T[s.Phase], Coef: -1}}), lp.LE, -(s.Setup + opts.Skew + opts.sigma(s.Phase)))
		case FlipFlop:
			addRow(RowInfo{Kind: RowFFDeparture, Phase: -1, Sync: i, Path: -1, Name: fmt.Sprintf("FF.D.%s", c.SyncName(i))},
				[]lp.Term{{Var: vm.D[i], Coef: 1}}, lp.EQ, 0)
		}
	}

	// Propagation constraints. For a latch destination these are the
	// relaxed L2R rows: D_i − D_j − s_{p_j} + s_{p_i} + C_{p_j p_i}·Tc
	// >= ΔDQ_j + Δ_ji. For a flip-flop destination the arrival must
	// meet setup before the triggering edge s_{p_i}:
	// D_j + ΔDQ_j + Δ_ji + S_{p_j p_i} <= −ΔDC_i.
	for pi, path := range c.Paths() {
		j, i := path.From, path.To
		pj, piph := c.Sync(j).Phase, c.Sync(i).Phase
		cji := cShift(pj, piph)
		switch c.Sync(i).Kind {
		case Latch:
			addRow(RowInfo{Kind: RowPropagation, Phase: -1, Sync: i, Path: pi, Name: fmt.Sprintf("L2R.%s->%s", c.SyncName(j), c.SyncName(i))},
				skewSlack([]lp.Term{
					{Var: vm.D[i], Coef: 1},
					{Var: vm.D[j], Coef: -1},
					{Var: vm.S[pj], Coef: -1},
					{Var: vm.S[piph], Coef: 1},
					{Var: vm.Tc, Coef: cji},
				}), lp.GE, propagationRHS(ov, opts, pi))
		case FlipFlop:
			addRow(RowInfo{Kind: RowFFSetup, Phase: -1, Sync: i, Path: pi, Name: fmt.Sprintf("FFsu.%s->%s", c.SyncName(j), c.SyncName(i))},
				setupSlack([]lp.Term{
					{Var: vm.D[j], Coef: 1},
					{Var: vm.S[pj], Coef: 1},
					{Var: vm.S[piph], Coef: -1},
					{Var: vm.Tc, Coef: -cji},
				}), lp.LE, ffSetupRHS(ov, opts, pi))
		}
	}

	// Optional conservative hold rows (see Options.DesignForHold).
	// Earliest launch at the source phase opening: the next-wave
	// arrival must clear the capture element's closing (latch) or
	// triggering (FF) edge by the hold time:
	//
	//	s_pj − s_pi + (1−C)·Tc − [T_pi if latch] >=
	//	    Hold_i − ΔDQ_j − δmin + margins
	if opts.DesignForHold {
		for pi, path := range c.Paths() {
			i := path.To
			hold := c.Sync(i).Hold
			if hold <= 0 {
				continue
			}
			j := path.From
			pj, piph := c.Sync(j).Phase, c.Sync(i).Phase
			oneMinusC := 1 - cShift(pj, piph)
			terms := []lp.Term{
				{Var: vm.S[pj], Coef: 1},
				{Var: vm.S[piph], Coef: -1},
				{Var: vm.Tc, Coef: oneMinusC},
			}
			if c.Sync(i).Kind == Latch {
				terms = append(terms, lp.Term{Var: vm.T[piph], Coef: -1})
			}
			addRow(RowInfo{Kind: RowHold, Phase: -1, Sync: i, Path: pi, Name: fmt.Sprintf("hold.%s->%s", c.SyncName(j), c.SyncName(i))},
				skewSlack(terms), lp.GE, holdRHS(ov, opts, pi))
		}
	}

	return p, vm, rows
}

// ConstraintCountBound returns the paper's upper bound 4k + (F+1)l on
// the number of LP constraints, where F is the maximum latch fan-in.
func ConstraintCountBound(c *Circuit) int {
	return 4*c.K() + (c.MaxFanin()+1)*c.L()
}
