// Package lp implements two-phase simplex solvers for linear programs
// of the form
//
//	minimize    c·x
//	subject to  a_i·x  {<=, =, >=}  b_i     i = 1..m
//	            x >= 0
//
// which is exactly the shape of the SMO optimal-cycle-time program P2:
// all timing variables (Tc, s_i, T_i, D_i) are nonnegative and every
// constraint is a linear inequality. The solvers provide primal values,
// dual values (clock-constraint "prices"), slacks (the critical-segment
// indicators of the paper's §V discussion), pivot counts (to check the
// paper's n..3n simplex-steps claim), and simple RHS ranging for the
// parametric analysis the paper proposes as future work.
//
// Two implementations share every convention (tolerances, pricing
// rules, duals, ranging):
//
//   - The default solver behind Solve/SolveCtx is a sparse revised
//     simplex (sparse.go, basis.go, revised.go): a CSC column store, an
//     LU-factorized basis with eta-file updates, FTRAN/BTRAN kernels,
//     and candidate-list partial pricing. Its cost scales with the
//     nonzero count, which for P2 (≤ ~4 entries per row) is linear in
//     the circuit size. It also supports warm-started re-solves from a
//     previous optimal basis (warmstart.go).
//
//   - SolveDense/SolveDenseCtx keep the original dense two-phase
//     tableau as the differential-testing oracle.
//
// Both use Dantzig pricing with an automatic switch to Bland's rule
// when degeneracy stalls progress, guaranteeing termination.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"mintc/internal/faultinject"
)

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // a·x <= b
	GE            // a·x >= b
	EQ            // a·x == b
)

// String returns the conventional symbol for the relation.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// Term is one coefficient of a sparse constraint row or objective.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is one row of the program. Rows are stored sparsely; a
// variable absent from Terms has coefficient zero.
type Constraint struct {
	Name  string
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Problem is a linear program under construction. The zero value is an
// empty problem; add variables before referencing them in constraints.
type Problem struct {
	names []string
	obj   []float64
	rows  []Constraint
}

// AddVar adds a nonnegative variable with the given name and objective
// coefficient, returning its index.
func (p *Problem) AddVar(name string, objCoef float64) int {
	p.names = append(p.names, name)
	p.obj = append(p.obj, objCoef)
	return len(p.names) - 1
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.names) }

// SetObjCoef overrides variable v's objective coefficient (used to
// re-solve the same constraint system under a secondary objective).
func (p *Problem) SetObjCoef(v int, coef float64) {
	if v < 0 || v >= len(p.obj) {
		panic(fmt.Sprintf("lp: SetObjCoef variable %d out of range", v))
	}
	p.obj[v] = coef
}

// ClearObjective zeroes every objective coefficient.
func (p *Problem) ClearObjective() {
	for i := range p.obj {
		p.obj[i] = 0
	}
}

// shape returns a header copy of p with every slice capped at its
// current length: rows or variables appended to p afterwards land in
// fresh backing arrays and never show through the copy.
func (p *Problem) shape() Problem {
	n, m := len(p.names), len(p.rows)
	return Problem{names: p.names[:n:n], obj: p.obj[:n:n], rows: p.rows[:m:m]}
}

// NumConstraints returns the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// ObjCoef returns variable v's objective coefficient.
func (p *Problem) ObjCoef(v int) float64 { return p.obj[v] }

// VarName returns the name of variable v.
func (p *Problem) VarName(v int) string { return p.names[v] }

// ConstraintName returns the name of row i.
func (p *Problem) ConstraintName(i int) string { return p.rows[i].Name }

// Constraint returns row i.
func (p *Problem) Constraint(i int) Constraint { return p.rows[i] }

// AddConstraint adds the row "sum(terms) rel rhs" and returns its index.
// Terms may repeat a variable; coefficients accumulate.
func (p *Problem) AddConstraint(name string, terms []Term, rel Rel, rhs float64) int {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.names) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
	}
	ts := make([]Term, len(terms))
	copy(ts, terms)
	p.rows = append(p.rows, Constraint{Name: name, Terms: ts, Rel: rel, RHS: rhs})
	return len(p.rows) - 1
}

// Fork returns a copy of p that owns its row array and objective but
// shares everything else — variable names and each row's name and
// terms — read-only with p. SetRHS and SetObjCoef on the fork never
// reach p, and neither do rows or variables appended to it: the shared
// name slice is capped at its length, so an append reallocates. This
// is how one built program serves many solves that differ only in RHS
// values (what-if delay edits) without rebuilding its rows.
func (p *Problem) Fork() *Problem {
	n := len(p.names)
	return &Problem{
		names: p.names[:n:n],
		obj:   append([]float64(nil), p.obj...),
		rows:  append([]Constraint(nil), p.rows...),
	}
}

// SetRHS overrides row i's right-hand side.
func (p *Problem) SetRHS(i int, rhs float64) {
	if i < 0 || i >= len(p.rows) {
		panic(fmt.Sprintf("lp: SetRHS row %d out of range", i))
	}
	p.rows[i].RHS = rhs
}

// String renders the program in a human-readable form (for debugging
// and for the smoclk -dump flag).
func (p *Problem) String() string {
	var b strings.Builder
	b.WriteString("minimize ")
	first := true
	for j, c := range p.obj {
		if c == 0 {
			continue
		}
		writeTerm(&b, &first, c, p.names[j])
	}
	if first {
		b.WriteString("0")
	}
	b.WriteString("\nsubject to\n")
	for _, r := range p.rows {
		b.WriteString("  ")
		if r.Name != "" {
			fmt.Fprintf(&b, "[%s] ", r.Name)
		}
		first := true
		for _, t := range r.Terms {
			if t.Coef == 0 {
				continue
			}
			writeTerm(&b, &first, t.Coef, p.names[t.Var])
		}
		if first {
			b.WriteString("0")
		}
		fmt.Fprintf(&b, " %s %g\n", r.Rel, r.RHS)
	}
	b.WriteString("  x >= 0\n")
	return b.String()
}

func writeTerm(b *strings.Builder, first *bool, c float64, name string) {
	switch {
	case *first && c == 1:
		b.WriteString(name)
	case *first && c == -1:
		b.WriteString("-" + name)
	case *first:
		fmt.Fprintf(b, "%g*%s", c, name)
	case c == 1:
		b.WriteString(" + " + name)
	case c == -1:
		b.WriteString(" - " + name)
	case c < 0:
		fmt.Fprintf(b, " - %g*%s", -c, name)
	default:
		fmt.Fprintf(b, " + %g*%s", c, name)
	}
	*first = false
}

// Status classifies the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// Obj is the optimal objective value (minimization).
	Obj float64
	// X holds the optimal variable values, indexed like the problem's
	// variables.
	X []float64
	// Dual holds one dual value per original constraint. For a
	// minimization problem the dual of a binding <= row is <= 0 and of
	// a binding >= row is >= 0 under the usual convention y·(a·x-b);
	// here we report y such that d(Obj)/d(b_i) = Dual[i].
	Dual []float64
	// Slack holds b_i - a_i·x for <= rows and a_i·x - b_i for >= rows
	// (always >= 0 at optimum up to tolerance); 0 marks a binding
	// ("critical") constraint.
	Slack []float64
	// Pivots counts simplex pivot operations across both phases.
	Pivots int
	// Stats describes the work the solve performed (revised solver
	// only; the dense oracle leaves it zero). The lp package is a
	// generic substrate with no observability dependencies, so callers
	// that keep counters translate these fields themselves.
	Stats SolveStats
	// FarkasRay, populated when Status is Infeasible, is a certificate
	// of infeasibility in the original row space: a vector y with
	// y_i <= 0 on LE rows, y_i >= 0 on GE rows (free on EQ), such that
	// Σ_i y_i·a_ij <= 0 for every variable j while Σ_i y_i·b_i > 0.
	// Any x >= 0 satisfying the rows would give the contradiction
	// 0 >= y·Ax = Σ_j x_j (y·A_j) and y·Ax R y·b with positive slack —
	// so the rows are unsatisfiable. The ray comes from phase-1 duals
	// (cold solves) or the failing dual-simplex row (warm solves) and
	// is exact only up to solver tolerances; independent validation
	// lives in internal/verify. Nil when no certificate was extracted.
	FarkasRay []float64

	// basis is the optimal basis in the canonical column encoding (see
	// Basis); nil on non-optimal outcomes.
	basis []int32
	// prob is the solved problem's shape (see Problem.shape): what
	// RHSRange re-assembles to refactorize basis on demand.
	prob Problem
	// ranges holds the dense oracle's per-row RHS ranges, read off its
	// final tableau; nil for revised solves, which range on demand.
	ranges [][2]float64
}

// SolveStats is the work profile of one revised-simplex solve: sparse
// problem size, factorization effort, warm-start attribution and the
// assemble/factor/pivot wall-clock split. Populated on success and on
// partial (cancelled / iteration-limited) solutions alike.
type SolveStats struct {
	// Nnz is the structural nonzero count of the assembled column store.
	Nnz int
	// Refactorizations counts basis LU (re)factorizations, including
	// the initial one and the final accuracy refactorization.
	Refactorizations int
	// WarmStarted reports that the solve proceeded from a supplied
	// basis instead of running phase 1.
	WarmStarted bool
	// WarmPivots is the pivot count of a warm-started solve (equal to
	// Solution.Pivots when WarmStarted, 0 otherwise).
	WarmPivots int
	// AssembleTime, FactorTime and PivotTime split the solve wall
	// clock: CSC assembly, LU factorization work, and everything else
	// (pricing, FTRAN/BTRAN, ratio tests, extraction).
	AssembleTime time.Duration
	FactorTime   time.Duration
	PivotTime    time.Duration
	// ScratchReused reports that the solve ran on a recycled scratch
	// arena instead of freshly allocated working memory (always false
	// under -tags noscratch).
	ScratchReused bool
	// ScratchGrows counts scratch buffers that had to be (re)grown
	// during the solve — zero at steady state, when every buffer
	// already fits the problem shape.
	ScratchGrows int
}

// Errors returned by Solve.
var (
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
	// ErrSingularBasis reports a basis matrix the LU factorization
	// could not invert. It surfaces wrapped in refactorization errors
	// ("lp: basis refactorization failed: ...") when the eta file must
	// be rebuilt mid-solve; match it with errors.Is.
	ErrSingularBasis = errors.New("lp: singular basis")
)

// solverKey carries a per-solve solver override in a context.
type solverKey struct{}

// WithSolver returns a context that forces SolveCtx/SolveCtxFrom under
// it to use the named solver ("revised" or "dense") instead of the
// default sparse revised simplex. The engine supervisor uses it to pin
// individual degradation-ladder rungs to a specific solver. Unknown
// names are ignored (the context passes through unchanged), keeping
// the call total for plumbing code.
func WithSolver(ctx context.Context, name string) context.Context {
	switch name {
	case "revised", "dense":
		return context.WithValue(ctx, solverKey{}, name)
	}
	return ctx
}

// wantDense reports whether a WithSolver override selects the dense
// oracle for this solve.
func wantDense(ctx context.Context) bool {
	name, _ := ctx.Value(solverKey{}).(string)
	return name == "dense"
}

const (
	eps      = 1e-9
	ratioEps = 1e-9
	zeroSnap = 1e-11
	// defaultIt is the iteration-cap floor; the effective cap scales
	// with problem size (see iterLimit) so large programs are not
	// truncated by a constant while small degenerate ones still stop.
	defaultIt = 200000
	// iterPerSize is the per-(row+column) iteration allowance above the
	// floor. Simplex visits O(m+n) bases in practice (the paper's n..3n
	// claim); 100·(m+n) flags pathology without biting real solves.
	iterPerSize = 100
)

// iterLimit returns the pivot-iteration cap for an m×n program:
// max(defaultIt, iterPerSize·(m+n)).
func iterLimit(m, n int) int {
	if it := iterPerSize * (m + n); it > defaultIt {
		return it
	}
	return defaultIt
}

// iterLimitError wraps ErrIterationLimit with the diagnosable context
// (phase, pivot count, problem size) so truncated solves can be read
// straight out of smobench output.
func iterLimitError(phase, pivots, m, n int) error {
	return fmt.Errorf("%w: phase %d stopped after %d pivots (m=%d n=%d cap=%d)",
		ErrIterationLimit, phase, pivots, m, n, iterLimit(m, n))
}

// Solve solves the problem with the default solver (the sparse revised
// simplex). Infeasible and unbounded outcomes are reported in
// Solution.Status with a nil error; the error is reserved for solver
// failures (e.g. iteration limit).
func Solve(p *Problem) (*Solution, error) {
	return SolveCtx(context.Background(), p)
}

// SolveCtx is Solve with cancellation: the context is checked while
// the problem is assembled and on every pivot iteration, so deadlines
// are honored even on large programs. On cancellation it returns the
// context's error together with a partial Solution carrying the pivot
// count reached so far (for progress accounting); the partial solution
// has no variable values.
//
// The default solver is the sparse revised simplex; WithSolver
// reroutes one solve, and SolveDenseCtx always runs the dense oracle.
func SolveCtx(ctx context.Context, p *Problem) (*Solution, error) {
	if wantDense(ctx) {
		return SolveDenseCtx(ctx, p)
	}
	if sol, done := solveTrivial(p); done {
		return sol, nil
	}
	return solveRevised(ctx, p, nil)
}

// SolveDense solves the problem with the dense two-phase tableau — the
// differential-testing oracle for the revised solver.
func SolveDense(p *Problem) (*Solution, error) {
	return SolveDenseCtx(context.Background(), p)
}

// solveTrivial handles zero-variable programs (feasibility of constant
// rows), shared by both solvers. done reports whether sol is final.
func solveTrivial(p *Problem) (*Solution, bool) {
	if len(p.names) > 0 {
		return nil, false
	}
	m := len(p.rows)
	for i, r := range p.rows {
		if !constRowFeasible(r) {
			// A violated constant row is its own Farkas ray: the unit
			// vector on that row, signed by its relation.
			ray := make([]float64, m)
			switch {
			case r.Rel == LE:
				ray[i] = -1
			case r.Rel == GE:
				ray[i] = 1
			case r.RHS > 0:
				ray[i] = 1
			default:
				ray[i] = -1
			}
			return &Solution{Status: Infeasible, X: nil, Dual: make([]float64, m), Slack: make([]float64, m), FarkasRay: ray}, true
		}
	}
	return &Solution{Status: Optimal, X: nil, Dual: make([]float64, m), Slack: rowSlacks(p, nil)}, true
}

// SolveDenseCtx is SolveDense with cancellation (see SolveCtx).
func SolveDenseCtx(ctx context.Context, p *Problem) (*Solution, error) {
	if sol, done := solveTrivial(p); done {
		return sol, nil
	}
	t, err := newTableau(ctx, p)
	if err != nil {
		return &Solution{}, err
	}
	// Phase 1: minimize sum of artificials.
	if t.numArt > 0 {
		t.setPhase1Objective()
		if err := t.iterate(ctx, 1); err != nil {
			return &Solution{Pivots: t.pivots}, err
		}
		if t.objValue() > 1e-7*(1+t.scale) {
			return &Solution{Status: Infeasible, Pivots: t.pivots, FarkasRay: t.farkasRay()}, nil
		}
		if err := t.driveOutArtificials(ctx); err != nil {
			return &Solution{Pivots: t.pivots}, err
		}
	}
	// Phase 2: real objective.
	t.setPhase2Objective(p.obj)
	if err := t.iterate(ctx, 2); err != nil {
		return &Solution{Pivots: t.pivots}, err
	}
	if t.unbounded {
		return &Solution{Status: Unbounded, Pivots: t.pivots}, nil
	}
	return t.extract(p), nil
}

// constRowFeasible checks a row in a zero-variable problem, where the
// LHS is identically zero.
func constRowFeasible(r Constraint) bool {
	const lhs = 0.0
	switch r.Rel {
	case LE:
		return lhs <= r.RHS+eps
	case GE:
		return lhs >= r.RHS-eps
	default:
		return math.Abs(lhs-r.RHS) <= eps
	}
}

func rowSlacks(p *Problem, x []float64) []float64 {
	s := make([]float64, len(p.rows))
	for i, r := range p.rows {
		var lhs float64
		for _, t := range r.Terms {
			if x != nil {
				lhs += t.Coef * x[t.Var]
			}
		}
		switch r.Rel {
		case LE:
			s[i] = r.RHS - lhs
		case GE:
			s[i] = lhs - r.RHS
		default:
			s[i] = 0
		}
	}
	return s
}

// tableau is the dense simplex tableau. Columns are laid out as
// [structural | slack/surplus | artificial], then the RHS column.
// Row layout is [constraint rows | objective row].
type tableau struct {
	m, n     int // constraints, structural variables
	ncols    int // total variable columns
	numArt   int
	a        [][]float64 // (m+1) x (ncols+1)
	basis    []int       // basis[i] = column basic in row i
	artCol0  int         // first artificial column
	slackCol []int       // per row: slack/surplus column or -1
	artCol   []int       // per row: artificial column or -1
	colRow   []int       // per slack/artificial column: owning row (canonical basis encoding)
	rowSign  []float64   // +1 if row kept its sign, -1 if multiplied by -1
	scale    float64     // magnitude scale of the problem for tolerances
	// colTol holds the per-column optimality tolerance: global scale
	// tolerances misjudge problems with wide dynamic range (e.g.
	// Klee–Minty cubes), so reduced costs are compared against the
	// magnitude of their own column.
	colTol []float64

	unbounded bool
	pivots    int
}

// newTableau assembles the dense tableau. Construction of large
// programs allocates and fills hundreds of megabytes, so the context
// is polled every few rows to keep cancellation prompt.
func newTableau(ctx context.Context, p *Problem) (*tableau, error) {
	m := len(p.rows)
	n := len(p.names)

	// One slack/surplus column per inequality plus one artificial per
	// row that starts without a basic slack (GE/EQ after RHS
	// normalization). Artificials are allocated exactly — a dense zero
	// column would still be swept by every pivot, and driven-out
	// artificials must never re-enter pricing, so the artificial block
	// holds only live columns and pricing simply stops at artCol0.
	numSlack, numArt := 0, 0
	for _, r := range p.rows {
		if r.Rel != EQ {
			numSlack++
		}
		rel := r.Rel
		if r.RHS < 0 { // row will be flipped during assembly
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		if rel != LE {
			numArt++
		}
	}

	t := &tableau{
		m:        m,
		n:        n,
		ncols:    n + numSlack + numArt,
		artCol0:  n + numSlack,
		basis:    make([]int, m),
		slackCol: make([]int, m),
		artCol:   make([]int, m),
		colRow:   make([]int, numSlack+numArt),
		rowSign:  make([]float64, m),
	}
	t.a = make([][]float64, m+1)
	for i := range t.a {
		if i&127 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		t.a[i] = make([]float64, t.ncols+1)
	}

	slackNext := n
	artUsed := 0
	var scale float64 = 1
	for i, r := range p.rows {
		if i&127 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		row := t.a[i]
		for _, term := range r.Terms {
			row[term.Var] += term.Coef
			if c := math.Abs(term.Coef); c > scale {
				scale = c
			}
		}
		rhs := r.RHS
		if math.Abs(rhs) > scale {
			scale = math.Abs(rhs)
		}
		rel := r.Rel
		sign := 1.0
		if rhs < 0 {
			// Flip the row so RHS >= 0.
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
			sign = -1
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		t.rowSign[i] = sign
		row[t.ncols] = rhs

		t.slackCol[i] = -1
		t.artCol[i] = -1
		switch rel {
		case LE:
			row[slackNext] = 1
			t.slackCol[i] = slackNext
			t.colRow[slackNext-n] = i
			t.basis[i] = slackNext
			slackNext++
		case GE:
			row[slackNext] = -1
			t.slackCol[i] = slackNext
			t.colRow[slackNext-n] = i
			slackNext++
			ac := t.artCol0 + artUsed
			row[ac] = 1
			t.artCol[i] = ac
			t.colRow[ac-n] = i
			t.basis[i] = ac
			artUsed++
		case EQ:
			ac := t.artCol0 + artUsed
			row[ac] = 1
			t.artCol[i] = ac
			t.colRow[ac-n] = i
			t.basis[i] = ac
			artUsed++
		}
	}
	t.numArt = artUsed
	t.scale = scale

	// Per-column tolerances from the original column magnitudes
	// (structural columns) and unity for slack/artificial columns.
	t.colTol = make([]float64, t.ncols)
	for j := range t.colTol {
		t.colTol[j] = eps
	}
	for j := 0; j < n; j++ {
		if j&127 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		m := 1.0
		for i := 0; i < t.m; i++ {
			if v := math.Abs(t.a[i][j]); v > m {
				m = v
			}
		}
		if v := math.Abs(p.obj[j]); v > m {
			m = v
		}
		t.colTol[j] = eps * m
	}
	return t, nil
}

// setPhase1Objective loads the objective "minimize sum of artificials",
// priced out so basic columns have zero reduced cost.
func (t *tableau) setPhase1Objective() {
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	for j := t.artCol0; j < t.artCol0+t.numArt; j++ {
		obj[j] = 1
	}
	// Price out: subtract rows whose basic variable has cost 1.
	for i := 0; i < t.m; i++ {
		if t.basis[i] >= t.artCol0 {
			for j := 0; j <= t.ncols; j++ {
				obj[j] -= t.a[i][j]
			}
		}
	}
}

// setPhase2Objective loads the real objective for the structural
// variables and prices out the current basis.
func (t *tableau) setPhase2Objective(c []float64) {
	obj := t.a[t.m]
	for j := range obj {
		obj[j] = 0
	}
	for j, cj := range c {
		obj[j] = cj
	}
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		cb := 0.0
		if b < t.n {
			cb = c[b]
		}
		if cb != 0 {
			for j := 0; j <= t.ncols; j++ {
				obj[j] -= cb * t.a[i][j]
			}
		}
	}
}

// objValue returns the current objective value (phase convention:
// tableau stores -z in the RHS cell of the objective row).
func (t *tableau) objValue() float64 {
	return -t.a[t.m][t.ncols]
}

// iterate runs simplex pivots until optimality, unboundedness or the
// iteration limit. Dantzig pricing; switches to Bland's rule if the
// objective stalls for longer than a degeneracy window. The context is
// polled once per iteration (one pivot is the natural cancellation
// granularity: pricing, ratio test and the pivot itself are a single
// O(m·n) unit of work).
//
// Pricing stops at artCol0: artificial columns are excluded from
// entering permanently by layout (the block holds only the artificials
// that were actually created, and they may only be basic leftovers),
// so no per-column eligibility predicate runs inside the loop.
func (t *tableau) iterate(ctx context.Context, phase int) error {
	tol := eps * (1 + t.scale)
	bland := false
	stall := 0
	lastObj := t.objValue()
	window := 4 * (t.m + t.ncols)

	limit := iterLimit(t.m, t.n)
	for iter := 0; iter < limit; iter++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := faultinject.Fire("lp.dense.iterate"); err != nil {
			return err
		}
		obj := t.a[t.m]
		// Choose entering column; each reduced cost is judged against
		// its own column's magnitude so wide dynamic ranges don't
		// cause premature optimality.
		enter := -1
		if bland {
			for j := 0; j < t.artCol0; j++ {
				if obj[j] < -t.colTol[j] {
					enter = j
					break
				}
			}
		} else {
			best := 0.0
			for j := 0; j < t.artCol0; j++ {
				if obj[j] >= -t.colTol[j] {
					continue
				}
				// Compare scaled reduced costs across columns.
				if score := obj[j] / t.colTol[j]; score < best {
					best = score
					enter = j
				}
			}
		}
		if enter == -1 {
			return nil // optimal for this phase
		}
		// Ratio test.
		leave := -1
		var bestRatio float64
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij <= ratioEps {
				continue
			}
			ratio := t.a[i][t.ncols] / aij
			if leave == -1 || ratio < bestRatio-ratioEps ||
				(ratio < bestRatio+ratioEps && t.basis[i] < t.basis[leave]) {
				leave = i
				bestRatio = ratio
			}
		}
		if leave == -1 {
			t.unbounded = true
			return nil
		}
		t.pivot(leave, enter)

		// Degeneracy bookkeeping.
		if cur := t.objValue(); cur < lastObj-tol {
			lastObj = cur
			stall = 0
			bland = false
		} else {
			stall++
			if stall > window {
				bland = true
			}
		}
	}
	return iterLimitError(phase, t.pivots, t.m, t.n)
}

// pivot performs a Gauss–Jordan pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	t.pivots++
	a := t.a
	piv := a[row][col]
	inv := 1 / piv
	rr := a[row]
	for j := 0; j <= t.ncols; j++ {
		rr[j] *= inv
	}
	rr[col] = 1 // exact
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		f := a[i][col]
		if f == 0 {
			continue
		}
		ri := a[i]
		for j := 0; j <= t.ncols; j++ {
			ri[j] -= f * rr[j]
		}
		ri[col] = 0 // exact
	}
	t.basis[row] = col
}

// driveOutArtificials removes artificial variables from the basis after
// phase 1 so phase 2 cannot be polluted by them.
func (t *tableau) driveOutArtificials(ctx context.Context) error {
	for i := 0; i < t.m; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if t.basis[i] < t.artCol0 {
			continue
		}
		// Basic artificial at level ~0; pivot in any usable column.
		done := false
		for j := 0; j < t.artCol0 && !done; j++ {
			if math.Abs(t.a[i][j]) > 1e-7 {
				t.pivot(i, j)
				done = true
			}
		}
		// If no column qualifies the row is redundant; the artificial
		// stays basic at zero and is barred from entering elsewhere.
	}
	return nil
}

// extract builds the Solution from the final tableau.
func (t *tableau) extract(p *Problem) *Solution {
	x := make([]float64, t.n)
	for i := 0; i < t.m; i++ {
		b := t.basis[i]
		if b < t.n {
			v := t.a[i][t.ncols]
			if math.Abs(v) < zeroSnap {
				v = 0
			}
			x[b] = v
		}
	}
	var objVal float64
	for j, cj := range p.obj {
		objVal += cj * x[j]
	}
	// Duals: reduced cost of the slack/surplus (or artificial) column
	// of each row, with sign fixups for flipped rows and surplus sign.
	dual := make([]float64, t.m)
	obj := t.a[t.m]
	for i := 0; i < t.m; i++ {
		var y float64
		if sc := t.slackCol[i]; sc >= 0 {
			// The slack column is +e_i for LE rows (after RHS
			// normalization) and -e_i for GE rows. With reduced cost
			// r = c_j - y·A_j and c_j = 0, y_i = -r for +e_i and
			// y_i = +r for -e_i.
			r := obj[sc]
			if t.slackSign(i) > 0 {
				y = -r
			} else {
				y = r
			}
		} else if ac := t.artCol[i]; ac >= 0 {
			// artificial column is +e_i.
			y = -obj[ac]
		}
		// Undo the row flip: if row was multiplied by -1 the dual of
		// the original row is -y.
		dual[i] = y * t.rowSign[i]
		if math.Abs(dual[i]) < zeroSnap {
			dual[i] = 0
		}
	}
	enc := make([]int32, t.m)
	for i := 0; i < t.m; i++ {
		enc[i] = t.encodeCol(t.basis[i])
	}
	return &Solution{
		Status: Optimal,
		Obj:    objVal,
		X:      x,
		Dual:   dual,
		Slack:  clampSlacks(rowSlacks(p, x)),
		Pivots: t.pivots,
		basis:  enc,
		prob:   p.shape(),
		ranges: t.rhsRanges(p),
	}
}

// encodeCol translates a dense tableau column index into the canonical
// basis encoding shared with the revised solver: structural j → j,
// slack of row i → n+i, artificial of row i → n+m+i (see Basis).
func (t *tableau) encodeCol(col int) int32 {
	if col < t.n {
		return int32(col)
	}
	row := t.colRow[col-t.n]
	if col >= t.artCol0 {
		return int32(t.n + t.m + row)
	}
	return int32(t.n + row)
}

// rhsRanges computes, for each original constraint, the interval of RHS
// values over which the final basis remains optimal. The column of the
// final tableau corresponding to the initial identity column of row i
// holds B⁻¹e_i, from which the standard ranging formula follows.
func (t *tableau) rhsRanges(p *Problem) [][2]float64 {
	ranges := make([][2]float64, t.m)
	for r := 0; r < t.m; r++ {
		// Initial +e_r column in the normalized system.
		col := t.artCol[r]
		if t.slackCol[r] >= 0 && t.artCol[r] < 0 {
			col = t.slackCol[r]
		}
		lo, hi := math.Inf(-1), math.Inf(1)
		if col >= 0 {
			for i := 0; i < t.m; i++ {
				d := t.a[i][col] * t.rowSign[r] // d(x_B[i])/d(original RHS_r)
				if math.Abs(d) < 1e-12 {
					continue
				}
				xb := t.a[i][t.ncols]
				// Need xb + delta*d >= 0.
				bound := -xb / d
				if d > 0 {
					if bound > lo {
						lo = bound
					}
				} else {
					if bound < hi {
						hi = bound
					}
				}
			}
		}
		base := p.rows[r].RHS
		ranges[r] = [2]float64{base + lo, base + hi}
	}
	return ranges
}

// farkasRay reads the phase-1 duals out of the objective row at a
// phase-1 optimum with positive objective — the standard infeasibility
// certificate. For each row, the reduced cost of its initial identity
// column recovers y: slack columns have phase-1 cost 0, so y_i = -r
// for a +e_i slack and y_i = +r for a -e_i surplus; artificial columns
// have phase-1 cost 1, so y_i = 1 - r. Row flips are undone so the ray
// lives in the original row space (see Solution.FarkasRay).
func (t *tableau) farkasRay() []float64 {
	ray := make([]float64, t.m)
	obj := t.a[t.m]
	for i := 0; i < t.m; i++ {
		var y float64
		if sc := t.slackCol[i]; sc >= 0 {
			if t.slackSign(i) > 0 {
				y = -obj[sc]
			} else {
				y = obj[sc]
			}
		} else if ac := t.artCol[i]; ac >= 0 {
			y = 1 - obj[ac]
		}
		ray[i] = y * t.rowSign[i]
	}
	return ray
}

// slackSign reports whether row i's slack column entered with +1 (LE
// after normalization) or -1 (GE after normalization).
func (t *tableau) slackSign(i int) float64 {
	// We stored +1 for LE rows and -1 for GE rows at setup; recover it
	// from artCol: rows that received an artificial alongside a slack
	// column were GE rows.
	if t.artCol[i] >= 0 && t.slackCol[i] >= 0 {
		return -1
	}
	return 1
}

func clampSlacks(s []float64) []float64 {
	for i, v := range s {
		if math.Abs(v) < zeroSnap {
			s[i] = 0
		}
	}
	return s
}
