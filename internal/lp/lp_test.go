package lp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

const tol = 1e-6

func approx(a, b float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve error: %v", err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestTrivialSingleVar(t *testing.T) {
	var p Problem
	x := p.AddVar("x", 1)
	p.AddConstraint("lb", []Term{{x, 1}}, GE, 3)
	s := solveOK(t, &p)
	if !approx(s.Obj, 3) || !approx(s.X[x], 3) {
		t.Errorf("got obj=%g x=%g, want 3,3", s.Obj, s.X[x])
	}
}

func TestTwoVarClassic(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 2, y <= 3  => x=1? enumerate:
	// vertices: (2,2): -6; (1,3): -7; (0,3): -6; (2,0): -2. opt (1,3).
	var p Problem
	x := p.AddVar("x", -1)
	y := p.AddVar("y", -2)
	p.AddConstraint("sum", []Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint("xcap", []Term{{x, 1}}, LE, 2)
	p.AddConstraint("ycap", []Term{{y, 1}}, LE, 3)
	s := solveOK(t, &p)
	if !approx(s.Obj, -7) {
		t.Fatalf("obj = %g, want -7", s.Obj)
	}
	if !approx(s.X[x], 1) || !approx(s.X[y], 3) {
		t.Errorf("x,y = %g,%g want 1,3", s.X[x], s.X[y])
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + y == 5, x >= 2  => obj 5.
	var p Problem
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint("eq", []Term{{x, 1}, {y, 1}}, EQ, 5)
	p.AddConstraint("xlb", []Term{{x, 1}}, GE, 2)
	s := solveOK(t, &p)
	if !approx(s.Obj, 5) {
		t.Errorf("obj = %g, want 5", s.Obj)
	}
	if s.X[x] < 2-tol {
		t.Errorf("x = %g violates x >= 2", s.X[x])
	}
}

func TestInfeasible(t *testing.T) {
	var p Problem
	x := p.AddVar("x", 1)
	p.AddConstraint("hi", []Term{{x, 1}}, LE, 1)
	p.AddConstraint("lo", []Term{{x, 1}}, GE, 2)
	s, err := Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	var p Problem
	x := p.AddVar("x", -1) // maximize x with no upper bound
	p.AddConstraint("lb", []Term{{x, 1}}, GE, 0)
	s, err := Solve(&p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// x - y <= -2 with min x: y must be >= x + 2; min x = 0 feasible
	// with y = 2 (y unconstrained above). Add y <= 5 for boundedness of
	// the test's logic (not required for optimality here).
	var p Problem
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 0)
	p.AddConstraint("gap", []Term{{x, 1}, {y, -1}}, LE, -2)
	p.AddConstraint("ycap", []Term{{y, 1}}, LE, 5)
	s := solveOK(t, &p)
	if !approx(s.Obj, 0) {
		t.Errorf("obj = %g, want 0", s.Obj)
	}
	if s.X[x]-s.X[y] > -2+tol {
		t.Errorf("constraint violated: x=%g y=%g", s.X[x], s.X[y])
	}
}

func TestZeroVariableProblem(t *testing.T) {
	var p Problem
	s, err := Solve(&p)
	if err != nil || s.Status != Optimal {
		t.Fatalf("empty problem: %v %v", s.Status, err)
	}
}

func TestDegenerateProblem(t *testing.T) {
	// Multiple constraints active at the optimum; just verify we
	// terminate and get the right value.
	var p Problem
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	z := p.AddVar("z", 1)
	p.AddConstraint("a", []Term{{x, 1}, {y, 1}, {z, 1}}, GE, 10)
	p.AddConstraint("b", []Term{{x, 1}, {y, 1}}, GE, 10)
	p.AddConstraint("c", []Term{{x, 1}}, GE, 5)
	p.AddConstraint("d", []Term{{y, 1}}, GE, 5)
	s := solveOK(t, &p)
	if !approx(s.Obj, 10) {
		t.Errorf("obj = %g, want 10", s.Obj)
	}
}

func TestDualsOnSimpleProblem(t *testing.T) {
	// min x s.t. x >= 4. Dual of the binding GE row: dObj/dRHS = 1.
	var p Problem
	x := p.AddVar("x", 1)
	i := p.AddConstraint("lb", []Term{{x, 1}}, GE, 4)
	s := solveOK(t, &p)
	if !approx(s.Dual[i], 1) {
		t.Errorf("dual = %g, want 1", s.Dual[i])
	}
	if s.Slack[i] != 0 {
		t.Errorf("slack = %g, want 0", s.Slack[i])
	}
}

func TestDualsLEBinding(t *testing.T) {
	// max x (min -x) s.t. x <= 7: dObj/dRHS = -1 (objective -x drops by
	// 1 per unit RHS increase).
	var p Problem
	x := p.AddVar("x", -1)
	i := p.AddConstraint("ub", []Term{{x, 1}}, LE, 7)
	s := solveOK(t, &p)
	if !approx(s.Dual[i], -1) {
		t.Errorf("dual = %g, want -1", s.Dual[i])
	}
}

func TestDualFiniteDifference(t *testing.T) {
	// Verify Dual[i] == d(Obj)/d(RHS_i) by finite differences on a
	// nondegenerate problem.
	build := func(b1, b2 float64) *Problem {
		var p Problem
		x := p.AddVar("x", 2)
		y := p.AddVar("y", 3)
		p.AddConstraint("r1", []Term{{x, 1}, {y, 2}}, GE, b1)
		p.AddConstraint("r2", []Term{{x, 3}, {y, 1}}, GE, b2)
		return &p
	}
	base := solveOK(t, build(10, 15))
	const h = 1e-4
	for i, b := range [][2]float64{{10 + h, 15}, {10, 15 + h}} {
		pert := solveOK(t, build(b[0], b[1]))
		fd := (pert.Obj - base.Obj) / h
		if math.Abs(fd-base.Dual[i]) > 1e-3 {
			t.Errorf("dual[%d] = %g, finite difference = %g", i, base.Dual[i], fd)
		}
	}
}

func TestSlackValues(t *testing.T) {
	var p Problem
	x := p.AddVar("x", 1)
	lb := p.AddConstraint("lb", []Term{{x, 1}}, GE, 3)
	ub := p.AddConstraint("ub", []Term{{x, 1}}, LE, 10)
	s := solveOK(t, &p)
	if s.Slack[lb] != 0 {
		t.Errorf("binding slack = %g, want 0", s.Slack[lb])
	}
	if !approx(s.Slack[ub], 7) {
		t.Errorf("loose slack = %g, want 7", s.Slack[ub])
	}
}

func TestRHSRanging(t *testing.T) {
	// min x s.t. x >= 4, x <= 10. Basis optimal for RHS of "lb" in
	// [0? .. 10]: increasing lb RHS keeps x basic until it hits 10
	// (where slack of ub hits 0); decreasing until 0 (x >= 0 floor).
	var p Problem
	x := p.AddVar("x", 1)
	lb := p.AddConstraint("lb", []Term{{x, 1}}, GE, 4)
	p.AddConstraint("ub", []Term{{x, 1}}, LE, 10)
	s := solveOK(t, &p)
	rng, err := s.RHSRange(lb)
	if err != nil {
		t.Fatal(err)
	}
	r := rng[0]
	if r[0] > tol || !approx(r[1], 10) {
		t.Errorf("RHSRange[lb] = %v, want [<=0, 10]", r)
	}
	// Objective inside the range follows Dual: at RHS=8 obj should be 8.
	var p2 Problem
	x2 := p2.AddVar("x", 1)
	p2.AddConstraint("lb", []Term{{x2, 1}}, GE, 8)
	p2.AddConstraint("ub", []Term{{x2, 1}}, LE, 10)
	s2 := solveOK(t, &p2)
	predicted := s.Obj + s.Dual[lb]*(8-4)
	if !approx(s2.Obj, predicted) {
		t.Errorf("obj at RHS=8: %g, dual-predicted %g", s2.Obj, predicted)
	}
}

func TestProblemString(t *testing.T) {
	var p Problem
	x := p.AddVar("x", 1)
	y := p.AddVar("y", -2)
	p.AddConstraint("row", []Term{{x, 1}, {y, -1}}, LE, 3)
	s := p.String()
	for _, want := range []string{"minimize", "x - 2*y", "[row]", "x - y <= 3", "x >= 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestAddConstraintUnknownVarPanics(t *testing.T) {
	var p Problem
	p.AddVar("x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown variable")
		}
	}()
	p.AddConstraint("bad", []Term{{5, 1}}, LE, 1)
}

func TestRepeatedTermsAccumulate(t *testing.T) {
	var p Problem
	x := p.AddVar("x", 1)
	p.AddConstraint("r", []Term{{x, 1}, {x, 1}}, GE, 6) // 2x >= 6
	s := solveOK(t, &p)
	if !approx(s.X[x], 3) {
		t.Errorf("x = %g, want 3", s.X[x])
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows force a redundant artificial row after
	// phase 1; the solver must cope.
	var p Problem
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint("e1", []Term{{x, 1}, {y, 1}}, EQ, 4)
	p.AddConstraint("e2", []Term{{x, 1}, {y, 1}}, EQ, 4)
	p.AddConstraint("lo", []Term{{x, 1}}, GE, 1)
	s := solveOK(t, &p)
	if !approx(s.Obj, 4) {
		t.Errorf("obj = %g, want 4", s.Obj)
	}
}

// --- randomized cross-check against a vertex-enumeration oracle ---

type denseLP struct {
	c    []float64
	a    [][]float64
	rel  []Rel
	rhs  []float64
	nVar int
}

func (d *denseLP) problem() *Problem {
	var p Problem
	for j := 0; j < d.nVar; j++ {
		p.AddVar("x", d.c[j])
	}
	for i := range d.a {
		var terms []Term
		for j, v := range d.a[i] {
			if v != 0 {
				terms = append(terms, Term{j, v})
			}
		}
		p.AddConstraint("r", terms, d.rel[i], d.rhs[i])
	}
	return &p
}

// feasible checks x against all rows and x >= 0.
func (d *denseLP) feasible(x []float64) bool {
	const fe = 1e-7
	for _, v := range x {
		if v < -fe {
			return false
		}
	}
	for i := range d.a {
		var lhs float64
		for j := range x {
			lhs += d.a[i][j] * x[j]
		}
		switch d.rel[i] {
		case LE:
			if lhs > d.rhs[i]+fe {
				return false
			}
		case GE:
			if lhs < d.rhs[i]-fe {
				return false
			}
		case EQ:
			if math.Abs(lhs-d.rhs[i]) > fe {
				return false
			}
		}
	}
	return true
}

// bruteForce enumerates all vertices (intersections of n active
// constraint hyperplanes drawn from rows + axis planes) and returns the
// best feasible objective, or NaN if none found. Only valid when the LP
// optimum is attained at a vertex (always true for feasible bounded LPs
// in standard form).
func (d *denseLP) bruteForce() float64 {
	n := d.nVar
	// Build full row set: constraint rows (as equalities when active)
	// plus axis rows x_j = 0.
	type row struct {
		a   []float64
		rhs float64
	}
	var rows []row
	for i := range d.a {
		rows = append(rows, row{d.a[i], d.rhs[i]})
	}
	for j := 0; j < n; j++ {
		a := make([]float64, n)
		a[j] = 1
		rows = append(rows, row{a, 0})
	}
	best := math.NaN()
	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			// Solve the k x k system by Gaussian elimination.
			m := make([][]float64, n)
			for r := 0; r < n; r++ {
				m[r] = make([]float64, n+1)
				copy(m[r], rows[idx[r]].a)
				m[r][n] = rows[idx[r]].rhs
			}
			x, ok := gauss(m)
			if !ok || !d.feasible(x) {
				return
			}
			var obj float64
			for j := 0; j < n; j++ {
				obj += d.c[j] * x[j]
			}
			if math.IsNaN(best) || obj < best {
				best = obj
			}
			return
		}
		for i := start; i < len(rows); i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

func gauss(m [][]float64) ([]float64, bool) {
	n := len(m)
	for col := 0; col < n; col++ {
		piv := -1
		for r := col; r < n; r++ {
			if math.Abs(m[r][col]) > 1e-9 && (piv == -1 || math.Abs(m[r][col]) > math.Abs(m[piv][col])) {
				piv = r
			}
		}
		if piv == -1 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		f := m[col][col]
		for j := col; j <= n; j++ {
			m[col][j] /= f
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col]
			for j := col; j <= n; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	x := make([]float64, n)
	for r := 0; r < n; r++ {
		x[r] = m[r][n]
	}
	return x, true
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for iter := 0; iter < 300; iter++ {
		nVar := 1 + rng.Intn(3)
		nRow := 1 + rng.Intn(5)
		d := &denseLP{nVar: nVar}
		for j := 0; j < nVar; j++ {
			d.c = append(d.c, float64(rng.Intn(11)-5))
		}
		for i := 0; i < nRow; i++ {
			row := make([]float64, nVar)
			for j := range row {
				row[j] = float64(rng.Intn(9) - 4)
			}
			d.a = append(d.a, row)
			d.rel = append(d.rel, Rel(rng.Intn(2))) // LE or GE only
			d.rhs = append(d.rhs, float64(rng.Intn(17)-8))
		}
		want := d.bruteForce()

		s, err := Solve(d.problem())
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", iter, err, d.problem())
		}
		switch s.Status {
		case Infeasible:
			if !math.IsNaN(want) {
				t.Fatalf("iter %d: solver infeasible but oracle found %g\n%s", iter, want, d.problem())
			}
		case Unbounded:
			// Oracle can't certify unboundedness; just check that the
			// solver never *under*claims: verify some feasible point
			// exists (brute force found one) or the region is feasible.
			// Nothing stronger to assert here.
		case Optimal:
			if math.IsNaN(want) {
				t.Fatalf("iter %d: solver optimal (%g) but oracle infeasible\n%s", iter, s.Obj, d.problem())
			}
			if math.Abs(s.Obj-want) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("iter %d: obj %g, oracle %g\n%s", iter, s.Obj, want, d.problem())
			}
			if !d.feasible(s.X) {
				t.Fatalf("iter %d: solution infeasible: %v\n%s", iter, s.X, d.problem())
			}
		}
	}
}

func TestPivotCountReported(t *testing.T) {
	var p Problem
	x := p.AddVar("x", -1)
	y := p.AddVar("y", -1)
	p.AddConstraint("a", []Term{{x, 1}, {y, 2}}, LE, 10)
	p.AddConstraint("b", []Term{{x, 2}, {y, 1}}, LE, 10)
	s := solveOK(t, &p)
	if s.Pivots <= 0 {
		t.Errorf("pivots = %d, want > 0", s.Pivots)
	}
}

func BenchmarkSolveDense50x100(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(3))
	var p Problem
	const nv, nr = 50, 100
	for j := 0; j < nv; j++ {
		p.AddVar("x", rng.Float64())
	}
	for i := 0; i < nr; i++ {
		var terms []Term
		for j := 0; j < nv; j++ {
			if rng.Float64() < 0.3 {
				terms = append(terms, Term{j, rng.Float64()*4 - 1})
			}
		}
		p.AddConstraint("r", terms, GE, rng.Float64()*5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(&p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBealeCyclingExample: the classic LP on which naive Dantzig
// pricing with fixed tie-breaking cycles forever. The solver's
// stall-triggered switch to Bland's rule must terminate at the known
// optimum z* = -1/20.
func TestBealeCyclingExample(t *testing.T) {
	var p Problem
	x1 := p.AddVar("x1", -0.75)
	x2 := p.AddVar("x2", 150)
	x3 := p.AddVar("x3", -0.02)
	x4 := p.AddVar("x4", 6)
	p.AddConstraint("r1", []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddConstraint("r2", []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddConstraint("r3", []Term{{x3, 1}}, LE, 1)
	s := solveOK(t, &p)
	if math.Abs(s.Obj-(-0.05)) > 1e-9 {
		t.Errorf("Beale optimum = %g, want -0.05", s.Obj)
	}
}

// TestKleeMintyCube: the worst case for Dantzig pricing (exponential
// pivot path on the deformed cube). n = 8 stays fast but exercises
// many pivots; the solver must reach the known optimum -100^(n-1).
func TestKleeMintyCube(t *testing.T) {
	const n = 8
	var p Problem
	xs := make([]int, n)
	for i := 0; i < n; i++ {
		coef := -math.Pow(100, float64(n-1-i))
		xs[i] = p.AddVar("x", coef)
	}
	for i := 0; i < n; i++ {
		terms := []Term{{xs[i], 1}}
		for j := 0; j < i; j++ {
			terms = append(terms, Term{xs[j], 2 * math.Pow(100, float64(i-j))})
		}
		p.AddConstraint("km", terms, LE, math.Pow(100, float64(i)))
	}
	s := solveOK(t, &p)
	want := -math.Pow(100, float64(n-1))
	if math.Abs(s.Obj-want) > 1e-6*math.Abs(want) {
		t.Errorf("Klee-Minty optimum = %g, want %g", s.Obj, want)
	}
}

func TestAccessorsAndStatusStrings(t *testing.T) {
	var p Problem
	x := p.AddVar("alpha", 1)
	row := p.AddConstraint("r0", []Term{{x, 1}}, GE, 1)
	if p.VarName(x) != "alpha" {
		t.Errorf("VarName = %q", p.VarName(x))
	}
	if p.ConstraintName(row) != "r0" {
		t.Errorf("ConstraintName = %q", p.ConstraintName(row))
	}
	for _, tc := range []struct {
		s    fmt.Stringer
		want string
	}{
		{LE, "<="}, {GE, ">="}, {EQ, "=="}, {Rel(9), "Rel(9)"},
		{Optimal, "optimal"}, {Infeasible, "infeasible"}, {Unbounded, "unbounded"}, {Status(7), "Status(7)"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestSetObjCoefAndClear(t *testing.T) {
	var p Problem
	x := p.AddVar("x", 5)
	p.AddConstraint("lb", []Term{{x, 1}}, GE, 2)
	p.AddConstraint("ub", []Term{{x, 1}}, LE, 9)
	p.ClearObjective()
	p.SetObjCoef(x, -1) // now maximize x
	s := solveOK(t, &p)
	if !approx(s.X[x], 9) {
		t.Errorf("after objective swap x = %g, want 9", s.X[x])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetObjCoef out of range did not panic")
		}
	}()
	p.SetObjCoef(42, 1)
}

func TestZeroVarProblemWithRows(t *testing.T) {
	// Constant rows over no variables: 0 <= 1 feasible; 0 >= 1 not.
	var feasible Problem
	feasible.AddConstraint("ok", nil, LE, 1)
	s, err := Solve(&feasible)
	if err != nil || s.Status != Optimal {
		t.Fatalf("constant-feasible: %v %v", s.Status, err)
	}
	var infeasible Problem
	infeasible.AddConstraint("bad", nil, GE, 1)
	s, err = Solve(&infeasible)
	if err != nil || s.Status != Infeasible {
		t.Fatalf("constant-infeasible: %v %v", s.Status, err)
	}
	var eqBad Problem
	eqBad.AddConstraint("eq", nil, EQ, 2)
	s, err = Solve(&eqBad)
	if err != nil || s.Status != Infeasible {
		t.Fatalf("constant-eq: %v %v", s.Status, err)
	}
}

func TestProblemStringCoefficientForms(t *testing.T) {
	var p Problem
	x := p.AddVar("x", 0)
	y := p.AddVar("y", 0)
	p.AddConstraint("mix", []Term{{x, 2.5}, {y, -3.5}}, EQ, 1)
	p.AddConstraint("neglead", []Term{{x, -1}}, LE, 0)
	p.AddConstraint("zeros", []Term{{x, 0}}, LE, 4)
	s := p.String()
	for _, want := range []string{"2.5*x - 3.5*y == 1", "-x <= 0", "0 <= 4", "minimize 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}
