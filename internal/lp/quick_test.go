package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomProblem builds a bounded random LP from a seed.
func randomProblem(seed int64) (*Problem, *denseLP) {
	rng := rand.New(rand.NewSource(seed))
	d := &denseLP{nVar: 1 + rng.Intn(4)}
	for j := 0; j < d.nVar; j++ {
		d.c = append(d.c, float64(rng.Intn(9)-4))
	}
	for i := 0; i < 1+rng.Intn(6); i++ {
		row := make([]float64, d.nVar)
		for j := range row {
			row[j] = float64(rng.Intn(7) - 3)
		}
		d.a = append(d.a, row)
		d.rel = append(d.rel, Rel(rng.Intn(2)))
		d.rhs = append(d.rhs, float64(rng.Intn(15)-7))
	}
	return d.problem(), d
}

// TestQuickSolutionsAreFeasible: every Optimal answer satisfies its
// own constraints.
func TestQuickSolutionsAreFeasible(t *testing.T) {
	prop := func(seed int64) bool {
		p, d := randomProblem(seed)
		s, err := Solve(p)
		if err != nil {
			return false
		}
		if s.Status != Optimal {
			return true
		}
		return d.feasible(s.X)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDualSigns: for minimization, dObj/dRHS is <= 0 for LE rows
// and >= 0 for GE rows (relaxing a constraint never hurts).
func TestQuickDualSigns(t *testing.T) {
	prop := func(seed int64) bool {
		p, _ := randomProblem(seed)
		s, err := Solve(p)
		if err != nil || s.Status != Optimal {
			return true
		}
		for i := 0; i < p.NumConstraints(); i++ {
			switch p.Constraint(i).Rel {
			case LE:
				if s.Dual[i] > 1e-7 {
					return false
				}
			case GE:
				if s.Dual[i] < -1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickComplementarySlackness: a row with nonzero dual is binding
// (zero slack).
func TestQuickComplementarySlackness(t *testing.T) {
	prop := func(seed int64) bool {
		p, _ := randomProblem(seed)
		s, err := Solve(p)
		if err != nil || s.Status != Optimal {
			return true
		}
		for i := range s.Dual {
			if math.Abs(s.Dual[i]) > 1e-7 && s.Slack[i] > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRHSRangeContainsRHS: the reported basis-validity interval
// always contains the row's own RHS.
func TestQuickRHSRangeContainsRHS(t *testing.T) {
	prop := func(seed int64) bool {
		p, _ := randomProblem(seed)
		s, err := Solve(p)
		if err != nil || s.Status != Optimal {
			return true
		}
		rows := make([]int, p.NumConstraints())
		for i := range rows {
			rows[i] = i
		}
		rng, err := s.RHSRange(rows...)
		if err != nil {
			return false
		}
		for i, row := range rows {
			r := p.Constraint(row).RHS
			if rng[i][0] > r+1e-6 || rng[i][1] < r-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickObjectiveMatchesX: the reported objective equals c·X.
func TestQuickObjectiveMatchesX(t *testing.T) {
	prop := func(seed int64) bool {
		p, d := randomProblem(seed)
		s, err := Solve(p)
		if err != nil || s.Status != Optimal {
			return true
		}
		var obj float64
		for j := range s.X {
			obj += d.c[j] * s.X[j]
		}
		return math.Abs(obj-s.Obj) < 1e-7*(1+math.Abs(obj))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTightenNeverImproves: shrinking the feasible region (adding
// a random extra GE row derived from the current optimum plus a
// violation) can only keep or worsen the objective.
func TestQuickTightenNeverImproves(t *testing.T) {
	prop := func(seed int64, which uint8) bool {
		p, _ := randomProblem(seed)
		s, err := Solve(p)
		if err != nil || s.Status != Optimal || p.NumVars() == 0 {
			return true
		}
		v := int(which) % p.NumVars()
		// Require x_v >= current value + 1.
		p.AddConstraint("tighten", []Term{{Var: v, Coef: 1}}, GE, s.X[v]+1)
		s2, err := Solve(p)
		if err != nil {
			return false
		}
		switch s2.Status {
		case Infeasible:
			return true
		case Unbounded:
			return false // was optimal before; tightening can't unbound
		default:
			return s2.Obj >= s.Obj-1e-6*(1+math.Abs(s.Obj))
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
