package core

import (
	"testing"

	"mintc/internal/lp"
)

// TestLPTemplateFixedTcIsAPatch: fixed cycle times enter the shared
// template as an RHS patch, so any number of client-chosen targets
// leave one template per options shape — and each solve still pins
// its own target.
func TestLPTemplateFixedTcIsAPatch(t *testing.T) {
	cc := example1(80).MustFreeze()
	for _, tc := range []float64{200, 250, 300, 350} {
		for _, opts := range []Options{{FixedTc: tc}, {Objective: MaxMarginAt(tc)}} {
			r, err := MinTcOverlay(cc.Overlay().With(0, 25), opts)
			if err != nil {
				t.Fatal(err)
			}
			if r.Schedule.Tc != tc {
				t.Errorf("%+v: Tc = %g, want the pinned %g", opts, r.Schedule.Tc, tc)
			}
		}
	}
	if n := len(cc.lps); n != 2 {
		t.Fatalf("snapshot holds %d LP templates for 2 options shapes", n)
	}
}

// TestLPTemplateForkIsolation: a result's LP and row table share the
// template's structure but appending rows or variables to them, or
// re-costing the LP, never reaches the template or another result.
func TestLPTemplateForkIsolation(t *testing.T) {
	cc := example1(80).MustFreeze()
	r1, err := MinTcOverlay(cc.Overlay().With(1, 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tpl := cc.lpTemplate(Options{})
	m, n := tpl.prob.NumConstraints(), tpl.prob.NumVars()
	v := r1.LP.AddVar("extra", 3)
	r1.LP.AddConstraint("extra", []lp.Term{{Var: v, Coef: 1}}, lp.LE, 1)
	r1.LP.SetObjCoef(0, 7)
	r1.LP.SetRHS(0, 42)
	r1.Rows = append(r1.Rows, RowInfo{Name: "extra"})
	if tpl.prob.NumConstraints() != m || tpl.prob.NumVars() != n || tpl.prob.ObjCoef(0) != 1 || tpl.prob.Constraint(0).RHS != 0 {
		t.Fatal("editing a result's LP changed the snapshot template")
	}
	if len(tpl.rows) != m || &r1.Rows[0] == &tpl.rows[0] {
		t.Fatal("appending to a result's rows wrote into the template's row table")
	}
	r2, err := MinTcOverlay(cc.Overlay().With(2, 30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := BuildLP(cc.Overlay().With(2, 30).Materialize(), Options{})
	if r2.LP.NumConstraints() != want.NumConstraints() || r2.LP.NumVars() != want.NumVars() || r2.LP.ObjCoef(0) != 1 {
		t.Fatal("a later result inherited another result's edits")
	}
	for i := 0; i < want.NumConstraints(); i++ {
		if r2.LP.Constraint(i).RHS != want.Constraint(i).RHS || r2.LP.Constraint(i).Name != want.Constraint(i).Name {
			t.Fatalf("row %d: %+v, want %+v", i, r2.LP.Constraint(i), want.Constraint(i))
		}
	}
}
