package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
	"mintc/internal/lp"
)

// This file pins the objective-layer refactor to the pre-refactor LP
// builder: with the default (min-Tc) objective, constraint generation
// and the full solve must stay BIT-IDENTICAL to the seed
// implementation. seedBuildLP below is a frozen copy of the original
// buildLPOv (inlined helpers and all) — do not "fix" or modernize it;
// its whole value is that it does not change when the live builder
// does.

func seedSigma(opts core.Options, p int) float64 {
	if p < 0 || p >= len(opts.PhaseSkew) {
		return 0
	}
	return opts.PhaseSkew[p]
}

func seedCShift(p, q int) float64 {
	if p >= q {
		return 1
	}
	return 0
}

// seedArcWeight is the frozen ΔDQ_j + Δ_ji + Skew + σ_{p_j} + σ_{p_i}.
func seedArcWeight(c *core.Circuit, opts core.Options, pidx int) float64 {
	p := c.Paths()[pidx]
	pj, pi := c.Sync(p.From).Phase, c.Sync(p.To).Phase
	return c.Sync(p.From).DQ + p.Delay + opts.Skew + seedSigma(opts, pj) + seedSigma(opts, pi)
}

// seedBuildLP is the frozen pre-refactor builder.
func seedBuildLP(c *core.Circuit, opts core.Options) *lp.Problem {
	k := c.K()
	l := c.L()
	p := &lp.Problem{}
	tc := p.AddVar("Tc", 1)
	s := make([]int, k)
	tw := make([]int, k)
	d := make([]int, l)
	for i := 0; i < k; i++ {
		s[i] = p.AddVar("s."+c.PhaseName(i), 0)
	}
	for i := 0; i < k; i++ {
		tw[i] = p.AddVar("T."+c.PhaseName(i), 0)
	}
	for i := 0; i < l; i++ {
		d[i] = p.AddVar("D."+c.SyncName(i), 0)
	}

	for i := 0; i < k; i++ {
		p.AddConstraint(fmt.Sprintf("C1.T.%s", c.PhaseName(i)),
			[]lp.Term{{Var: tw[i], Coef: 1}, {Var: tc, Coef: -1}}, lp.LE, 0)
		p.AddConstraint(fmt.Sprintf("C1.s.%s", c.PhaseName(i)),
			[]lp.Term{{Var: s[i], Coef: 1}, {Var: tc, Coef: -1}}, lp.LE, 0)
	}
	for i := 0; i+1 < k; i++ {
		p.AddConstraint(fmt.Sprintf("C2.%s<=%s", c.PhaseName(i), c.PhaseName(i+1)),
			[]lp.Term{{Var: s[i], Coef: 1}, {Var: s[i+1], Coef: -1}}, lp.LE, 0)
	}
	km := c.KMatrix()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] == 0 {
				continue
			}
			p.AddConstraint(fmt.Sprintf("C3.%s->%s", c.PhaseName(i), c.PhaseName(j)),
				[]lp.Term{
					{Var: s[i], Coef: 1},
					{Var: s[j], Coef: -1},
					{Var: tw[j], Coef: -1},
					{Var: tc, Coef: seedCShift(j, i)},
				}, lp.GE, opts.MinSeparation+seedSigma(opts, i)+seedSigma(opts, j))
		}
	}
	if opts.MinPhaseWidth > 0 {
		for i := 0; i < k; i++ {
			p.AddConstraint(fmt.Sprintf("minW.%s", c.PhaseName(i)),
				[]lp.Term{{Var: tw[i], Coef: 1}}, lp.GE, opts.MinPhaseWidth)
		}
	}
	if opts.FixedTc > 0 {
		p.AddConstraint("Tc.fixed", []lp.Term{{Var: tc, Coef: 1}}, lp.EQ, opts.FixedTc)
	}
	for i, sy := range c.Syncs() {
		switch sy.Kind {
		case core.Latch:
			p.AddConstraint(fmt.Sprintf("L1.%s", c.SyncName(i)),
				[]lp.Term{{Var: d[i], Coef: 1}, {Var: tw[sy.Phase], Coef: -1}},
				lp.LE, -(sy.Setup + opts.Skew + seedSigma(opts, sy.Phase)))
		case core.FlipFlop:
			p.AddConstraint(fmt.Sprintf("FF.D.%s", c.SyncName(i)),
				[]lp.Term{{Var: d[i], Coef: 1}}, lp.EQ, 0)
		}
	}
	for pi, path := range c.Paths() {
		j, i := path.From, path.To
		pj, piph := c.Sync(j).Phase, c.Sync(i).Phase
		cji := seedCShift(pj, piph)
		switch c.Sync(i).Kind {
		case core.Latch:
			p.AddConstraint(fmt.Sprintf("L2R.%s->%s", c.SyncName(j), c.SyncName(i)),
				[]lp.Term{
					{Var: d[i], Coef: 1},
					{Var: d[j], Coef: -1},
					{Var: s[pj], Coef: -1},
					{Var: s[piph], Coef: 1},
					{Var: tc, Coef: cji},
				}, lp.GE, seedArcWeight(c, opts, pi))
		case core.FlipFlop:
			p.AddConstraint(fmt.Sprintf("FFsu.%s->%s", c.SyncName(j), c.SyncName(i)),
				[]lp.Term{
					{Var: d[j], Coef: 1},
					{Var: s[pj], Coef: 1},
					{Var: s[piph], Coef: -1},
					{Var: tc, Coef: -cji},
				}, lp.LE, -(c.Sync(i).Setup + seedArcWeight(c, opts, pi)))
		}
	}
	if opts.DesignForHold {
		for _, path := range c.Paths() {
			i := path.To
			hold := c.Sync(i).Hold
			if hold <= 0 {
				continue
			}
			j := path.From
			pj, piph := c.Sync(j).Phase, c.Sync(i).Phase
			oneMinusC := 1 - seedCShift(pj, piph)
			terms := []lp.Term{
				{Var: s[pj], Coef: 1},
				{Var: s[piph], Coef: -1},
				{Var: tc, Coef: oneMinusC},
			}
			if c.Sync(i).Kind == core.Latch {
				terms = append(terms, lp.Term{Var: tw[piph], Coef: -1})
			}
			p.AddConstraint(fmt.Sprintf("hold.%s->%s", c.SyncName(j), c.SyncName(i)),
				terms, lp.GE,
				c.Sync(i).Hold-c.Sync(j).DQ-path.MinDelay+opts.Skew+seedSigma(opts, pj)+seedSigma(opts, piph))
		}
	}
	return p
}

// requireSameLP compares two problems bit for bit: variable census
// (names and objective coefficients) and row census (names, terms,
// relations, right-hand sides).
func requireSameLP(t *testing.T, want, got *lp.Problem) {
	t.Helper()
	if want.NumVars() != got.NumVars() {
		t.Fatalf("variable count diverged: seed %d, live %d", want.NumVars(), got.NumVars())
	}
	for v := 0; v < want.NumVars(); v++ {
		if want.VarName(v) != got.VarName(v) {
			t.Fatalf("var %d name diverged: seed %q, live %q", v, want.VarName(v), got.VarName(v))
		}
		if math.Float64bits(want.ObjCoef(v)) != math.Float64bits(got.ObjCoef(v)) {
			t.Fatalf("var %d (%s) objective coefficient diverged: seed %v, live %v",
				v, want.VarName(v), want.ObjCoef(v), got.ObjCoef(v))
		}
	}
	if want.NumConstraints() != got.NumConstraints() {
		t.Fatalf("row count diverged: seed %d, live %d", want.NumConstraints(), got.NumConstraints())
	}
	for r := 0; r < want.NumConstraints(); r++ {
		wr, gr := want.Constraint(r), got.Constraint(r)
		if wr.Name != gr.Name || wr.Rel != gr.Rel {
			t.Fatalf("row %d diverged: seed %s(%v), live %s(%v)", r, wr.Name, wr.Rel, gr.Name, gr.Rel)
		}
		if math.Float64bits(wr.RHS) != math.Float64bits(gr.RHS) {
			t.Fatalf("row %d (%s) RHS diverged: seed %v, live %v", r, wr.Name, wr.RHS, gr.RHS)
		}
		if len(wr.Terms) != len(gr.Terms) {
			t.Fatalf("row %d (%s) term count diverged: seed %d, live %d", r, wr.Name, len(wr.Terms), len(gr.Terms))
		}
		for ti := range wr.Terms {
			if wr.Terms[ti].Var != gr.Terms[ti].Var ||
				math.Float64bits(wr.Terms[ti].Coef) != math.Float64bits(gr.Terms[ti].Coef) {
				t.Fatalf("row %d (%s) term %d diverged: seed %+v, live %+v",
					r, wr.Name, ti, wr.Terms[ti], gr.Terms[ti])
			}
		}
	}
}

// withHolds rebuilds a circuit with a hold requirement on every
// synchronizer and a distinct MinDelay on every path, so the
// DesignForHold row family is exercised.
func withHolds(c *core.Circuit) *core.Circuit {
	out := core.NewCircuit(c.K())
	for p := 0; p < c.K(); p++ {
		out.SetPhaseName(p, c.PhaseName(p))
	}
	for _, s := range c.Syncs() {
		s.Hold = 0.3
		out.AddSync(s)
	}
	for _, p := range c.Paths() {
		p.MinDelay = p.Delay * 0.5
		out.AddPathFull(p)
	}
	return out
}

// optionVariants returns the generation-option sets the parity claim
// covers for a circuit with k phases.
func optionVariants(k int) map[string]core.Options {
	skews := make([]float64, k)
	for i := range skews {
		skews[i] = 0.125 * float64(i+1)
	}
	return map[string]core.Options{
		"zero":    {},
		"margins": {MinPhaseWidth: 2, MinSeparation: 0.5, Skew: 0.25},
		"fixedTc": {FixedTc: 1 << 12},
		"skews":   {PhaseSkew: skews},
		"hold":    {DesignForHold: true, Skew: 0.125},
	}
}

// TestMinTcLPBitwiseParity regenerates every benchmark-suite LP under
// the default objective and requires it to match the frozen seed
// builder bit for bit, across every generation-option family.
func TestMinTcLPBitwiseParity(t *testing.T) {
	for _, bm := range gen.Suite() {
		for name, opts := range optionVariants(bm.Circuit.K()) {
			c := bm.Circuit
			if name == "hold" {
				c = withHolds(c)
			}
			prob, _, _ := core.BuildLP(c, opts)
			requireSameLP(t, seedBuildLP(c, opts), prob)
		}
	}
}

// TestMinTcSolveBitwiseParity solves the frozen seed LP and the live
// min-Tc path on every suite member and requires the optimal cycle
// time and clock schedule to agree bit for bit — the refactor must not
// move the LP onto a different optimal vertex.
func TestMinTcSolveBitwiseParity(t *testing.T) {
	for _, bm := range gen.Suite() {
		for oi, opts := range []core.Options{{}, {MinPhaseWidth: 2, MinSeparation: 0.5, Skew: 0.25}} {
			res, err := core.MinTc(bm.Circuit, opts)
			if err != nil {
				t.Fatalf("%s: MinTc: %v", bm.Name, err)
			}
			sol, err := lp.SolveCtxFrom(context.Background(), seedBuildLP(bm.Circuit, opts), nil)
			if err != nil {
				t.Fatalf("%s: seed LP solve: %v", bm.Name, err)
			}
			if sol.Status != lp.Optimal {
				t.Fatalf("%s: seed LP status %v", bm.Name, sol.Status)
			}
			if math.Float64bits(sol.X[0]) != math.Float64bits(res.Schedule.Tc) {
				t.Fatalf("%s: Tc diverged: seed %v, live %v", bm.Name, sol.X[0], res.Schedule.Tc)
			}
			k := bm.Circuit.K()
			for i := 0; i < k; i++ {
				if math.Float64bits(sol.X[1+i]) != math.Float64bits(res.Schedule.S[i]) {
					t.Fatalf("%s: s[%d] diverged: seed %v, live %v", bm.Name, i, sol.X[1+i], res.Schedule.S[i])
				}
				if math.Float64bits(sol.X[1+k+i]) != math.Float64bits(res.Schedule.T[i]) {
					t.Fatalf("%s: T[%d] diverged: seed %v, live %v", bm.Name, i, sol.X[1+k+i], res.Schedule.T[i])
				}
			}
			// The analytic optimum is only an oracle for the paper's
			// plain model (no extra margins).
			if oi == 0 && bm.OptimalTc > 0 && math.Abs(res.Schedule.Tc-bm.OptimalTc) > 1e-9 {
				t.Fatalf("%s: Tc %v does not match the analytic optimum %v", bm.Name, res.Schedule.Tc, bm.OptimalTc)
			}
		}
	}
}

// The rest of this file pins the analysis problem (CheckTcOverlay) to
// its pre-refactor form: seedCheckTc is a frozen copy of the checker
// that solved the departure fixpoint with a Bellman–Ford longest-path
// pass over a freshly built graph (seedLeastFixpoint, the graph code
// copied verbatim as seedGraph) and validated the clock with
// eagerly named rows. Like seedBuildLP, do not "fix" or modernize it.

// seedEdge is a weighted directed edge from From to To.
type seedEdge struct {
	From, To int
	Weight   float64
}

// seedGraph is a directed multigraph over nodes 0..N-1.
type seedGraph struct {
	n   int
	out [][]seedEdge
}

func newSeedGraph(n int) *seedGraph {
	return &seedGraph{n: n, out: make([][]seedEdge, n)}
}

func (g *seedGraph) AddEdge(u, v int, w float64) {
	g.out[u] = append(g.out[u], seedEdge{From: u, To: v, Weight: w})
}

// seedNegInf is the "no path" value returned by longest-path routines.
var seedNegInf = math.Inf(-1)

// seedLongestPathsResult holds the output of LongestPathsFrom.
type seedLongestPathsResult struct {
	Dist          []float64
	Pred          []seedEdge
	PositiveCycle []int
}

// seedRelaxEps guards Bellman–Ford against infinite refinement caused
// by floating-point round-off on zero-weight cycles.
const seedRelaxEps = 1e-9

// LongestPathsFrom computes single-source longest paths using
// Bellman–Ford, with a PositiveCycle witness when one exists.
func (g *seedGraph) LongestPathsFrom(src int) seedLongestPathsResult {
	dist := make([]float64, g.n)
	pred := make([]seedEdge, g.n)
	for i := range dist {
		dist[i] = seedNegInf
		pred[i] = seedEdge{From: -1}
	}
	dist[src] = 0

	relax := func() (changedNode int) {
		changedNode = -1
		for u := 0; u < g.n; u++ {
			if dist[u] == seedNegInf {
				continue
			}
			for _, e := range g.out[u] {
				if d := dist[u] + e.Weight; d > dist[e.To]+seedRelaxEps {
					dist[e.To] = d
					pred[e.To] = e
					changedNode = e.To
				}
			}
		}
		return changedNode
	}

	for i := 0; i < g.n-1; i++ {
		if relax() == -1 {
			break
		}
	}
	res := seedLongestPathsResult{Dist: dist, Pred: pred}
	if v := relax(); v != -1 {
		res.PositiveCycle = g.traceCycle(pred, v)
	}
	return res
}

// traceCycle walks predecessor edges from a node known to be affected
// by a positive cycle and extracts the cycle's node sequence in edge
// order.
func (g *seedGraph) traceCycle(pred []seedEdge, v int) []int {
	for i := 0; i < g.n; i++ {
		if pred[v].From == -1 {
			break
		}
		v = pred[v].From
	}
	seen := make(map[int]int)
	var path []int
	for {
		if at, ok := seen[v]; ok {
			cyc := path[at:]
			for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
				cyc[i], cyc[j] = cyc[j], cyc[i]
			}
			return cyc
		}
		seen[v] = len(path)
		path = append(path, v)
		if pred[v].From == -1 {
			return path
		}
		v = pred[v].From
	}
}

// seedLeastFixpoint is the frozen least fixpoint: longest paths from a
// super-source (the 0 floor) in a graph whose nodes are synchronizers,
// flip-flops pinned to 0 by giving them no incoming arcs.
func seedLeastFixpoint(kn *core.Kernel, shift []float64) (d []float64, loop []int) {
	l := kn.L()
	g := newSeedGraph(l + 1)
	z := l
	for i := 0; i < l; i++ {
		g.AddEdge(z, i, 0) // D_i >= 0 floor
	}
	for i := 0; i < l; i++ {
		if kn.FF[i] {
			continue // FF departure is independent of arrivals
		}
		for a := kn.Start[i]; a < kn.Start[i+1]; a++ {
			g.AddEdge(int(kn.Src[a]), i, kn.W[a]+shift[kn.PP[a]])
		}
	}
	res := g.LongestPathsFrom(z)
	if res.PositiveCycle != nil {
		for _, v := range res.PositiveCycle {
			if v != z {
				loop = append(loop, v)
			}
		}
		return nil, loop
	}
	d = make([]float64, l)
	copy(d, res.Dist[:l])
	return d, nil
}

// seedValidateClock is the frozen clock check, amounts summed exactly
// as before.
func seedValidateClock(sc *core.Schedule, c *core.Circuit) []core.ClockViolation {
	var out []core.ClockViolation
	k := sc.K()
	add := func(name string, amount float64) {
		if amount > core.Eps {
			out = append(out, core.ClockViolation{Constraint: name, Amount: amount})
		}
	}
	add("C4 Tc >= 0", -sc.Tc)
	for i := 0; i < k; i++ {
		add(fmt.Sprintf("C4 T(%s) >= 0", c.PhaseName(i)), -sc.T[i])
		add(fmt.Sprintf("C4 s(%s) >= 0", c.PhaseName(i)), -sc.S[i])
		add(fmt.Sprintf("C1 T(%s) <= Tc", c.PhaseName(i)), sc.T[i]-sc.Tc)
		add(fmt.Sprintf("C1 s(%s) <= Tc", c.PhaseName(i)), sc.S[i]-sc.Tc)
	}
	for i := 0; i+1 < k; i++ {
		add(fmt.Sprintf("C2 s(%s) <= s(%s)", c.PhaseName(i), c.PhaseName(i+1)), sc.S[i]-sc.S[i+1])
	}
	km := c.KMatrix()
	cm := c.CMatrix()
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if km[i][j] == 0 {
				continue
			}
			lhs := sc.S[i]
			rhs := sc.S[j] + sc.T[j] - float64(cm[j][i])*sc.Tc
			add(fmt.Sprintf("C3 nonoverlap %s->%s", c.PhaseName(i), c.PhaseName(j)), rhs-lhs)
		}
	}
	return out
}

// seedEarliestArrivalOf is min over fanin of (d_j + ΔDQ_j + Δmin_ji + S).
func seedEarliestArrivalOf(ov core.DelayOverlay, sched *core.Schedule, d []float64, i int) float64 {
	c := ov.Base().Circuit()
	a := math.Inf(1)
	pi := c.Sync(i).Phase
	for _, pidx := range c.Fanin(i) {
		p := c.Paths()[pidx]
		j := p.From
		v := d[j] + c.Sync(j).DQ + ov.MinDelay(pidx) + sched.PhaseShift(c.Sync(j).Phase, pi)
		if v < a {
			a = v
		}
	}
	return a
}

// seedHoldSlacks is the frozen best-case (MinDelay) hold check.
func seedHoldSlacks(ov core.DelayOverlay, sched *core.Schedule, opts core.Options) []float64 {
	c := ov.Base().Circuit()
	l := c.L()
	out := make([]float64, l)
	any := false
	for i := range out {
		out[i] = math.NaN()
		if c.Sync(i).Hold > 0 {
			any = true
		}
	}
	if !any {
		return out
	}
	de := make([]float64, l)
	limit := 2*l + 8
	for it := 0; it < limit; it++ {
		changed := false
		for i := range de {
			var nv float64
			if c.Sync(i).Kind == core.FlipFlop || len(c.Fanin(i)) == 0 {
				nv = 0
			} else {
				nv = seedEarliestArrivalOf(ov, sched, de, i)
				if nv < 0 {
					nv = 0
				}
			}
			if math.Abs(nv-de[i]) > core.Eps {
				de[i] = nv
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for i, s := range c.Syncs() {
		if s.Hold == 0 || len(c.Fanin(i)) == 0 {
			continue
		}
		ae := seedEarliestArrivalOf(ov, sched, de, i)
		closing := 0.0
		if s.Kind == core.Latch {
			closing = sched.T[s.Phase]
		}
		out[i] = (ae + sched.Tc) - (closing + s.Hold + opts.Skew)
	}
	return out
}

// seedCheckTc is the frozen analysis: clock rows, the Bellman–Ford
// departure fixpoint, setup and hold slacks.
func seedCheckTc(ov core.DelayOverlay, sched *core.Schedule, opts core.Options) *core.Analysis {
	c := ov.Base().Circuit()
	an := &core.Analysis{Feasible: true}
	for _, cv := range seedValidateClock(sched, c) {
		an.Violations = append(an.Violations, core.Violation{Kind: "clock", Sync: -1, Detail: cv.Constraint, Amount: cv.Amount})
		an.Feasible = false
	}
	kn := ov.Kernel(opts)
	shift := kn.ShiftTable(sched, nil)
	d, loop := seedLeastFixpoint(kn, shift)
	if d == nil {
		an.Feasible = false
		an.PositiveLoop = loop
		an.Violations = append(an.Violations, core.Violation{Kind: "unstable", Sync: -1, Amount: math.Inf(1)})
		return an
	}
	l := c.L()
	an.D = d
	an.A = make([]float64, l)
	kn.ArriveAll(d, shift, an.A)
	an.Q = core.Outputs(c, d)
	an.SetupSlack = make([]float64, l)
	for i, s := range c.Syncs() {
		var slack float64
		switch s.Kind {
		case core.Latch:
			slack = sched.T[s.Phase] - s.Setup - opts.Skew - seedSigma(opts, s.Phase) - d[i]
		case core.FlipFlop:
			if math.IsInf(an.A[i], -1) {
				slack = math.Inf(1)
			} else {
				slack = -s.Setup - an.A[i]
			}
		}
		an.SetupSlack[i] = slack
		if slack < -core.Eps {
			an.Feasible = false
			kind := "setup"
			if s.Kind == core.FlipFlop {
				kind = "ff-setup"
			}
			an.Violations = append(an.Violations, core.Violation{
				Kind: kind, Sync: i,
				Detail: fmt.Sprintf("%s on %s", c.SyncName(i), c.PhaseName(s.Phase)),
				Amount: -slack,
			})
		}
	}
	an.HoldSlack = seedHoldSlacks(ov, sched, opts)
	for i, hs := range an.HoldSlack {
		if !math.IsNaN(hs) && hs < -core.Eps {
			an.Feasible = false
			an.Violations = append(an.Violations, core.Violation{
				Kind: "hold", Sync: i,
				Detail: fmt.Sprintf("%s on %s", c.SyncName(i), c.PhaseName(c.Sync(i).Phase)),
				Amount: -hs,
			})
		}
	}
	return an
}

// sameBits reports whether two float slices agree bit for bit (NaN
// payloads included).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameLoop reports whether two synchronizer sequences name the same
// cycle: equal up to rotation.
func sameLoop(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	for r := range b {
		if b[r] != a[0] {
			continue
		}
		match := true
		for i := range a {
			if a[i] != b[(r+i)%len(b)] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// scaledSchedule returns sched with Tc, every start and every width
// multiplied by f.
func scaledSchedule(sched *core.Schedule, f float64) *core.Schedule {
	sc := sched.Clone()
	sc.Tc *= f
	for i := range sc.S {
		sc.S[i] *= f
		sc.T[i] *= f
	}
	return sc
}

// TestCheckTcBitwiseParity requires CheckTcOverlay to reproduce the
// frozen Bellman–Ford analysis bit for bit over the benchmark suite
// and the 512-latch pair, every generation-option family (the hold
// family on hold-carrying variants), schedules around the optimum —
// feasible, exactly critical, a hair below (a loop gains delay) and
// well below — and the empty overlay plus four seeded single-path
// edits. Feasibility, D, A, Q, both slack vectors and every
// violation's kind, synchronizer, amount and detail must match; a
// positive loop must be the same cycle up to rotation (the
// component-ordered sweep may enter it at another synchronizer).
func TestCheckTcBitwiseParity(t *testing.T) {
	factors := []float64{1, 1.1, 0.999999, 0.93, 0.7}
	var cases, unstable, rotated int
	for _, bm := range append(gen.Suite(), gen.XLarge()...) {
		rng := rand.New(rand.NewSource(int64(len(bm.Name)) * 7919))
		type edit struct {
			path  int
			delay float64
		}
		var edits []edit
		for e := 0; e < 4; e++ {
			p := rng.Intn(len(bm.Circuit.Paths()))
			edits = append(edits, edit{p, rng.Float64() * 2 * (1 + bm.Circuit.Paths()[p].Delay)})
		}
		for name, opts := range optionVariants(bm.Circuit.K()) {
			c := bm.Circuit
			if name == "hold" {
				c = withHolds(c)
			}
			cc := c.MustFreeze()
			r, err := core.MinTcOverlay(cc.Overlay(), opts)
			if err != nil && opts.DesignForHold {
				// Some hold variants admit no schedule that meets every
				// hold row; center the schedules on the setup-only
				// optimum instead, where hold checks then fail.
				noHold := opts
				noHold.DesignForHold = false
				r, err = core.MinTcOverlay(cc.Overlay(), noHold)
			}
			if err != nil {
				t.Fatalf("%s/%s: MinTc: %v", bm.Name, name, err)
			}
			ovs := []core.DelayOverlay{cc.Overlay()}
			for _, e := range edits {
				ovs = append(ovs, cc.Overlay().With(e.path, e.delay))
			}
			for _, f := range factors {
				sched := scaledSchedule(r.Schedule, f)
				for oi, ov := range ovs {
					where := fmt.Sprintf("%s/%s ×%g overlay %d", bm.Name, name, f, oi)
					got, err := core.CheckTcOverlay(ov, sched, opts)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					requireSameAnalysis(t, where, seedCheckTc(ov, sched, opts), got)
					cases++
					if got.PositiveLoop != nil {
						unstable++
						want := seedCheckTc(ov, sched, opts).PositiveLoop
						if !slices.Equal(want, got.PositiveLoop) {
							rotated++
						}
					}
				}
			}
		}
	}
	t.Logf("%d analyses, %d unstable (%d loops entered at another synchronizer)", cases, unstable, rotated)
	if unstable == 0 || unstable == cases {
		t.Fatalf("%d of %d analyses unstable: the schedules no longer straddle the optimum", unstable, cases)
	}
}

func requireSameAnalysis(t *testing.T, where string, want, got *core.Analysis) {
	t.Helper()
	if want.Feasible != got.Feasible {
		t.Fatalf("%s: Feasible seed %v, live %v", where, want.Feasible, got.Feasible)
	}
	if (want.PositiveLoop == nil) != (got.PositiveLoop == nil) || !sameLoop(want.PositiveLoop, got.PositiveLoop) {
		t.Fatalf("%s: PositiveLoop seed %v, live %v", where, want.PositiveLoop, got.PositiveLoop)
	}
	for _, v := range []struct {
		name      string
		want, got []float64
	}{
		{"D", want.D, got.D}, {"A", want.A, got.A}, {"Q", want.Q, got.Q},
		{"SetupSlack", want.SetupSlack, got.SetupSlack}, {"HoldSlack", want.HoldSlack, got.HoldSlack},
	} {
		if !sameBits(v.want, v.got) {
			t.Fatalf("%s: %s diverged:\nseed %v\nlive %v", where, v.name, v.want, v.got)
		}
	}
	if len(want.Violations) != len(got.Violations) {
		t.Fatalf("%s: %d violations seed, %d live:\nseed %v\nlive %v", where, len(want.Violations), len(got.Violations), want.Violations, got.Violations)
	}
	for i, wv := range want.Violations {
		gv := got.Violations[i]
		if wv.Kind != gv.Kind || wv.Sync != gv.Sync || math.Float64bits(wv.Amount) != math.Float64bits(gv.Amount) ||
			(wv.Kind != "unstable" && wv.Detail != gv.Detail) {
			t.Fatalf("%s: violation %d seed %+v, live %+v", where, i, wv, gv)
		}
	}
}
