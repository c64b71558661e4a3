package netex

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mintc/internal/core"
	"mintc/internal/delay"
)

// twoLatchNetlist: L1 -> g1 -> g2 -> L2 -> g3 -> L1, a two-phase loop
// with asymmetric gate depths.
func twoLatchNetlist() *Netlist {
	return &Netlist{
		Name: "loop",
		K:    2,
		Elements: []Element{
			{Name: "L1", Kind: core.Latch, Phase: 0, Setup: 1, DQ: 2, D: "n3", Q: "n0"},
			{Name: "L2", Kind: core.Latch, Phase: 1, Setup: 1, DQ: 2, D: "n2", Q: "n4"},
		},
		Gates: []delay.Gate{
			{Name: "g1", Inputs: []string{"n0"}, Output: "n1", Intrinsic: 5, Drive: 1, InCap: 0.1},
			{Name: "g2", Inputs: []string{"n1"}, Output: "n2", Intrinsic: 7, Drive: 1, InCap: 0.1},
			{Name: "g3", Inputs: []string{"n4"}, Output: "n3", Intrinsic: 4, Drive: 1, InCap: 0.1},
		},
	}
}

func TestExtractStructure(t *testing.T) {
	c, info, err := twoLatchNetlist().Extract(delay.Unit{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if c.L() != 2 || len(c.Paths()) != 2 {
		t.Fatalf("extracted l=%d paths=%d, want 2/2", c.L(), len(c.Paths()))
	}
	if info.Stages != 2 {
		t.Errorf("stages = %d, want 2", info.Stages)
	}
	if info.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2 (g1,g2)", info.MaxDepth)
	}
	// Unit model: L1->L2 through 2 gates = 2; L2->L1 through 1 gate.
	for _, p := range c.Paths() {
		from := c.SyncName(p.From)
		switch from {
		case "L1":
			if p.Delay != 2 {
				t.Errorf("L1->L2 delay = %g, want 2", p.Delay)
			}
		case "L2":
			if p.Delay != 1 {
				t.Errorf("L2->L1 delay = %g, want 1", p.Delay)
			}
		}
	}
}

func TestExtractLinearModelDelays(t *testing.T) {
	// Linear model: gate delay = intrinsic + drive*fanout. Each net
	// here drives exactly one pin.
	c, _, err := twoLatchNetlist().Extract(delay.Linear{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"L1": (5 + 1) + (7 + 1), "L2": 4 + 1}
	for _, p := range c.Paths() {
		if w := want[c.SyncName(p.From)]; math.Abs(p.Delay-w) > 1e-12 {
			t.Errorf("%s path delay = %g, want %g", c.SyncName(p.From), p.Delay, w)
		}
	}
}

func TestExtractAndSolve(t *testing.T) {
	c, _, err := twoLatchNetlist().Extract(delay.Linear{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Loop: DQ(2)+14+DQ(2)+5 = 23 over one boundary crossing... the
	// two-phase loop L1(phi1)->L2(phi2)->L1 crosses once (phi2->phi1),
	// so Tc* >= 23; setup adds nothing beyond. Verify against MCR via
	// the usual agreement plus the analytic bound.
	if r.Schedule.Tc < 23-1e-9 {
		t.Errorf("Tc = %g below loop bound 23", r.Schedule.Tc)
	}
	an, err := core.CheckTc(c, r.Schedule, core.Options{})
	if err != nil || !an.Feasible {
		t.Fatalf("extracted circuit optimum infeasible: %v %v", err, an)
	}
}

func TestExtractMinDelays(t *testing.T) {
	// Reconvergent paths: min uses the short branch, max the long one.
	n := &Netlist{
		K: 1,
		Elements: []Element{
			{Name: "A", Kind: core.Latch, Phase: 0, Setup: 1, DQ: 2, D: "loop", Q: "q"},
			{Name: "B", Kind: core.Latch, Phase: 0, Setup: 1, DQ: 2, D: "m", Q: "loop"},
		},
		Gates: []delay.Gate{
			{Name: "long1", Inputs: []string{"q"}, Output: "x1", Intrinsic: 10},
			{Name: "long2", Inputs: []string{"x1"}, Output: "x2", Intrinsic: 10},
			{Name: "short", Inputs: []string{"q"}, Output: "s", Intrinsic: 3},
			{Name: "join", Inputs: []string{"x2", "s"}, Output: "m", Intrinsic: 1},
		},
	}
	c, _, err := n.Extract(delay.Elmore{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	var ab core.Path
	for _, p := range c.Paths() {
		if c.SyncName(p.From) == "A" && c.SyncName(p.To) == "B" {
			ab = p
		}
	}
	if math.Abs(ab.Delay-21) > 1e-12 { // 10+10+1
		t.Errorf("max delay = %g, want 21", ab.Delay)
	}
	if math.Abs(ab.MinDelay-4) > 1e-12 { // 3+1
		t.Errorf("min delay = %g, want 4", ab.MinDelay)
	}
}

func TestExtractCombinationalLoopRejected(t *testing.T) {
	n := &Netlist{
		K: 1,
		Elements: []Element{
			{Name: "A", Kind: core.Latch, Phase: 0, Setup: 1, DQ: 2, D: "x", Q: "q"},
		},
		Gates: []delay.Gate{
			{Name: "g1", Inputs: []string{"q", "y"}, Output: "x", Intrinsic: 1},
			{Name: "g2", Inputs: []string{"x"}, Output: "y", Intrinsic: 1},
		},
	}
	_, _, err := n.Extract(delay.Unit{}, IOPolicy{})
	if err == nil || !strings.Contains(err.Error(), "combinational cycle") {
		t.Fatalf("cycle not rejected: %v", err)
	}
}

func TestExtractMultipleDriversRejected(t *testing.T) {
	n := twoLatchNetlist()
	n.Gates = append(n.Gates, delay.Gate{Name: "dup", Inputs: []string{"n0"}, Output: "n2", Intrinsic: 1})
	if _, _, err := n.Extract(delay.Unit{}, IOPolicy{}); err == nil ||
		!strings.Contains(err.Error(), "multiple drivers") {
		t.Fatalf("multiple drivers not rejected: %v", err)
	}
}

func TestExtractUndrivenRejected(t *testing.T) {
	n := twoLatchNetlist()
	n.Gates[0].Inputs = append(n.Gates[0].Inputs, "ghost")
	if _, _, err := n.Extract(delay.Unit{}, IOPolicy{}); err == nil ||
		!strings.Contains(err.Error(), "undriven") {
		t.Fatalf("undriven net not rejected: %v", err)
	}
}

func TestExtractIOPolicy(t *testing.T) {
	n := twoLatchNetlist()
	n.Inputs = []string{"pi"}
	n.Outputs = []string{"n2"}
	n.Gates = append(n.Gates, delay.Gate{Name: "gin", Inputs: []string{"pi"}, Output: "n5", Intrinsic: 2})
	n.Elements = append(n.Elements, Element{Name: "L3", Kind: core.Latch, Phase: 0, Setup: 1, DQ: 2, D: "n5", Q: "n6"})
	n.Outputs = append(n.Outputs, "n6")
	// Without ModelIO: inputs/outputs ignored; 3 elements.
	c, _, err := n.Extract(delay.Unit{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if c.L() != 3 {
		t.Fatalf("l = %d, want 3 (I/O ignored)", c.L())
	}
	// With ModelIO: input FF + two output latches appear.
	c, info, err := n.Extract(delay.Unit{}, IOPolicy{
		ModelIO: true, InputPhase: 0, OutputPhase: 1, InputCQ: 0.5, OutputSetup: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.L() != 3+1+2 {
		t.Fatalf("l = %d, want 6 with modeled I/O", c.L())
	}
	inIdx, ok := info.SyncIndex["in:pi"]
	if !ok {
		t.Fatal("input element missing from index")
	}
	if c.Sync(inIdx).Kind != core.FlipFlop {
		t.Error("modeled input must be a flip-flop")
	}
	// There must be a path in:pi -> L3 with delay 1 (gate gin).
	found := false
	for _, p := range c.Paths() {
		if p.From == inIdx && c.SyncName(p.To) == "L3" {
			found = true
			if p.Delay != 1 {
				t.Errorf("in->L3 delay = %g, want 1", p.Delay)
			}
		}
	}
	if !found {
		t.Error("input path not extracted")
	}
	if _, err := core.MinTc(c, core.Options{}); err != nil {
		t.Fatalf("modeled-IO circuit unsolvable: %v", err)
	}
}

func TestExtractValidations(t *testing.T) {
	if _, _, err := (&Netlist{}).Extract(delay.Unit{}, IOPolicy{}); err == nil {
		t.Error("no clock accepted")
	}
	n := &Netlist{K: 1, Elements: []Element{{Name: "X", Phase: 0}}}
	if _, _, err := n.Extract(delay.Unit{}, IOPolicy{}); err == nil {
		t.Error("element without nets accepted")
	}
}

func TestParseNetlistRoundFunctionality(t *testing.T) {
	src := `
# two-latch loop
netlist demo
clock 2
latch L1 phase 1 setup 1 dq 2 d n3 q n0
latch L2 phase 2 setup 1 dq 2 d n2 q n4
gate g1 in n0 out n1 intrinsic 5 drive 1 incap 0.1
gate g2 in n1 out n2 intrinsic 7 drive 1 incap 0.1
gate g3 in n4 out n3 intrinsic 4 drive 1 incap 0.1
wirecap n1 0.05
`
	n, err := ParseNetlistString(src)
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "demo" || n.K != 2 || len(n.Gates) != 3 || len(n.Elements) != 2 {
		t.Fatalf("parsed netlist malformed: %+v", n)
	}
	if n.WireCap["n1"] != 0.05 {
		t.Errorf("wirecap = %v", n.WireCap)
	}
	c, _, err := n.Extract(delay.Linear{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Same as TestExtractAndSolve's circuit: loop bound 23.
	if r.Schedule.Tc < 23-1e-9 {
		t.Errorf("Tc = %g", r.Schedule.Tc)
	}
}

func TestParseNetlistFF(t *testing.T) {
	n, err := ParseNetlistString(`
clock 1
ff F phase 1 setup 0.1 cq 0.2 d a q b
gate g in b out a intrinsic 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if n.Elements[0].Kind != core.FlipFlop || n.Elements[0].DQ != 0.2 {
		t.Errorf("ff parsed wrong: %+v", n.Elements[0])
	}
}

func TestParseNetlistErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"clock x\n", "invalid phase count"},
		{"latch L phase 1 setup 1 dq 1 d a q b\n", "no clock"},
		{"clock 1\nlatch L phase 9 setup 1 dq 1 d a q b\n", "outside 1.."},
		{"clock 1\nlatch L setup 1 dq 1 d a q b\n", "missing phase"},
		{"clock 1\nlatch L phase 1 setup 1 dq 1 d a\n", "missing d/q"},
		{"clock 1\nlatch L phase 1 setup 1 cq 1 d a q b\n", `use "dq"`},
		{"clock 1\nff F phase 1 setup 1 dq 1 d a q b\n", `use "cq"`},
		{"clock 1\ngate g out x\n", "needs in and out"},
		{"clock 1\ngate g in a out\n", "missing net after out"},
		{"clock 1\nbogus 1\n", "unknown directive"},
		{"clock 1\nwirecap n\n", "usage: wirecap"},
		{"clock 1\nlatch L phase 1 setup 1 dq 1 d a q b zap\n", "dangling token"},
	}
	for _, tc := range cases {
		_, err := ParseNetlistString(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("src %q: err %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestWriteNetlistRoundTrip(t *testing.T) {
	n := twoLatchNetlist()
	n.Name = "rt"
	n.Inputs = []string{"pi"}
	n.Gates = append(n.Gates, delay.Gate{Name: "gin", Inputs: []string{"pi"}, Output: "spare", Intrinsic: 2})
	n.Outputs = []string{"spare"}
	n.WireCap = map[string]float64{"n1": 0.25}
	n.Elements[0].Hold = 1.5
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, n); err != nil {
		t.Fatal(err)
	}
	back, err := ParseNetlistString(buf.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if back.Name != "rt" || back.K != 2 || len(back.Gates) != len(n.Gates) ||
		len(back.Elements) != len(n.Elements) || back.WireCap["n1"] != 0.25 {
		t.Fatalf("round trip changed netlist:\n%s", buf.String())
	}
	if back.Elements[0].Hold != 1.5 {
		t.Errorf("hold lost: %+v", back.Elements[0])
	}
	// Extraction equivalence.
	c1, _, err := n.Extract(delay.Linear{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := back.Extract(delay.Linear{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := core.MinTc(c1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.MinTc(c2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.Schedule.Tc-r2.Schedule.Tc) > 1e-12 {
		t.Errorf("round trip changed Tc: %g vs %g", r1.Schedule.Tc, r2.Schedule.Tc)
	}
}

func TestWriteNetlistSynthRoundTrip(t *testing.T) {
	// Full tool-chain loop: model -> (gen.Synthesize elsewhere) here
	// just netlist -> text -> netlist -> extract must be stable for a
	// large generated design.
	src := twoLatchNetlist()
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, src); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNetlistString(buf.String()); err != nil {
		t.Fatal(err)
	}
}

func TestNetlistClockCountBounded(t *testing.T) {
	if _, err := ParseNetlistString("clock 99999999\n"); err == nil {
		t.Fatal("huge phase count accepted")
	}
}

func TestExtractDirectWire(t *testing.T) {
	// Element Q wired straight to another element's D (no gates):
	// a zero-delay stage must be extracted.
	n := &Netlist{
		K: 2,
		Elements: []Element{
			{Name: "A", Kind: core.Latch, Phase: 0, Setup: 1, DQ: 2, D: "back", Q: "w"},
			{Name: "B", Kind: core.Latch, Phase: 1, Setup: 1, DQ: 2, D: "w", Q: "back"},
		},
	}
	c, info, err := n.Extract(delay.Unit{}, IOPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Stages != 2 {
		t.Fatalf("stages = %d, want 2 (both direct wires)", info.Stages)
	}
	for _, p := range c.Paths() {
		if p.Delay != 0 {
			t.Errorf("direct-wire delay = %g, want 0", p.Delay)
		}
	}
	// Loop of two latch delays over one crossing: Tc* = 4.
	r, err := core.MinTc(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Schedule.Tc-4) > 1e-9 {
		t.Errorf("Tc = %g, want 4 (two DQ delays)", r.Schedule.Tc)
	}
}
