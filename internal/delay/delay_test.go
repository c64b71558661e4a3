package delay

import (
	"math"
	"strings"
	"testing"
)

func TestChainUnitDelay(t *testing.T) {
	n := Chain("c", 5, 0.1, 0.2, 0.01)
	w, err := n.WorstDelay(Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if w != 5 {
		t.Errorf("unit delay of 5-chain = %g, want 5", w)
	}
}

func TestChainLinearDelay(t *testing.T) {
	// Each stage drives exactly one pin (next gate or block output):
	// delay = 5 * (0.1 + 0.2*1) = 1.5.
	n := Chain("c", 5, 0.1, 0.2, 0.01)
	w, err := n.WorstDelay(Linear{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1.5) > 1e-12 {
		t.Errorf("linear delay = %g, want 1.5", w)
	}
}

func TestChainElmoreDelay(t *testing.T) {
	// Interior stage load = InCap of next gate (0.01); the last stage
	// drives only the block output (cap 0): 4*(0.1+0.2*0.01) + 0.1.
	n := Chain("c", 5, 0.1, 0.2, 0.01)
	w, err := n.WorstDelay(Elmore{})
	if err != nil {
		t.Fatal(err)
	}
	want := 4*(0.1+0.2*0.01) + 0.1
	if math.Abs(w-want) > 1e-12 {
		t.Errorf("elmore delay = %g, want %g", w, want)
	}
}

func TestElmoreWireCap(t *testing.T) {
	n := Chain("c", 1, 0.1, 2.0, 0.01)
	n.WireCap = map[string]float64{"out": 0.5}
	w, err := n.WorstDelay(Elmore{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-(0.1+2.0*0.5)) > 1e-12 {
		t.Errorf("elmore with wire cap = %g, want 1.1", w)
	}
}

func TestTreeDepth(t *testing.T) {
	for _, tc := range []struct {
		leaves, depth int
	}{{2, 1}, {4, 2}, {8, 3}, {5, 3}, {1, 0}} {
		n := Tree("t", tc.leaves, 1, 0, 0)
		depth, err := n.WorstDelay(Unit{})
		if err != nil {
			t.Fatalf("leaves=%d: %v", tc.leaves, err)
		}
		if depth != float64(tc.depth) {
			t.Errorf("leaves=%d: depth = %g, want %d", tc.leaves, depth, tc.depth)
		}
	}
}

func TestPathDelaysPerPair(t *testing.T) {
	// Two inputs converging on one output through unequal depths:
	//
	//	a -> g1 -> g2 -> out
	//	b --------> g2
	n := &Netlist{
		Name:    "conv",
		Inputs:  []string{"a", "b"},
		Outputs: []string{"out"},
		Gates: []Gate{
			{Name: "g1", Inputs: []string{"a"}, Output: "m", Intrinsic: 1},
			{Name: "g2", Inputs: []string{"m", "b"}, Output: "out", Intrinsic: 1},
		},
	}
	d, err := n.PathDelays(Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if d[[2]string{"a", "out"}] != 2 {
		t.Errorf("a->out = %g, want 2", d[[2]string{"a", "out"}])
	}
	if d[[2]string{"b", "out"}] != 1 {
		t.Errorf("b->out = %g, want 1", d[[2]string{"b", "out"}])
	}
}

func TestCombinationalCycleRejected(t *testing.T) {
	n := &Netlist{
		Inputs:  []string{"a"},
		Outputs: []string{"x"},
		Gates: []Gate{
			{Name: "g1", Inputs: []string{"a", "y"}, Output: "x", Intrinsic: 1},
			{Name: "g2", Inputs: []string{"x"}, Output: "y", Intrinsic: 1},
		},
	}
	_, err := n.PathDelays(Unit{})
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestUndrivenNetRejected(t *testing.T) {
	n := &Netlist{
		Inputs:  []string{"a"},
		Outputs: []string{"x"},
		Gates:   []Gate{{Name: "g", Inputs: []string{"a", "ghost"}, Output: "x"}},
	}
	if _, err := n.PathDelays(Unit{}); err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Fatalf("undriven net not detected: %v", err)
	}
}

func TestMultipleDriversRejected(t *testing.T) {
	n := &Netlist{
		Inputs:  []string{"a"},
		Outputs: []string{"x"},
		Gates: []Gate{
			{Name: "g1", Inputs: []string{"a"}, Output: "x"},
			{Name: "g2", Inputs: []string{"a"}, Output: "x"},
		},
	}
	if _, err := n.PathDelays(Unit{}); err == nil || !strings.Contains(err.Error(), "multiple") {
		t.Fatalf("multiple drivers not detected: %v", err)
	}
}

func TestInputDrivenRejected(t *testing.T) {
	n := &Netlist{
		Inputs:  []string{"a"},
		Outputs: []string{"a"},
		Gates:   []Gate{{Name: "g", Inputs: []string{"a"}, Output: "a"}},
	}
	if _, err := n.PathDelays(Unit{}); err == nil {
		t.Fatal("gate driving a primary input accepted")
	}
}

func TestUndrivenOutputRejected(t *testing.T) {
	n := &Netlist{Inputs: []string{"a"}, Outputs: []string{"zz"}}
	if _, err := n.PathDelays(Unit{}); err == nil {
		t.Fatal("undriven output accepted")
	}
}

func TestFanoutAffectsLinearModel(t *testing.T) {
	// One driver fanning out to 3 sinks vs 1 sink.
	build := func(sinks int) *Netlist {
		n := &Netlist{Inputs: []string{"a"}, Outputs: []string{"o1"}}
		n.Gates = append(n.Gates, Gate{Name: "drv", Inputs: []string{"a"}, Output: "m", Intrinsic: 1, Drive: 0.5, InCap: 0.1})
		for i := 0; i < sinks; i++ {
			out := "o1"
			if i > 0 {
				out = "sink" + string(rune('a'+i))
				n.Outputs = append(n.Outputs, out)
			}
			n.Gates = append(n.Gates, Gate{Name: "s" + out, Inputs: []string{"m"}, Output: out, Intrinsic: 1, Drive: 0.5, InCap: 0.1})
		}
		return n
	}
	w1, err := build(1).WorstDelay(Linear{})
	if err != nil {
		t.Fatal(err)
	}
	w3, err := build(3).WorstDelay(Linear{})
	if err != nil {
		t.Fatal(err)
	}
	if w3 <= w1 {
		t.Errorf("fanout-3 delay %g not above fanout-1 delay %g", w3, w1)
	}
}

func TestModelNames(t *testing.T) {
	if (Unit{}).Name() != "unit" || (Linear{}).Name() != "linear" || (Elmore{}).Name() != "elmore" {
		t.Error("model names wrong")
	}
}

func TestTreeSingleLeafPassThrough(t *testing.T) {
	n := Tree("t", 1, 1, 0, 0)
	d, err := n.PathDelays(Unit{})
	if err != nil {
		t.Fatal(err)
	}
	if d[[2]string{"in0", "in0"}] != 0 {
		// Single-leaf tree: output aliases the input with no delay...
		// the pair key is (in0, in0) because Outputs[0] == "in0".
		t.Errorf("pass-through delay = %v", d)
	}
}
