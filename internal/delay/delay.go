// Package delay derives combinational block delays (the Δ_ji
// parameters of the SMO model) from gate-level netlists. It stands in
// for the paper's delay-extraction flow, which obtained its parameters
// "from circuit simulations using SPICE": here a small structural
// netlist plus an analytic gate-delay model produces the same kind of
// numbers, so synthetic circuits can be generated with physically
// plausible, topology-dependent delays.
//
// Three models are provided, in increasing fidelity:
//
//   - Unit: every gate costs one unit (classic levelization);
//   - Linear: intrinsic delay plus a drive-strength term proportional
//     to fanout (a logical-effort-style approximation);
//   - Elmore: intrinsic delay plus R_drive × (wire capacitance + sum
//     of fanin pin capacitances of the driven gates).
//
// Blocks must be feedback-free, matching the paper's assumption that
// circuits decompose into stages of feedback-free combinational logic
// between latches; a combinational cycle is reported as an error.
package delay

import (
	"fmt"
	"math"
)

// Gate is one combinational cell instance.
type Gate struct {
	Name string
	// Inputs and Output name the nets this gate connects to.
	Inputs []string
	Output string
	// Intrinsic is the gate's parasitic (unloaded) delay.
	Intrinsic float64
	// Drive is the output resistance (Elmore) or per-fanout delay
	// coefficient (Linear).
	Drive float64
	// InCap is the input pin capacitance presented to the driver of
	// each input net (Elmore only).
	InCap float64
}

// Netlist is a combinational block with named primary inputs and
// outputs.
type Netlist struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []Gate
	// WireCap optionally assigns extra capacitance per net (Elmore).
	WireCap map[string]float64
}

// Model maps a gate and its load to a delay.
type Model interface {
	// GateDelay returns the delay through g when driving the given
	// total load capacitance and fanout count.
	GateDelay(g Gate, loadCap float64, fanout int) float64
	// Name identifies the model in reports.
	Name() string
}

// Unit is the unit-delay model.
type Unit struct{}

// GateDelay returns 1 for every gate.
func (Unit) GateDelay(Gate, float64, int) float64 { return 1 }

// Name returns "unit".
func (Unit) Name() string { return "unit" }

// Linear is the fanout-linear (logical-effort-style) model.
type Linear struct{}

// GateDelay returns Intrinsic + Drive × fanout.
func (Linear) GateDelay(g Gate, _ float64, fanout int) float64 {
	return g.Intrinsic + g.Drive*float64(fanout)
}

// Name returns "linear".
func (Linear) Name() string { return "linear" }

// Elmore is the RC model.
type Elmore struct{}

// GateDelay returns Intrinsic + Drive × loadCap.
func (Elmore) GateDelay(g Gate, loadCap float64, _ int) float64 {
	return g.Intrinsic + g.Drive*loadCap
}

// Name returns "elmore".
func (Elmore) Name() string { return "elmore" }

// PathDelays computes, for every (input, output) pair with a structural
// path between them, the worst-case delay under the given model. The
// result feeds directly into core.Path delays. An error is returned
// for combinational cycles or undriven/multiply-driven nets.
func (n *Netlist) PathDelays(m Model) (map[[2]string]float64, error) {
	driver := map[string]int{} // net -> gate index
	for gi, g := range n.Gates {
		if _, dup := driver[g.Output]; dup {
			return nil, fmt.Errorf("delay: net %q driven by multiple gates", g.Output)
		}
		driver[g.Output] = gi
	}
	isInput := map[string]bool{}
	for _, in := range n.Inputs {
		if _, ok := driver[in]; ok {
			return nil, fmt.Errorf("delay: primary input %q is also driven by a gate", in)
		}
		isInput[in] = true
	}
	// Every gate input must be a primary input or a driven net.
	fanoutPins := map[string]int{}
	fanoutCap := map[string]float64{}
	for _, g := range n.Gates {
		for _, in := range g.Inputs {
			if !isInput[in] {
				if _, ok := driver[in]; !ok {
					return nil, fmt.Errorf("delay: net %q (input of %s) is undriven", in, g.Name)
				}
			}
			fanoutPins[in]++
			fanoutCap[in] += g.InCap
		}
	}
	for _, out := range n.Outputs {
		if !isInput[out] {
			if _, ok := driver[out]; !ok {
				return nil, fmt.Errorf("delay: primary output %q is undriven", out)
			}
		}
		fanoutPins[out]++ // the block boundary counts as a load pin
	}

	// Topological order of gates via DFS over the driver relation.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, len(n.Gates))
	var order []int
	var visit func(gi int) error
	visit = func(gi int) error {
		switch color[gi] {
		case gray:
			return fmt.Errorf("delay: combinational cycle through gate %q", n.Gates[gi].Name)
		case black:
			return nil
		}
		color[gi] = gray
		for _, in := range n.Gates[gi].Inputs {
			if d, ok := driver[in]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		color[gi] = black
		order = append(order, gi)
		return nil
	}
	for gi := range n.Gates {
		if err := visit(gi); err != nil {
			return nil, err
		}
	}

	// For each primary input, propagate arrival times forward.
	out := map[[2]string]float64{}
	arrival := map[string]float64{}
	for _, pin := range n.Inputs {
		for k := range arrival {
			delete(arrival, k)
		}
		arrival[pin] = 0
		for _, gi := range order {
			g := n.Gates[gi]
			worst := math.Inf(-1)
			for _, in := range g.Inputs {
				if a, ok := arrival[in]; ok && a > worst {
					worst = a
				}
			}
			if math.IsInf(worst, -1) {
				continue // gate not reached from this input
			}
			load := fanoutCap[g.Output] + n.WireCap[g.Output]
			arrival[g.Output] = worst + m.GateDelay(g, load, fanoutPins[g.Output])
		}
		for _, po := range n.Outputs {
			if a, ok := arrival[po]; ok {
				out[[2]string{pin, po}] = a
			}
		}
	}
	return out, nil
}

// WorstDelay returns the largest input-to-output delay of the block, or
// 0 for an empty block.
func (n *Netlist) WorstDelay(m Model) (float64, error) {
	d, err := n.PathDelays(m)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, v := range d {
		if v > worst {
			worst = v
		}
	}
	return worst, nil
}

// Chain builds an inverter chain of the given length — the canonical
// calibration structure (delay should be length × stage delay under
// every model).
func Chain(name string, length int, intrinsic, drive, inCap float64) *Netlist {
	n := &Netlist{Name: name, Inputs: []string{"in"}, Outputs: []string{"out"}}
	prev := "in"
	for i := 0; i < length; i++ {
		out := fmt.Sprintf("n%d", i+1)
		if i == length-1 {
			out = "out"
		}
		n.Gates = append(n.Gates, Gate{
			Name: fmt.Sprintf("inv%d", i+1), Inputs: []string{prev}, Output: out,
			Intrinsic: intrinsic, Drive: drive, InCap: inCap,
		})
		prev = out
	}
	return n
}

// Tree builds a balanced reduction tree (e.g. an AND tree) with the
// given number of leaf inputs; depth is ceil(log2(leaves)).
func Tree(name string, leaves int, intrinsic, drive, inCap float64) *Netlist {
	n := &Netlist{Name: name, Outputs: []string{"out"}}
	var frontier []string
	for i := 0; i < leaves; i++ {
		net := fmt.Sprintf("in%d", i)
		n.Inputs = append(n.Inputs, net)
		frontier = append(frontier, net)
	}
	gi := 0
	for len(frontier) > 1 {
		var next []string
		for i := 0; i < len(frontier); i += 2 {
			if i+1 == len(frontier) {
				next = append(next, frontier[i])
				continue
			}
			gi++
			out := fmt.Sprintf("t%d", gi)
			n.Gates = append(n.Gates, Gate{
				Name: fmt.Sprintf("and%d", gi), Inputs: []string{frontier[i], frontier[i+1]}, Output: out,
				Intrinsic: intrinsic, Drive: drive, InCap: inCap,
			})
			next = append(next, out)
		}
		frontier = next
	}
	// Rename the root to "out" by adding a buffer if needed.
	if len(n.Gates) == 0 {
		// Degenerate: single input feeds through.
		n.Outputs[0] = n.Inputs[0]
		return n
	}
	n.Gates[len(n.Gates)-1].Output = "out"
	return n
}
