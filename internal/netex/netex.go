// Package netex extracts SMO timing models from gate-level sequential
// netlists. The paper assumes its input circuit "has been decomposed
// into clocked combinational stages, and that the various delay
// parameters have been calculated" (§III.B); this package performs
// that decomposition: given a netlist of gates and clocked storage
// elements, it finds every latch-to-latch combinational path, computes
// its worst-case (and best-case) delay under a delay model from the
// delay package, and emits the corresponding core.Circuit.
//
// Rules enforced during extraction:
//
//   - every net has exactly one driver (a gate output, an element Q
//     pin, or a primary input);
//   - the gate graph between storage elements is acyclic (feedback
//     must pass through a latch or flip-flop, matching the paper's
//     feedback-free-stage assumption);
//   - primary inputs and outputs are either ignored for timing or
//     modeled as clocked boundary elements, per IOPolicy.
package netex

import (
	"fmt"
	"math"

	"mintc/internal/core"
	"mintc/internal/delay"
)

// Element is one clocked storage element of the netlist: a
// level-sensitive latch or an edge-triggered flip-flop with a data
// input net D and an output net Q.
type Element struct {
	Name  string
	Kind  core.ElementKind
	Phase int // 0-based clock phase
	Setup float64
	DQ    float64 // DQ for latches, clock-to-Q for flip-flops
	Hold  float64
	D, Q  string // net names
}

// Netlist is a sequential gate-level design.
type Netlist struct {
	Name string
	// K is the number of clock phases.
	K int
	// Inputs and Outputs name the primary I/O nets.
	Inputs, Outputs []string
	// Gates is the combinational logic (delay.Gate reused so the delay
	// models apply unchanged).
	Gates []delay.Gate
	// Elements is the clocked storage.
	Elements []Element
	// WireCap optionally assigns extra capacitance per net (Elmore).
	WireCap map[string]float64
}

// IOPolicy controls how primary inputs and outputs enter the timing
// model.
type IOPolicy struct {
	// ModelIO false (default): primary I/O carries no timing
	// constraints (paths from inputs and to outputs are ignored).
	// ModelIO true: each primary input becomes a flip-flop launching
	// on InputPhase with clock-to-Q InputCQ, and each primary output
	// becomes a latch capturing on OutputPhase with setup OutputSetup.
	ModelIO     bool
	InputPhase  int
	OutputPhase int
	InputCQ     float64
	OutputSetup float64
	OutputDQ    float64
}

// Info reports extraction statistics.
type Info struct {
	// Stages is the number of latch-to-latch combinational paths
	// found (== paths in the extracted circuit).
	Stages int
	// MaxDepth is the largest gate count along any extracted path.
	MaxDepth int
	// SyncIndex maps element (and modeled I/O) names to synchronizer
	// indices in the extracted circuit.
	SyncIndex map[string]int
}

// Extract builds the SMO timing model using the given delay model.
func (n *Netlist) Extract(m delay.Model, io IOPolicy) (*core.Circuit, *Info, error) {
	if n.K < 1 {
		return nil, nil, fmt.Errorf("netex: netlist %q has no clock (K=%d)", n.Name, n.K)
	}
	// Net driver table (each net must have exactly one driver: a gate
	// output, an element Q pin, or a primary input).
	drv := map[string]bool{}
	setDrv := func(net string) error {
		if drv[net] {
			return fmt.Errorf("netex: net %q has multiple drivers", net)
		}
		drv[net] = true
		return nil
	}
	for _, g := range n.Gates {
		if err := setDrv(g.Output); err != nil {
			return nil, nil, err
		}
	}
	for _, e := range n.Elements {
		if e.Q == "" || e.D == "" {
			return nil, nil, fmt.Errorf("netex: element %q missing D or Q net", e.Name)
		}
		if err := setDrv(e.Q); err != nil {
			return nil, nil, err
		}
	}
	for _, in := range n.Inputs {
		if err := setDrv(in); err != nil {
			return nil, nil, err
		}
	}
	// Every gate input and element D must be driven.
	for _, g := range n.Gates {
		for _, in := range g.Inputs {
			if _, ok := drv[in]; !ok {
				return nil, nil, fmt.Errorf("netex: net %q (input of gate %s) is undriven", in, g.Name)
			}
		}
	}
	for _, e := range n.Elements {
		if _, ok := drv[e.D]; !ok {
			return nil, nil, fmt.Errorf("netex: net %q (D of element %s) is undriven", e.D, e.Name)
		}
	}
	for _, out := range n.Outputs {
		if _, ok := drv[out]; !ok {
			return nil, nil, fmt.Errorf("netex: primary output %q is undriven", out)
		}
	}

	// Topological order of gates; combinational cycles (not broken by
	// an element) are errors.
	order, err := n.topoGates()
	if err != nil {
		return nil, nil, err
	}

	// Fanout loads per net for the delay model.
	fanPins := map[string]int{}
	fanCap := map[string]float64{}
	for _, g := range n.Gates {
		for _, in := range g.Inputs {
			fanPins[in]++
			fanCap[in] += g.InCap
		}
	}
	for _, e := range n.Elements {
		fanPins[e.D]++
	}
	for _, out := range n.Outputs {
		fanPins[out]++
	}

	// Build the circuit skeleton.
	c := core.NewCircuit(n.K)
	info := &Info{SyncIndex: map[string]int{}}
	for _, e := range n.Elements {
		idx := c.AddSync(core.Synchronizer{
			Name: e.Name, Phase: e.Phase, Kind: e.Kind,
			Setup: e.Setup, DQ: e.DQ, Hold: e.Hold,
		})
		info.SyncIndex[e.Name] = idx
	}
	if io.ModelIO {
		for _, in := range n.Inputs {
			idx := c.AddSync(core.Synchronizer{
				Name: "in:" + in, Phase: io.InputPhase, Kind: core.FlipFlop,
				Setup: 0, DQ: io.InputCQ,
			})
			info.SyncIndex["in:"+in] = idx
		}
		for _, out := range n.Outputs {
			dq := io.OutputDQ
			if dq < io.OutputSetup {
				dq = io.OutputSetup // respect the latch ΔDQ >= ΔDC assumption
			}
			idx := c.AddSync(core.Synchronizer{
				Name: "out:" + out, Phase: io.OutputPhase, Kind: core.Latch,
				Setup: io.OutputSetup, DQ: dq,
			})
			info.SyncIndex["out:"+out] = idx
		}
	}

	// For every launch point (element Q, modeled input), propagate
	// max/min arrivals forward through the gate DAG and record hits on
	// capture points (element D, modeled output).
	type launch struct {
		sync int
		net  string
	}
	var launches []launch
	for _, e := range n.Elements {
		launches = append(launches, launch{sync: info.SyncIndex[e.Name], net: e.Q})
	}
	if io.ModelIO {
		for _, in := range n.Inputs {
			launches = append(launches, launch{sync: info.SyncIndex["in:"+in], net: in})
		}
	}
	captures := map[string][]int{} // net -> capturing sync indices
	for _, e := range n.Elements {
		captures[e.D] = append(captures[e.D], info.SyncIndex[e.Name])
	}
	if io.ModelIO {
		for _, out := range n.Outputs {
			captures[out] = append(captures[out], info.SyncIndex["out:"+out])
		}
	}

	maxArr := map[string]float64{}
	minArr := map[string]float64{}
	depth := map[string]int{}
	for _, l := range launches {
		clearMaps(maxArr, minArr, depth)
		maxArr[l.net], minArr[l.net], depth[l.net] = 0, 0, 0
		for _, gi := range order {
			g := n.Gates[gi]
			worst, best := math.Inf(-1), math.Inf(1)
			dth := 0
			reached := false
			for _, in := range g.Inputs {
				if a, ok := maxArr[in]; ok {
					reached = true
					if a > worst {
						worst = a
					}
					if b := minArr[in]; b < best {
						best = b
					}
					if d := depth[in]; d >= dth {
						dth = d
					}
				}
			}
			if !reached {
				continue
			}
			load := fanCap[g.Output] + n.WireCap[g.Output]
			gd := m.GateDelay(g, load, fanPins[g.Output])
			maxArr[g.Output] = worst + gd
			minArr[g.Output] = best + gd
			depth[g.Output] = dth + 1
		}
		// Record paths into capture points.
		for net, syncs := range captures {
			a, ok := maxArr[net]
			if !ok {
				continue
			}
			for _, to := range syncs {
				c.AddPathFull(core.Path{
					From: l.sync, To: to,
					Delay: a, MinDelay: minArr[net],
					Label: fmt.Sprintf("%s->%s", c.SyncName(l.sync), c.SyncName(to)),
				})
				info.Stages++
				if d := depth[net]; d > info.MaxDepth {
					info.MaxDepth = d
				}
			}
		}
	}

	if err := c.Validate(); err != nil {
		return nil, nil, fmt.Errorf("netex: extracted circuit invalid: %w", err)
	}
	return c, info, nil
}

// topoGates orders the gates topologically, treating elements as
// sequential boundaries (their D→Q is not a combinational edge).
// A cycle through gates only is a combinational loop and an error.
func (n *Netlist) topoGates() ([]int, error) {
	gateOf := map[string]int{} // net -> driving gate
	for gi, g := range n.Gates {
		gateOf[g.Output] = gi
	}
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
			return fmt.Errorf("netex: combinational cycle through gate %q (feedback must pass through a latch)", n.Gates[gi].Name)
		case black:
			return nil
		}
		color[gi] = gray
		for _, in := range n.Gates[gi].Inputs {
			if d, ok := gateOf[in]; ok {
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
	return order, nil
}

func clearMaps(a, b map[string]float64, d map[string]int) {
	for k := range a {
		delete(a, k)
	}
	for k := range b {
		delete(b, k)
	}
	for k := range d {
		delete(d, k)
	}
}
