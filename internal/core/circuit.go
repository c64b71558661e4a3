// Package core implements the SMO timing model of Sakallah, Mudge and
// Olukotun: timing constraints for synchronous circuits built from
// level-sensitive latches under an arbitrary k-phase clock, the
// equivalence of the nonlinear optimal-cycle-time problem P1 with its
// linear relaxation P2 (Theorem 1), and Algorithm MLP which recovers
// the optimal P1 solution from the LP optimum by iterating the latch
// propagation operator.
//
// Terminology follows the paper's nomenclature: phases φ_i with start
// s_i and width T_i inside a common cycle Tc; latches i with arrival
// A_i, departure D_i, output departure Q_i, setup Δ_DCi and latch delay
// Δ_DQi; combinational delays Δ_ji from latch j to latch i; the
// phase-ordering matrix C, the I/O phase-pair matrix K and the
// phase-shift operator S_ij = s_i − s_j − C_ij·Tc.
package core

import (
	"fmt"
	"math"
	"slices"
)

// ElementKind distinguishes the two synchronizer types supported.
type ElementKind int

const (
	// Latch is a level-sensitive D latch, transparent during the
	// active interval of its clock phase. This is the element the
	// paper's model is about.
	Latch ElementKind = iota
	// FlipFlop is a positive-edge-triggered D flip-flop that captures
	// and launches at the start s_p of its phase. The paper's third
	// example (the GaAs MIPS datapath) mixes latches and flip-flops;
	// an FF is modeled by pinning its departure time to zero and
	// requiring arrivals to meet setup before the triggering edge.
	FlipFlop
)

// String names the element kind.
func (k ElementKind) String() string {
	switch k {
	case Latch:
		return "latch"
	case FlipFlop:
		return "ff"
	}
	return fmt.Sprintf("ElementKind(%d)", int(k))
}

// Synchronizer is one clocked storage element (paper: "latch i").
// Times are in nanoseconds.
type Synchronizer struct {
	Name  string
	Phase int // 0-based index of the controlling phase p_i
	Kind  ElementKind
	// Setup is Δ_DCi: the data-to-closing-edge setup time (for a
	// flip-flop, data-to-triggering-edge).
	Setup float64
	// DQ is Δ_DQi: the data-to-output propagation delay while enabled
	// (for a flip-flop, the clock-to-output delay). The paper assumes
	// DQ >= Setup for latches.
	DQ float64
	// Hold is the optional hold requirement after the closing edge
	// (triggering edge for FFs). Zero disables the check. Hold
	// analysis is an extension beyond the paper (see DESIGN.md §4).
	Hold float64
}

// Path is a combinational connection from synchronizer From to
// synchronizer To with worst-case propagation delay Delay (Δ_{From,To}).
// MinDelay is the optional best-case delay used only by the hold-time
// extension; it defaults to Delay when negative.
type Path struct {
	From, To int
	Delay    float64
	MinDelay float64
	// Label optionally names the combinational block (used in reports
	// and timing diagrams, e.g. "La(20)" in the paper's Fig. 6).
	Label string
}

// Circuit is a synchronous circuit decomposed into clocked
// combinational stages: a k-phase clock, l synchronizers, and the
// combinational paths between them. Build one with NewCircuit and the
// Add* methods, then Validate before analysis.
type Circuit struct {
	phaseNames []string
	syncs      []Synchronizer
	paths      []Path
	// fanin[i] lists indices into paths of the paths ending at i.
	fanin [][]int
	// Meta carries optional free-form information about the circuit
	// (e.g. transistor counts for the GaAs datapath blocks); it is
	// ignored by the solvers.
	Meta map[string]string
}

// NewCircuit returns a circuit clocked by k phases named φ1..φk.
func NewCircuit(k int) *Circuit {
	if k < 1 {
		panic(fmt.Sprintf("core: clock must have at least one phase, got %d", k))
	}
	c := &Circuit{}
	for i := 0; i < k; i++ {
		c.phaseNames = append(c.phaseNames, fmt.Sprintf("phi%d", i+1))
	}
	return c
}

// K returns the number of clock phases.
func (c *Circuit) K() int { return len(c.phaseNames) }

// L returns the number of synchronizers (paper: l).
func (c *Circuit) L() int { return len(c.syncs) }

// PhaseName returns the display name of phase p (0-based).
func (c *Circuit) PhaseName(p int) string { return c.phaseNames[p] }

// SetPhaseName overrides the display name of phase p.
func (c *Circuit) SetPhaseName(p int, name string) { c.phaseNames[p] = name }

// Sync returns synchronizer i.
func (c *Circuit) Sync(i int) Synchronizer { return c.syncs[i] }

// Syncs returns all synchronizers; the slice must not be modified.
func (c *Circuit) Syncs() []Synchronizer { return c.syncs }

// Paths returns all combinational paths; the slice must not be modified.
func (c *Circuit) Paths() []Path { return c.paths }

// Fanin returns the indices (into Paths) of the paths ending at
// synchronizer i.
func (c *Circuit) Fanin(i int) []int { return c.fanin[i] }

// AddLatch adds a level-sensitive latch on phase (0-based) and returns
// its index.
func (c *Circuit) AddLatch(name string, phase int, setup, dq float64) int {
	return c.addSync(Synchronizer{Name: name, Phase: phase, Kind: Latch, Setup: setup, DQ: dq})
}

// AddFF adds a positive-edge-triggered flip-flop on phase (0-based) and
// returns its index.
func (c *Circuit) AddFF(name string, phase int, setup, cq float64) int {
	return c.addSync(Synchronizer{Name: name, Phase: phase, Kind: FlipFlop, Setup: setup, DQ: cq})
}

// AddSync adds a fully specified synchronizer and returns its index.
func (c *Circuit) AddSync(s Synchronizer) int { return c.addSync(s) }

func (c *Circuit) addSync(s Synchronizer) int {
	if s.Phase < 0 || s.Phase >= c.K() {
		panic(fmt.Sprintf("core: synchronizer %q uses phase %d outside [0,%d)", s.Name, s.Phase, c.K()))
	}
	c.syncs = append(c.syncs, s)
	c.fanin = append(c.fanin, nil)
	return len(c.syncs) - 1
}

// Build returns a k-phase circuit holding syncs and paths: the bulk
// form of NewCircuit followed by AddSync for every synchronizer and
// AddPathFull for every path, in order, with the same checks, the same
// MinDelay normalization and the same fanin order. Build takes
// ownership of both slices. The fanin lists share one backing array
// (CSR); each row is capped at its own end, so a later AddPathFull
// reallocates that row instead of writing into the next one.
func Build(k int, syncs []Synchronizer, paths []Path) *Circuit {
	c := NewCircuit(k)
	for _, s := range syncs {
		if s.Phase < 0 || s.Phase >= k {
			panic(fmt.Sprintf("core: synchronizer %q uses phase %d outside [0,%d)", s.Name, s.Phase, k))
		}
	}
	l := len(syncs)
	// end[i] first counts the paths into i-1, then holds where row i
	// starts, and after the fill where row i ends.
	end := make([]int, l+1)
	for i := range paths {
		p := &paths[i]
		if p.From < 0 || p.From >= l || p.To < 0 || p.To >= l {
			panic(fmt.Sprintf("core: path %d->%d references unknown synchronizer (l=%d)", p.From, p.To, l))
		}
		if p.MinDelay < 0 {
			p.MinDelay = p.Delay
		}
		end[p.To+1]++
	}
	for i := 1; i <= l; i++ {
		end[i] += end[i-1]
	}
	buf := make([]int, len(paths))
	for pi, p := range paths {
		buf[end[p.To]] = pi
		end[p.To]++
	}
	c.fanin = make([][]int, l)
	lo := 0
	for i, hi := range end[:l] {
		if hi > lo {
			c.fanin[i] = buf[lo:hi:hi]
		}
		lo = hi
	}
	c.syncs, c.paths = syncs, paths
	return c
}

// AddPath adds a combinational path from synchronizer from to
// synchronizer to with worst-case delay d, and returns its index.
func (c *Circuit) AddPath(from, to int, d float64) int {
	return c.AddPathFull(Path{From: from, To: to, Delay: d, MinDelay: -1})
}

// AddPathFull adds a fully specified path and returns its index.
// A negative MinDelay is normalized to Delay.
func (c *Circuit) AddPathFull(p Path) int {
	if p.From < 0 || p.From >= c.L() || p.To < 0 || p.To >= c.L() {
		panic(fmt.Sprintf("core: path %d->%d references unknown synchronizer (l=%d)", p.From, p.To, c.L()))
	}
	if p.MinDelay < 0 {
		p.MinDelay = p.Delay
	}
	c.paths = append(c.paths, p)
	c.fanin[p.To] = append(c.fanin[p.To], len(c.paths)-1)
	return len(c.paths) - 1
}

// Clone returns a deep copy of the circuit. Circuits are mutable
// builders (SetPathDelay) and not safe for concurrent mutation; Clone
// is for forking a builder mid-construction. For concurrent analysis,
// do not clone per goroutine — Freeze the circuit once and share the
// immutable *Compiled snapshot, layering what-if edits as DelayOverlay
// values (see Freeze and DESIGN.md §9).
func (c *Circuit) Clone() *Circuit {
	out := Build(c.K(), slices.Clone(c.syncs), slices.Clone(c.paths))
	copy(out.phaseNames, c.phaseNames)
	if c.Meta != nil {
		out.Meta = make(map[string]string, len(c.Meta))
		for k, v := range c.Meta {
			out.Meta[k] = v
		}
	}
	return out
}

// SetPathDelay changes the worst-case delay of path i (used by
// parametric analysis to sweep a delay). MinDelay is clamped to the new
// delay when it would exceed it.
func (c *Circuit) SetPathDelay(i int, d float64) {
	if i < 0 || i >= len(c.paths) {
		panic(fmt.Sprintf("core: SetPathDelay index %d out of range [0,%d)", i, len(c.paths)))
	}
	c.paths[i].Delay = d
	if c.paths[i].MinDelay > d {
		c.paths[i].MinDelay = d
	}
}

// CMatrix returns the paper's k×k phase-ordering matrix C, with
// C_ij = 0 when i < j and 1 when i >= j (0-based indices keep the same
// relative order as the paper's 1-based ones).
func (c *Circuit) CMatrix() [][]int {
	k := c.K()
	m := make([][]int, k)
	for i := 0; i < k; i++ {
		m[i] = make([]int, k)
		for j := 0; j < k; j++ {
			if i >= j {
				m[i][j] = 1
			}
		}
	}
	return m
}

// KMatrix returns the paper's k×k I/O phase-pair matrix K, where
// K_ij = 1 iff some combinational block has an input latch on phase i
// and an output latch on phase j (i.e. some path goes from a
// synchronizer on phase i to one on phase j).
func (c *Circuit) KMatrix() [][]int {
	k := c.K()
	m := make([][]int, k)
	for i := range m {
		m[i] = make([]int, k)
	}
	for _, p := range c.paths {
		pi := c.syncs[p.From].Phase
		pj := c.syncs[p.To].Phase
		m[pi][pj] = 1
	}
	return m
}

// MaxFanin returns F, the maximum number of combinational paths ending
// at any synchronizer (used by the paper's 4k+(F+1)l constraint-count
// bound).
func (c *Circuit) MaxFanin() int {
	f := 0
	for _, in := range c.fanin {
		if len(in) > f {
			f = len(in)
		}
	}
	return f
}

// Validate checks the structural assumptions of the model:
//   - at least one synchronizer;
//   - every latch satisfies the paper's Δ_DQ >= Δ_DC assumption;
//   - delays and setup/hold values are finite and nonnegative;
//   - MinDelay <= Delay on every path.
//
// It returns the first problem found.
func (c *Circuit) Validate() error {
	if c.K() < 1 {
		return fmt.Errorf("core: clock must have at least one phase, got %d", c.K())
	}
	if c.L() == 0 {
		return fmt.Errorf("core: circuit has no synchronizers")
	}
	for i, s := range c.syncs {
		if s.Setup < 0 || math.IsNaN(s.Setup) || math.IsInf(s.Setup, 0) {
			return fmt.Errorf("core: synchronizer %d (%s) has invalid setup %g", i, s.Name, s.Setup)
		}
		if s.DQ < 0 || math.IsNaN(s.DQ) || math.IsInf(s.DQ, 0) {
			return fmt.Errorf("core: synchronizer %d (%s) has invalid DQ %g", i, s.Name, s.DQ)
		}
		if s.Hold < 0 || math.IsNaN(s.Hold) || math.IsInf(s.Hold, 0) {
			return fmt.Errorf("core: synchronizer %d (%s) has invalid hold %g", i, s.Name, s.Hold)
		}
		if s.Kind == Latch && s.DQ < s.Setup {
			return fmt.Errorf("core: latch %d (%s) violates the model assumption ΔDQ >= ΔDC (%g < %g)",
				i, s.Name, s.DQ, s.Setup)
		}
	}
	for pi, p := range c.paths {
		if p.Delay < 0 || math.IsNaN(p.Delay) || math.IsInf(p.Delay, 0) {
			return fmt.Errorf("core: path %d (%d->%d) has invalid delay %g", pi, p.From, p.To, p.Delay)
		}
		if p.MinDelay > p.Delay {
			return fmt.Errorf("core: path %d (%d->%d) has MinDelay %g > Delay %g", pi, p.From, p.To, p.MinDelay, p.Delay)
		}
	}
	return nil
}

// SyncName returns a printable name for synchronizer i, falling back to
// "L<i+1>" when unnamed.
func (c *Circuit) SyncName(i int) string {
	if n := c.syncs[i].Name; n != "" {
		return n
	}
	return fmt.Sprintf("L%d", i+1)
}
