package core

import (
	"math"

	"mintc/internal/graph"
)

// Partition is the latch-graph SCC decomposition of a frozen circuit,
// computed once at Freeze time: synchronizers are nodes, combinational
// paths are directed arcs, and Tarjan's algorithm condenses the graph
// into strongly connected components. The decomposed solvers
// (internal/decomp) use it to split the constraint system into
// per-component subproblems — every cycle of the latch graph lies
// inside exactly one component, so each component's subsystem optimum
// is a sound lower bound on the circuit's Tc and a single delay edit
// can only move the subsystem answer of the component containing the
// edited arc (cross-component arcs affect only the global coupling
// phase).
//
// Components are in reverse topological order of the condensation (a
// component appears before every component that can reach it), the
// order Tarjan emits. All returned slices are shared and read-only,
// like every other Compiled accessor.
type Partition struct {
	comps    [][]int32 // members per component, sorted ascending
	comp     []int32   // synchronizer -> component
	pathComp []int32   // path -> component, or -1 for a cross-component arc
	dag      [][]int32 // condensation adjacency (distinct successors, ascending)
	cyclic   []bool    // component contains at least one intra-component path
	cross    []int32   // indices of cross-component paths, ascending
}

// newPartition condenses the latch graph of c.
func newPartition(c *Circuit) *Partition {
	l := c.L()
	g := graph.New(l)
	for _, p := range c.Paths() {
		g.AddEdge(p.From, p.To, 0)
	}
	components, comp, dag := g.Condense()
	pt := &Partition{
		comps:  make([][]int32, len(components)),
		comp:   make([]int32, l),
		dag:    make([][]int32, len(dag)),
		cyclic: make([]bool, len(components)),
	}
	for ci, members := range components {
		ms := make([]int32, len(members))
		for i, v := range members {
			ms[i] = int32(v)
		}
		pt.comps[ci] = ms
	}
	for v, ci := range comp {
		pt.comp[v] = int32(ci)
	}
	for ci, succs := range dag {
		ds := make([]int32, len(succs))
		for i, d := range succs {
			ds[i] = int32(d)
		}
		pt.dag[ci] = ds
	}
	pt.pathComp = make([]int32, len(c.Paths()))
	for pidx, p := range c.Paths() {
		if comp[p.From] == comp[p.To] {
			ci := comp[p.From]
			pt.pathComp[pidx] = int32(ci)
			pt.cyclic[ci] = true
		} else {
			pt.pathComp[pidx] = -1
			pt.cross = append(pt.cross, int32(pidx))
		}
	}
	return pt
}

// NumComponents returns the number of strongly connected components of
// the latch graph.
func (pt *Partition) NumComponents() int { return len(pt.comps) }

// Members returns the synchronizer indices of component ci, sorted
// ascending. Shared; read-only.
func (pt *Partition) Members(ci int) []int32 { return pt.comps[ci] }

// CompOf returns the component of synchronizer i.
func (pt *Partition) CompOf(i int) int { return int(pt.comp[i]) }

// PathComp returns the component containing path pidx, or -1 when the
// path is a cross-component arc (its endpoints lie in different
// components).
func (pt *Partition) PathComp(pidx int) int { return int(pt.pathComp[pidx]) }

// CrossPaths returns the indices of all cross-component paths,
// ascending. Shared; read-only.
func (pt *Partition) CrossPaths() []int32 { return pt.cross }

// Cyclic reports whether component ci contains at least one
// intra-component path (every multi-synchronizer component does; a
// singleton is cyclic only via a self-loop path).
func (pt *Partition) Cyclic(ci int) bool { return pt.cyclic[ci] }

// Trivial reports whether component ci is a single synchronizer with
// no self-loop path — the shape the decomposed solver answers with a
// closed-form bound instead of an LP or a probe.
func (pt *Partition) Trivial(ci int) bool {
	return len(pt.comps[ci]) == 1 && !pt.cyclic[ci]
}

// Successors returns the condensation-DAG successors of component ci
// (distinct, ascending; always numerically smaller than ci because
// components are in reverse topological order). Shared; read-only.
func (pt *Partition) Successors(ci int) []int32 { return pt.dag[ci] }

// Partition returns the snapshot's latch-graph SCC decomposition,
// computed on the first call (from any goroutine). Shared; read-only.
func (cc *Compiled) Partition() *Partition {
	cc.partOnce.Do(func() { cc.part = newPartition(cc.c) })
	return cc.part
}

// TrivialComponentBound is the closed-form subsystem bound of a
// trivial component (Partition.Trivial): with no intra-component arc,
// the tightest member-specific cycle through the constraint graph is
// the latch's own setup loop u_i → e_p → s_p → u_i, of ratio
// Setup + Skew + σ_p — the phase must stay open long enough to admit
// the data that must arrive Setup before it closes. A flip-flop pins
// D = 0 and contributes no member-specific cycle, so its bound is 0.
// Either value is a sound lower bound on the circuit's optimal Tc;
// the purely clock-driven cycles (min-width, C3 separations) the
// closed form ignores are part of every non-trivial component's
// subsystem and of the global coupling phase, which recover them.
func TrivialComponentBound(c *Circuit, opts Options, sync int) float64 {
	s := c.Sync(sync)
	if s.Kind != Latch {
		return 0
	}
	return s.Setup + opts.Skew + opts.sigma(s.Phase)
}

// ValidateFor is Options.Validate plus the circuit-dependent checks
// (per-phase skew vector length) — the full option precondition of
// the solve entry points, exported for solvers layered outside this
// package (internal/decomp).
func (o Options) ValidateFor(c *Circuit) error {
	if err := o.Validate(); err != nil {
		return err
	}
	return o.validatePhaseSkew(c)
}

// DirtyComponents maps the overlay's edited-arc set to the components
// whose subsystems those edits touch: the component of every edited
// intra-component path, ascending and deduplicated. The second result
// reports whether any edited path is a cross-component arc — such an
// edit moves no component subproblem, only the global coupling phase.
// An overlay with no edits returns (nil, false).
func (o DelayOverlay) DirtyComponents() (comps []int, cross bool) {
	if len(o.edits) == 0 {
		return nil, false
	}
	pt := o.base.Partition()
	seen := make(map[int]struct{}, len(o.edits))
	for pidx := range o.edits {
		ci := int(pt.pathComp[pidx])
		if ci < 0 {
			cross = true
			continue
		}
		if _, ok := seen[ci]; !ok {
			seen[ci] = struct{}{}
			comps = append(comps, ci)
		}
	}
	// Insertion sort: edits are few (see Digest).
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && comps[j] < comps[j-1]; j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps, cross
}

// ComponentDigest returns a canonical fingerprint of component ci's
// effective delays under the overlay: FNV-1a over the component id and
// the sorted (path, delay, minDelay) list of edits that touch the
// component's intra-component paths. Two overlays over the same
// snapshot produce equal digests for ci iff the component's subsystem
// sees bit-identical delays, which makes the digest a sound key for
// per-component result caches (decomp.State). The digest of an
// untouched component equals the base component's digest, so cached
// base results are reused across overlays that edit other components.
func (o DelayOverlay) ComponentDigest(ci int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(ci))
	if len(o.edits) == 0 {
		return h
	}
	pt := o.base.Partition()
	var buf [16]int32
	idx := buf[:0]
	for pidx := range o.edits {
		if int(pt.pathComp[pidx]) == ci {
			if len(idx) == cap(idx) {
				idx = append(make([]int32, 0, 2*cap(idx)), idx...)
			}
			idx = append(idx, pidx)
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	for _, pidx := range idx {
		e := o.edits[pidx]
		mix(uint64(pidx))
		mix(math.Float64bits(e.delay))
		mix(math.Float64bits(e.minDelay))
	}
	return h
}
