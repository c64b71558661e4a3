package core

import (
	"math"

	"mintc/internal/graph"
)

// Partition is the latch-graph SCC decomposition of a frozen circuit,
// computed once per snapshot on first use: synchronizers are nodes,
// combinational paths are directed arcs, and Tarjan's algorithm splits
// the graph into strongly connected components. The decomposed solvers
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
	members   []int32 // synchronizers grouped by component, each group ascending
	compStart []int32 // component ci's members are members[compStart[ci]:compStart[ci+1]]
	pathComp  []int32 // path -> component, or -1 for a cross-component arc
	cyclic    []bool  // component contains at least one intra-component path
}

// newPartition runs Tarjan's algorithm (graph.SCCCSR) over the latch
// graph of c, laid out as an out-CSR in path order — the arc order the
// numbering depends on — with every buffer sized up front.
func newPartition(c *Circuit) *Partition {
	l := c.L()
	paths := c.Paths()
	start := make([]int32, l+1)
	for i := range paths {
		start[paths[i].From+1]++
	}
	for v := 0; v < l; v++ {
		start[v+1] += start[v]
	}
	adj := make([]int32, len(paths))
	for i := range paths {
		v := paths[i].From
		adj[start[v]] = int32(paths[i].To)
		start[v]++
	}
	// The fill advanced each row start to the next row's; shift back.
	copy(start[1:], start[:l])
	start[0] = 0
	comp, members, compStart := graph.SCCCSR(start, adj)
	pt := &Partition{
		members:   members,
		compStart: compStart,
		pathComp:  make([]int32, len(paths)),
		cyclic:    make([]bool, len(compStart)-1),
	}
	for pidx := range paths {
		ci := comp[paths[pidx].From]
		if ci == comp[paths[pidx].To] {
			pt.pathComp[pidx] = ci
			pt.cyclic[ci] = true
		} else {
			pt.pathComp[pidx] = -1
		}
	}
	return pt
}

// NumComponents returns the number of strongly connected components of
// the latch graph.
func (pt *Partition) NumComponents() int { return len(pt.compStart) - 1 }

// Members returns the synchronizer indices of component ci, sorted
// ascending. Shared; read-only.
func (pt *Partition) Members(ci int) []int32 {
	lo, hi := pt.compStart[ci], pt.compStart[ci+1]
	return pt.members[lo:hi:hi]
}

// PathComp returns the component containing path pidx, or -1 when the
// path is a cross-component arc (its endpoints lie in different
// components).
func (pt *Partition) PathComp(pidx int) int { return int(pt.pathComp[pidx]) }

// Trivial reports whether component ci is a single synchronizer with
// no self-loop path — the shape the decomposed solver answers with a
// closed-form bound instead of an LP or a probe.
func (pt *Partition) Trivial(ci int) bool {
	return pt.compStart[ci+1]-pt.compStart[ci] == 1 && !pt.cyclic[ci]
}

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
