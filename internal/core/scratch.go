package core

import (
	"cmp"
	"slices"
	"sync"

	"mintc/internal/graph"
)

// slideScratch is the per-solve working state of the MLP departure
// slide and the least-fixpoint propagation: the k×k schedule shift
// table, the Jacobi double buffer, the event-driven worklist (ring
// buffer plus membership flags) and the fixpoint's predecessor arcs.
// Instances are recycled through the kernel's shared pool
// (kernelShared), so repeated solves over one frozen snapshot
// allocate nothing here at steady state. Every buffer is
// either fully overwritten before use (shift, next, queue, pred) or
// returned in a cleared state, so a recycled scratch is
// indistinguishable from a fresh one — slide results stay bit-identical
// either way (enforced by the noscratch differential tests).
type slideScratch struct {
	shift  []float64 // k×k schedule shift table
	next   []float64 // Jacobi double buffer
	inList []bool    // event-driven worklist membership
	queue  []int32   // event-driven worklist ring buffer
	pred   []int32   // least fixpoint: arc that last raised each departure, -1 for none
}

// kernelShared is the mutable state shared by a compiled kernel and
// every overlay-derived copy of it: the scratch pool (all derived
// kernels see the same circuit, so scratch sizes match), the lazily
// built structural fanout CSR used by the event-driven slide, and the
// order the least-fixpoint propagation visits components and arcs in.
// It lives behind a pointer so Kernel values stay copyable (withOverlay
// copies the struct) without duplicating locks.
type kernelShared struct {
	slides sync.Pool // of *slideScratch

	fanOnce  sync.Once
	fanStart []int32 // CSR offsets: fanout of sync i is fanTo[fanStart[i]:fanStart[i+1]]
	fanTo    []int32

	orderOnce sync.Once
	members   []int32 // synchronizers grouped by SCC, sinks first, each group ascending
	compStart []int32 // component ci's synchronizers are members[compStart[ci]:compStart[ci+1]]
	cyclic    []bool  // component ci carries at least one intra-component path
	bySrc     []int32 // fanin arcs of each synchronizer by ascending source
}

// fanoutCSR returns the structural fanout adjacency of the kernel's
// circuit in CSR form, built once per kernelShared. Arcs appear in
// path-index order within each source — the same order the event-driven
// slide's per-source append loop used to produce — so worklist
// traversal order (and therefore bit-identical results) is preserved.
func (kn *Kernel) fanoutCSR() (start, to []int32) {
	sh := kn.shared
	sh.fanOnce.Do(func() {
		l := kn.L()
		paths := kn.c.Paths()
		s := make([]int32, l+1)
		for _, p := range paths {
			s[p.From+1]++
		}
		for i := 0; i < l; i++ {
			s[i+1] += s[i]
		}
		t := make([]int32, len(paths))
		pos := make([]int32, l)
		for _, p := range paths {
			t[s[p.From]+pos[p.From]] = int32(p.To)
			pos[p.From]++
		}
		sh.fanStart, sh.fanTo = s, t
	})
	return sh.fanStart, sh.fanTo
}

// fixpointOrder returns the visiting order of the least-fixpoint
// propagation, built once per kernelShared. The latch graph's strongly
// connected components come from graph.SCCCSR over fanoutCSR, which
// has newPartition's layout, so they are the snapshot Partition's
// components in its order: component ci's synchronizers are
// members[compStart[ci]:compStart[ci+1]], ascending, and components
// come sinks first, so a propagation visits them from the last to the
// first. cyclic[ci] marks a component with an intra-component path
// (two or more members, or a self-loop): only those need iterating.
// bySrc permutes each synchronizer's fanin arcs into ascending source
// order (parallel arcs keep their CSR order): arc bySrc[x], for x in
// [Start[i], Start[i+1]), is i's x−Start[i]'th fanin by source.
func (kn *Kernel) fixpointOrder() (members, compStart []int32, cyclic []bool, bySrc []int32) {
	sh := kn.shared
	sh.orderOnce.Do(func() {
		fanStart, fanTo := kn.fanoutCSR()
		var comp []int32
		comp, sh.members, sh.compStart = graph.SCCCSR(fanStart, fanTo)
		sh.cyclic = make([]bool, len(sh.compStart)-1)
		for v, ci := range comp {
			for _, t := range fanTo[fanStart[v]:fanStart[v+1]] {
				if comp[t] == ci {
					sh.cyclic[ci] = true
				}
			}
		}
		sh.bySrc = make([]int32, len(kn.Src))
		for a := range sh.bySrc {
			sh.bySrc[a] = int32(a)
		}
		for i := 0; i < kn.L(); i++ {
			slices.SortStableFunc(sh.bySrc[kn.Start[i]:kn.Start[i+1]], func(x, y int32) int {
				return cmp.Compare(kn.Src[x], kn.Src[y])
			})
		}
	})
	return sh.members, sh.compStart, sh.cyclic, sh.bySrc
}
