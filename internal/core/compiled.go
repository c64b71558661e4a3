package core

import (
	"fmt"
	"sync"
)

// Compiled is a frozen, immutable snapshot of a circuit: the analysis
// form of the three-stage model pipeline
//
//	builder (*Circuit, mutable) → Freeze → *Compiled (immutable)
//	    → DelayOverlay (cheap copy-on-write what-if edits)
//
// Freeze validates once and caches every derived artifact the solvers
// would otherwise recompute per call — the phase-ordering matrix C, the
// I/O phase-pair matrix K, the maximum fanin F and the simulation phase
// order at Freeze; the SCC partition, the compiled Kernel (the CSR
// fanin arc array with pre-folded weights, one per distinct margin
// set) and the design LP's template (one per options shape, see
// lpTemplate) on first use. After Freeze nothing
// reachable from the Compiled is ever mutated again, so any number of
// goroutines may run MinTcOverlay, CheckTcOverlay, simulations and
// engine solves against one shared snapshot with no cloning and no
// locking: what-if delay edits go through DelayOverlay values that
// layer over the snapshot instead of touching it.
//
// The immutability contract: every exported method of Compiled (and of
// everything obtained from it — kernels via KernelFor, overlays via
// Overlay, the circuit view via Circuit) is safe for concurrent use
// and never writes to shared state. Kernels handed out by KernelFor
// have no mutating methods, and they and the returned matrix/order
// slices are shared and must be treated as read-only. compiled_test.go guards the contract by freezing,
// solving, and asserting the snapshot's paths, matrices and kernel arc
// weights are bit-identical afterwards.
type Compiled struct {
	c *Circuit // private deep copy taken at Freeze; never mutated

	cmat       [][]int
	kmat       [][]int
	maxFanin   int
	phaseOrder []int

	// part is the latch-graph SCC partition, computed on first use by
	// Partition: only the decomposed solver reads it.
	partOnce sync.Once
	part     *Partition

	// kernels caches one frozen Kernel per distinct margin set
	// (Skew/PhaseSkew are folded into the arc weights; no other option
	// affects the kernel). Guarded by mu; entries are compared exactly,
	// so a cached kernel is only reused for margins that produce
	// bit-identical weights.
	mu      sync.Mutex
	kernels []kernelEntry
	// lps caches one design-LP template per options shape (see
	// lpTemplate), also guarded by mu; each entry builds once.
	lps []*lpTemplate
}

type kernelEntry struct {
	skew      float64
	phaseSkew []float64
	kn        *Kernel
}

// Freeze validates the circuit once and returns its immutable compiled
// snapshot. The builder circuit is deep-copied, so the caller may keep
// mutating it (or drop it) without affecting the snapshot; freeze again
// to capture new structure.
func (c *Circuit) Freeze() (*Compiled, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cc := &Compiled{
		c:        c.Clone(),
		maxFanin: c.MaxFanin(),
	}
	cc.cmat = cc.c.CMatrix()
	cc.kmat = cc.c.KMatrix()
	cc.phaseOrder = phaseOrder(cc.c)
	return cc, nil
}

// phaseOrder lists the synchronizers stably sorted by phase, with one
// counting sort over the k phases.
func phaseOrder(c *Circuit) []int {
	start := make([]int, c.K()+1)
	for _, s := range c.syncs {
		start[s.Phase+1]++
	}
	for p := 1; p < len(start); p++ {
		start[p] += start[p-1]
	}
	order := make([]int, len(c.syncs))
	for i, s := range c.syncs {
		order[start[s.Phase]] = i
		start[s.Phase]++
	}
	return order
}

// MustFreeze is Freeze for circuits known valid (panics otherwise);
// convenient in tests and generators.
func (c *Circuit) MustFreeze() *Compiled {
	cc, err := c.Freeze()
	if err != nil {
		panic(err)
	}
	return cc
}

// K returns the number of clock phases.
func (cc *Compiled) K() int { return cc.c.K() }

// L returns the number of synchronizers.
func (cc *Compiled) L() int { return cc.c.L() }

// Circuit returns the snapshot's circuit view. The returned circuit is
// shared: it must be treated as read-only (rendering, reporting and
// read-only analyses are fine; calling its mutating methods violates
// the freeze contract). To change structure, build a new circuit and
// freeze again; to change delays, use an overlay.
func (cc *Compiled) Circuit() *Circuit { return cc.c }

// CMatrix returns the cached k×k phase-ordering matrix C (shared;
// read-only).
func (cc *Compiled) CMatrix() [][]int { return cc.cmat }

// KMatrix returns the cached k×k I/O phase-pair matrix K (shared;
// read-only).
func (cc *Compiled) KMatrix() [][]int { return cc.kmat }

// MaxFanin returns the cached maximum fanin F.
func (cc *Compiled) MaxFanin() int { return cc.maxFanin }

// PhaseOrder returns the cached synchronizer evaluation order (indices
// stably sorted by phase), the order the wavefront simulators use to
// resolve same-cycle dependencies in one pass. Shared; read-only.
func (cc *Compiled) PhaseOrder() []int { return cc.phaseOrder }

// KernelFor returns the snapshot's compiled kernel for the given
// margin options, compiling it at most once per distinct
// (Skew, PhaseSkew) pair. The kernel is shared and read-only:
// evaluation (Arrive, Depart, ArriveAll) is safe from any goroutine,
// and delay edits derive a private kernel through a DelayOverlay.
func (cc *Compiled) KernelFor(opts Options) *Kernel {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, e := range cc.kernels {
		if e.skew == opts.Skew && floatsEqual(e.phaseSkew, opts.PhaseSkew) {
			return e.kn
		}
	}
	kn := CompileKernel(cc.c, opts)
	var ps []float64
	if opts.PhaseSkew != nil {
		ps = append([]float64(nil), opts.PhaseSkew...)
	}
	cc.kernels = append(cc.kernels, kernelEntry{skew: opts.Skew, phaseSkew: ps, kn: kn})
	return kn
}

// Overlay returns the empty overlay over this snapshot: the starting
// point for what-if delay edits (Overlay().With(path, delay)...).
func (cc *Compiled) Overlay() DelayOverlay { return DelayOverlay{base: cc} }

// SyncName returns a printable name for synchronizer i.
func (cc *Compiled) SyncName(i int) string { return cc.c.SyncName(i) }

// String summarizes the snapshot.
func (cc *Compiled) String() string {
	return fmt.Sprintf("compiled circuit: %d phases, %d synchronizers, %d paths (max fanin %d)",
		cc.K(), cc.L(), len(cc.c.Paths()), cc.maxFanin)
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
