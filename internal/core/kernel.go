package core

import "math"

// Kernel is the compiled form of a circuit's propagation structure: the
// fanin lists flattened into one CSR-style arc array, with the constant
// part of every arc's transfer weight — ArcWeight, i.e. ΔDQ_j + Δ_ji
// plus the margins of one fixed Options value — pre-folded into a flat
// float64 slice. The hot loops of the MLP departure slide, the CheckTc
// fixpoint and both simulators then evaluate the L2 recurrence as
//
//	A_i = max over arcs a of D[Src[a]] + W[a] + shift[PP[a]]
//
// with zero closure dispatch: plain indexed loads instead of the three
// indirect calls per arc that the reference core.Arrive pays.
//
// A Kernel is read-only once built and valid for one (circuit
// structure, delays, Options) triple:
//
//   - adding synchronizers or paths invalidates it — compile a new one;
//   - delays are read only through a DelayOverlay: what-if edits get a
//     private kernel from DelayOverlay.Kernel, which shares the
//     structure arrays and re-folds the edited arcs' weights;
//   - changing margins (Skew, PhaseSkew) requires another kernel,
//     because they are folded into W (Compiled.KernelFor caches one per
//     margin set);
//   - the clock schedule is NOT baked in: phase shifts vary per
//     schedule, so consumers build a k×k shift table per schedule with
//     ShiftTable and pass it to Arrive/Depart. Absolute-time consumers
//     (the simulators) skip the table entirely.
//
// The closure-based core.Arrive/DepartLatch remain the reference
// implementation; kernel_test.go property-checks the compiled
// evaluation against them bit-for-bit over the benchmark suite and
// random circuits, so the two cannot drift apart.
type Kernel struct {
	// Start is the CSR row index: the arcs ending at synchronizer i are
	// Src/W/…[Start[i]:Start[i+1]]. Arcs appear in Circuit.Fanin order,
	// so maxima are accumulated in the same order as the reference.
	Start []int32
	// Src[a] is the source synchronizer of arc a.
	Src []int32
	// W[a] is the pre-folded worst-case transfer weight of arc a:
	// exactly ArcWeight(c, opts, Path[a]).
	W []float64
	// Base and Span support per-evaluation delay sampling (Monte
	// Carlo): a sampled weight is Base[a] + u·Span[a] for u ∈ [0,1),
	// where Base folds the best-case delay (MinDelay) with the same
	// margins as W and Span = Delay − MinDelay.
	Base []float64
	Span []float64
	// PP[a] indexes the k×k phase-pair shift table: pj·k + pi for an
	// arc from a phase-pj source to a phase-pi destination.
	PP []int32
	// PrevCycle[a] reports whether the source token of arc a pairs with
	// the previous cycle in a wavefront simulation (source phase >=
	// destination phase, the C-matrix convention).
	PrevCycle []bool
	// Path[a] is the index of the original Circuit path behind arc a.
	Path []int32
	// FF[i] reports whether synchronizer i is a flip-flop (departure
	// pinned to the phase start).
	FF []bool

	c    *Circuit
	opts Options
	k    int
	// arcOf[p] is the arc index of circuit path p (arcs are a
	// permutation of paths: every path becomes exactly one arc).
	arcOf []int32
	// shared holds the scratch pool and lazy fanout CSR, common to this
	// kernel and every overlay-derived copy (see kernelShared).
	shared *kernelShared
}

// CompileKernel flattens the circuit under the given margin options.
// The circuit must already be validated (every solver entry point
// does); CompileKernel itself performs no validation so it can sit
// inside hot setup paths.
func CompileKernel(c *Circuit, opts Options) *Kernel {
	l := c.L()
	nArcs := len(c.Paths())
	// Three backing blocks instead of ten slice allocations: compile
	// sits inside per-solve setup (the slide, CheckTc, one call per
	// Monte-Carlo campaign), so its fixed cost must stay trivial next
	// to the loops it feeds.
	ints := make([]int32, (l+1)+4*nArcs)
	floats := make([]float64, 3*nArcs)
	bools := make([]bool, nArcs+l)
	kn := &Kernel{
		Start:     ints[: l+1 : l+1],
		Src:       ints[l+1 : l+1+nArcs : l+1+nArcs],
		PP:        ints[l+1+nArcs : l+1+2*nArcs : l+1+2*nArcs],
		Path:      ints[l+1+2*nArcs : l+1+3*nArcs : l+1+3*nArcs],
		arcOf:     ints[l+1+3*nArcs:],
		W:         floats[:nArcs:nArcs],
		Base:      floats[nArcs : 2*nArcs : 2*nArcs],
		Span:      floats[2*nArcs:],
		PrevCycle: bools[:nArcs:nArcs],
		FF:        bools[nArcs:],
		c:         c,
		opts:      opts,
		k:         c.K(),
		shared:    &kernelShared{},
	}
	a := int32(0)
	for i := 0; i < l; i++ {
		kn.Start[i] = a
		kn.FF[i] = c.Sync(i).Kind == FlipFlop
		pi := c.Sync(i).Phase
		for _, pidx := range c.Fanin(i) {
			p := c.Paths()[pidx]
			pj := c.Sync(p.From).Phase
			kn.Src[a] = int32(p.From)
			kn.W[a] = ArcWeight(c, opts, pidx)
			kn.Base[a] = kn.W[a] - p.Delay + p.MinDelay
			kn.Span[a] = p.Delay - p.MinDelay
			kn.PP[a] = int32(pj*kn.k + pi)
			kn.PrevCycle[a] = pj >= pi
			kn.Path[a] = int32(pidx)
			kn.arcOf[pidx] = a
			a++
		}
	}
	kn.Start[l] = a
	return kn
}

// L returns the number of synchronizers the kernel was compiled for.
func (kn *Kernel) L() int { return len(kn.FF) }

// Circuit returns the circuit this kernel was compiled from.
func (kn *Kernel) Circuit() *Circuit { return kn.c }

// ShiftTable fills (reusing buf when it has capacity) the k×k table of
// phase-shift values for the schedule: table[pj·k+pi] = S_{pj,pi}.
// Rebuild it whenever the schedule changes; the kernel itself stays
// valid.
func (kn *Kernel) ShiftTable(sched *Schedule, buf []float64) []float64 {
	n := kn.k * kn.k
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for pj := 0; pj < kn.k; pj++ {
		for pi := 0; pi < kn.k; pi++ {
			buf[pj*kn.k+pi] = sched.PhaseShift(pj, pi)
		}
	}
	return buf
}

// withOverlay derives a private kernel reflecting an overlay's edits:
// the immutable structure arrays stay shared with the receiver, the
// weight arrays are copied and the edited arcs re-folded exactly as
// compiling a clone mutated by SetPathDelay would compute them (W from
// the new delay, Base/Span from the clamped MinDelay).
func (kn *Kernel) withOverlay(ov DelayOverlay) *Kernel {
	out := *kn // shares Start/Src/PP/Path/PrevCycle/FF/arcOf
	n := len(kn.W)
	floats := make([]float64, 3*n)
	out.W = floats[:n:n]
	out.Base = floats[n : 2*n : 2*n]
	out.Span = floats[2*n:]
	copy(out.W, kn.W)
	copy(out.Base, kn.Base)
	copy(out.Span, kn.Span)
	for pidx, e := range ov.edits {
		a := kn.arcOf[pidx]
		p := kn.c.Paths()[pidx]
		pj, pi := kn.c.Sync(p.From).Phase, kn.c.Sync(p.To).Phase
		w := kn.c.Sync(p.From).DQ + e.delay + kn.opts.Skew + kn.opts.sigma(pj) + kn.opts.sigma(pi)
		out.W[a] = w
		out.Base[a] = w - e.delay + e.minDelay
		out.Span[a] = e.delay - e.minDelay
	}
	return &out
}

// Arrive evaluates the compiled arrival recurrence for synchronizer i
// in schedule-relative time: max over fanin arcs of
// d[Src] + W + shift[PP], -Inf with no fanin. It matches the reference
// core.Arrive(c, i, d-lookup, ArcWeight, sched.PhaseShift)
// bit-for-bit.
func (kn *Kernel) Arrive(i int, d, shift []float64) float64 {
	a := math.Inf(-1)
	for x, end := kn.Start[i], kn.Start[i+1]; x < end; x++ {
		if v := d[kn.Src[x]] + kn.W[x] + shift[kn.PP[x]]; v > a {
			a = v
		}
	}
	return a
}

// Depart evaluates the compiled departure operator for synchronizer i:
// 0 for flip-flops, max(0, Arrive) for latches — the kernel form of
// DepartLatch(c, i, Arrive(...)).
func (kn *Kernel) Depart(i int, d, shift []float64) float64 {
	if kn.FF[i] {
		return 0
	}
	a := kn.Arrive(i, d, shift)
	if a < 0 || math.IsInf(a, -1) {
		return 0
	}
	return a
}

// ArriveAll fills out[i] with the compiled arrival of every
// synchronizer (out must have length L).
func (kn *Kernel) ArriveAll(d, shift, out []float64) {
	for i := range out {
		out[i] = kn.Arrive(i, d, shift)
	}
}
