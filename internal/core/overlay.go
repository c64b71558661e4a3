package core

import (
	"fmt"
	"math"
)

// DelayOverlay is a cheap copy-on-write set of what-if path-delay
// edits layered over a shared *Compiled snapshot. Overlays are values:
// With returns a new overlay and never touches the receiver, the base
// snapshot, or any other overlay, so any number of goroutines can hold
// divergent overlays over one snapshot — the interactive
// "perturb a few delays and re-ask minTc/checkTc" pattern — with no
// cloning and no locks.
//
// An edit follows Circuit.SetPathDelay semantics: the worst-case delay
// is replaced and the best-case MinDelay is clamped down to it when it
// would otherwise exceed the new delay. Editing a path back to its
// base delay removes the edit, so an overlay's Digest depends only on
// its effective difference from the snapshot.
type DelayOverlay struct {
	base *Compiled
	// edits maps path index → effective (delay, minDelay). The map is
	// never mutated after construction; With copies it.
	edits map[int32]delayEdit
}

type delayEdit struct {
	delay, minDelay float64
}

// Valid reports whether the overlay is backed by a snapshot (the zero
// DelayOverlay is not).
func (o DelayOverlay) Valid() bool { return o.base != nil }

// Base returns the snapshot the overlay layers over.
func (o DelayOverlay) Base() *Compiled { return o.base }

// Len returns the number of edited paths.
func (o DelayOverlay) Len() int { return len(o.edits) }

// With returns a new overlay that additionally sets path pidx's
// worst-case delay to d (MinDelay clamped per SetPathDelay semantics).
// The receiver is unchanged. It panics on an out-of-range path index
// or a non-finite/negative delay — the same contract Validate enforces
// for builder circuits, checked here because frozen snapshots are not
// re-validated per solve.
func (o DelayOverlay) With(pidx int, d float64) DelayOverlay {
	if o.base == nil {
		panic("core: With on a zero DelayOverlay (start from Compiled.Overlay)")
	}
	paths := o.base.c.Paths()
	if pidx < 0 || pidx >= len(paths) {
		panic(fmt.Sprintf("core: overlay path index %d out of range [0,%d)", pidx, len(paths)))
	}
	if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		panic(fmt.Sprintf("core: overlay delay %g is invalid (must be finite and nonnegative)", d))
	}
	p := paths[pidx]
	// Sequential SetPathDelay semantics: the clamp composes with any
	// earlier edit to the same path (lowering a delay pins MinDelay
	// down even if a later edit raises the delay again).
	e := delayEdit{delay: d, minDelay: p.MinDelay}
	if prev, ok := o.edits[int32(pidx)]; ok {
		e.minDelay = prev.minDelay
	}
	if e.minDelay > d {
		e.minDelay = d
	}
	out := DelayOverlay{base: o.base}
	noop := e.delay == p.Delay && e.minDelay == p.MinDelay
	if noop {
		if _, had := o.edits[int32(pidx)]; !had {
			return o // nothing changes
		}
	}
	out.edits = make(map[int32]delayEdit, len(o.edits)+1)
	for k, v := range o.edits {
		out.edits[k] = v
	}
	if noop {
		delete(out.edits, int32(pidx))
		if len(out.edits) == 0 {
			out.edits = nil
		}
	} else {
		out.edits[int32(pidx)] = e
	}
	return out
}

// Delay returns the effective worst-case delay of path pidx.
func (o DelayOverlay) Delay(pidx int) float64 {
	if e, ok := o.edits[int32(pidx)]; ok {
		return e.delay
	}
	return o.base.c.Paths()[pidx].Delay
}

// MinDelay returns the effective best-case delay of path pidx.
func (o DelayOverlay) MinDelay(pidx int) float64 {
	if e, ok := o.edits[int32(pidx)]; ok {
		return e.minDelay
	}
	return o.base.c.Paths()[pidx].MinDelay
}

// Path returns the effective view of path pidx (base path with the
// overlay's delays applied).
func (o DelayOverlay) Path(pidx int) Path {
	p := o.base.c.Paths()[pidx]
	if e, ok := o.edits[int32(pidx)]; ok {
		p.Delay, p.MinDelay = e.delay, e.minDelay
	}
	return p
}

// EditedPaths returns the indices of the overlay's effectively edited
// paths in increasing order (nil when the overlay matches its base —
// With removes edits that restore base values, so an empty list is an
// exact "overlay == snapshot" test). Incremental consumers that keep a
// long-lived solver use it to reconcile the solver's delays against an
// overlay: reset paths that left the edit set, apply the ones in it.
func (o DelayOverlay) EditedPaths() []int32 {
	if len(o.edits) == 0 {
		return nil
	}
	idx := make([]int32, 0, len(o.edits))
	for k := range o.edits {
		idx = append(idx, k)
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// Digest returns a canonical 64-bit fingerprint of the overlay's
// effective edits (FNV-1a over the sorted edit list). Two overlays
// over the same snapshot digest equally iff they induce bit-identical
// delays, which makes the digest a sound memoization key — the
// analysis session keys its result cache by it.
func (o DelayOverlay) Digest() uint64 {
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
	if len(o.edits) == 0 {
		return h
	}
	// Sort the edit keys on a stack buffer (insertion sort): overlays
	// hold a handful of edits and Digest sits on the session cache's
	// hot path, where sort.Ints' interface conversion would allocate.
	var buf [16]int32
	idx := buf[:0]
	if len(o.edits) > len(buf) {
		idx = make([]int32, 0, len(o.edits))
	}
	for k := range o.edits {
		idx = append(idx, k)
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

// Kernel returns a propagation kernel reflecting the overlay under the
// given margin options. With no edits this is the snapshot's shared
// frozen kernel (zero-copy; evaluation-only). With edits it is a
// private kernel owned by the caller: the immutable structure arrays
// (Start/Src/PP/Path/…) are shared with the base kernel while the
// weight arrays (W/Base/Span) are copied and re-folded for the edited
// paths — O(arcs) to copy, O(edits) to fold. The result is
// bit-identical to mutating a circuit clone with SetPathDelay and
// calling Refold (overlay_suite_test.go pins this property).
func (o DelayOverlay) Kernel(opts Options) *Kernel {
	base := o.base.KernelFor(opts)
	if len(o.edits) == 0 {
		return base
	}
	kn := base.withOverlay(o)
	return kn
}

// Materialize returns a circuit carrying the overlay's effective
// delays. With no edits it is the snapshot's shared read-only circuit
// view (zero-copy); with edits it is a fresh private clone. This is
// the compatibility bridge for analyses that want a plain *Circuit
// (the LP-free engines take it); overlay-native entry points
// (MinTcOverlay, CheckTcOverlay, the simulators) never materialize.
func (o DelayOverlay) Materialize() *Circuit {
	if len(o.edits) == 0 {
		return o.base.c
	}
	c := o.base.c.Clone()
	for pidx, e := range o.edits {
		c.paths[pidx].Delay = e.delay
		c.paths[pidx].MinDelay = e.minDelay
	}
	return c
}

// delayOf resolves the effective delays of path pidx under an optional
// overlay (nil ov = the circuit's own paths). Internal plumbing shared
// by the LP builder, the hold analysis and the kernel fold, so every
// consumer sees identical values.
func delayOf(c *Circuit, ov *DelayOverlay, pidx int) (delay, minDelay float64) {
	p := c.paths[pidx]
	if ov != nil {
		if e, ok := ov.edits[int32(pidx)]; ok {
			return e.delay, e.minDelay
		}
	}
	return p.Delay, p.MinDelay
}

// arcWeightOv is ArcWeight under an optional overlay: the
// margin-adjusted transfer weight ΔDQ_j + Δ_ji + Skew + σ_{p_j} +
// σ_{p_i} with Δ_ji read through the overlay. Identical to ArcWeight
// when ov is nil or has no edit for the path.
func arcWeightOv(c *Circuit, ov *DelayOverlay, opts Options, pidx int) float64 {
	p := c.paths[pidx]
	d, _ := delayOf(c, ov, pidx)
	pj, pi := c.syncs[p.From].Phase, c.syncs[p.To].Phase
	return c.syncs[p.From].DQ + d + opts.Skew + opts.sigma(pj) + opts.sigma(pi)
}
