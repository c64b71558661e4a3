package core

import (
	"math"
	"testing"
)

// snapshotState captures everything reachable from a Compiled that the
// freeze contract promises never changes.
type snapshotState struct {
	paths    []Path
	cmat     [][]int
	kmat     [][]int
	order    []int
	w, b, sp []float64
}

func captureState(cc *Compiled, opts Options) snapshotState {
	kn := cc.KernelFor(opts)
	return snapshotState{
		paths: append([]Path(nil), cc.Circuit().Paths()...),
		cmat:  copyMatrix(cc.CMatrix()),
		kmat:  copyMatrix(cc.KMatrix()),
		order: append([]int(nil), cc.PhaseOrder()...),
		w:     append([]float64(nil), kn.W...),
		b:     append([]float64(nil), kn.Base...),
		sp:    append([]float64(nil), kn.Span...),
	}
}

func copyMatrix(m [][]int) [][]int {
	out := make([][]int, len(m))
	for i, row := range m {
		out[i] = append([]int(nil), row...)
	}
	return out
}

func (s snapshotState) equal(o snapshotState) bool {
	if len(s.paths) != len(o.paths) {
		return false
	}
	for i := range s.paths {
		if s.paths[i] != o.paths[i] {
			return false
		}
	}
	eqInts := func(a, b []int) bool {
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
	for i := range s.cmat {
		if !eqInts(s.cmat[i], o.cmat[i]) {
			return false
		}
	}
	for i := range s.kmat {
		if !eqInts(s.kmat[i], o.kmat[i]) {
			return false
		}
	}
	return eqInts(s.order, o.order) &&
		floatsEqual(s.w, o.w) && floatsEqual(s.b, o.b) && floatsEqual(s.sp, o.sp)
}

// TestCompiledImmutableUnderAnalysis is the freeze-contract guard: it
// freezes a circuit, drives every snapshot-reachable analysis entry
// point — overlay solves with and without edits, schedule checks,
// sweeps, dual reoptimization, materialization — and asserts the
// snapshot's paths, matrices, phase order and kernel arc weights are
// bit-identical afterwards.
func TestCompiledImmutableUnderAnalysis(t *testing.T) {
	c := example1(50)
	c.paths[1].MinDelay = 5
	cc := c.MustFreeze()
	opts := Options{}
	before := captureState(cc, opts)

	// Mutating the builder after Freeze must not leak in.
	c.SetPathDelay(0, 999)
	c.AddLatch("extra", 0, 1, 1)

	base := cc.Overlay()
	if _, err := MinTcOverlay(base, opts); err != nil {
		t.Fatal(err)
	}
	edited := base.With(3, 120).With(1, 2) // second edit clamps MinDelay 5 → 2
	r, err := MinTcOverlay(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckTcOverlay(edited, r.Schedule, opts); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.TryReoptimizeDual(3, 125); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{10, 60, 110} {
		if _, err := MinTcOverlay(base.With(3, v), opts); err != nil {
			t.Fatalf("Δ41=%g: %v", v, err)
		}
	}
	m := edited.Materialize()
	if m == cc.Circuit() {
		t.Fatal("Materialize with edits must not return the shared snapshot circuit")
	}
	m.SetPathDelay(0, 777) // private clone: mutation must not reach the snapshot

	after := captureState(cc, opts)
	if !before.equal(after) {
		t.Error("analysis mutated the frozen snapshot")
	}
	if got := cc.Circuit().Paths()[3].Delay; got != 50 {
		t.Errorf("snapshot Δ41 = %g, want 50", got)
	}
}

// TestFrozenKernelPanics pins the guard rails: the shared kernel's
// mutating methods must refuse to run.
func TestFrozenKernelPanics(t *testing.T) {
	cc := example1(50).MustFreeze()
	kn := cc.KernelFor(Options{})
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a frozen kernel did not panic", name)
			}
		}()
		f()
	}
	mustPanic("SetDelay", func() { kn.SetDelay(0, 1) })
	mustPanic("Refold", func() { kn.Refold() })
}

// TestOverlaySolveMatchesMutatedCircuit pins overlay solves against the
// classic mutate-and-solve flow bit-for-bit.
func TestOverlaySolveMatchesMutatedCircuit(t *testing.T) {
	cc := example1(50).MustFreeze()
	for _, d41 := range []float64{5, 20, 50, 80, 100, 120} {
		ov := cc.Overlay().With(3, d41)
		got, err := MinTcOverlay(ov, Options{})
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d41, err)
		}
		want, err := MinTc(example1(d41), Options{})
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d41, err)
		}
		if got.Schedule.Tc != want.Schedule.Tc {
			t.Errorf("Δ41=%g: overlay Tc %v != mutate-and-solve Tc %v", d41, got.Schedule.Tc, want.Schedule.Tc)
		}
		if !floatsEqual(got.D, want.D) {
			t.Errorf("Δ41=%g: departures differ: %v vs %v", d41, got.D, want.D)
		}
	}
}

// TestOverlayDigest pins the digest's canonicalization: edit order must
// not matter, reverting an edit must restore the base digest, and
// distinct effective delays must (here) produce distinct digests.
func TestOverlayDigest(t *testing.T) {
	cc := example1(50).MustFreeze()
	base := cc.Overlay()
	ab := base.With(0, 30).With(3, 70)
	ba := base.With(3, 70).With(0, 30)
	if ab.Digest() != ba.Digest() {
		t.Error("digest depends on edit order")
	}
	if ab.Digest() == base.Digest() {
		t.Error("edited overlay digests like the base")
	}
	reverted := ab.With(0, cc.Circuit().Paths()[0].Delay).With(3, 50)
	if reverted.Digest() != base.Digest() {
		t.Error("reverting all edits does not restore the base digest")
	}
	if reverted.Len() != 0 {
		t.Errorf("reverted overlay still carries %d edits", reverted.Len())
	}
	if ab.Digest() == base.With(0, 30).Digest() {
		t.Error("sub-overlay digests like the full overlay")
	}
}

// TestOverlayClampSemantics pins the SetPathDelay-equivalent MinDelay
// clamp and the effective-view accessors.
func TestOverlayClampSemantics(t *testing.T) {
	c := example1(50)
	c.paths[3].MinDelay = 30
	cc := c.MustFreeze()
	ov := cc.Overlay().With(3, 10) // below MinDelay: clamps to 10
	if got := ov.Delay(3); got != 10 {
		t.Errorf("Delay = %g, want 10", got)
	}
	if got := ov.MinDelay(3); got != 10 {
		t.Errorf("MinDelay = %g, want clamp to 10", got)
	}
	if p := ov.Path(3); p.Delay != 10 || p.MinDelay != 10 {
		t.Errorf("Path view = %+v, want Delay/MinDelay 10", p)
	}
	// Raising it back above the base MinDelay keeps the base MinDelay
	// (same as SetPathDelay, which never raises MinDelay).
	ov2 := cc.Overlay().With(3, 80)
	if got := ov2.MinDelay(3); got != 30 {
		t.Errorf("MinDelay after raise = %g, want untouched 30", got)
	}
	if math.IsNaN(ov2.Delay(3)) || ov2.Delay(3) != 80 {
		t.Errorf("Delay after raise = %g, want 80", ov2.Delay(3))
	}
}
