package core_test

import (
	"math/rand"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// TestOverlayKernelMatchesRefoldOnSuite is the overlay bit-identity
// property test: over every benchmark-suite workload and rounds of
// random delay edits, a DelayOverlay-backed kernel must match — arc by
// arc, bit for bit — the kernel obtained the classic way: clone the
// circuit, apply the same edits with SetPathDelay, and compile the
// clone afresh (re-folding every arc from the mutated delays). This
// pins the overlay fold to SetPathDelay semantics (including the
// MinDelay clamp), so overlay solves and mutate-and-solve can never
// drift apart.
func TestOverlayKernelMatchesRefoldOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bm := range gen.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			c := bm.Circuit
			cc, err := c.Freeze()
			if err != nil {
				t.Skipf("Freeze: %v", err)
			}
			opts := core.Options{Skew: 0.5}
			nPaths := len(c.Paths())
			for trial := 0; trial < 6; trial++ {
				// Random edit set: a handful of paths, delays spanning
				// below-MinDelay (exercises the clamp), zero, and
				// well above the original.
				ov := cc.Overlay()
				clone := c.Clone()
				edits := 1 + rng.Intn(5)
				for e := 0; e < edits; e++ {
					pidx := rng.Intn(nPaths)
					d := rng.Float64() * 2 * (1 + clone.Paths()[pidx].Delay)
					if rng.Intn(4) == 0 {
						d = 0
					}
					ov = ov.With(pidx, d)
					clone.SetPathDelay(pidx, d)
				}
				knMut := core.CompileKernel(clone, opts)
				knOv := ov.Kernel(opts)
				if len(knOv.W) != len(knMut.W) {
					t.Fatalf("trial %d: arc count %d != %d", trial, len(knOv.W), len(knMut.W))
				}
				for a := range knOv.W {
					if knOv.Path[a] != knMut.Path[a] {
						t.Fatalf("trial %d arc %d: path %d != %d (structure must be shared)", trial, a, knOv.Path[a], knMut.Path[a])
					}
					if knOv.W[a] != knMut.W[a] {
						t.Fatalf("trial %d arc %d (path %d): overlay W %v != refold W %v",
							trial, a, knOv.Path[a], knOv.W[a], knMut.W[a])
					}
					if knOv.Base[a] != knMut.Base[a] {
						t.Fatalf("trial %d arc %d (path %d): overlay Base %v != refold Base %v",
							trial, a, knOv.Path[a], knOv.Base[a], knMut.Base[a])
					}
					if knOv.Span[a] != knMut.Span[a] {
						t.Fatalf("trial %d arc %d (path %d): overlay Span %v != refold Span %v",
							trial, a, knOv.Path[a], knOv.Span[a], knMut.Span[a])
					}
				}
			}
		})
	}
}

// TestOverlaySolversMatchMutateOnSuite extends the property to the
// solvers: MinTcOverlay and CheckTcOverlay over an edited overlay must
// reproduce MinTc/CheckTc on an equivalently mutated clone exactly.
func TestOverlaySolversMatchMutateOnSuite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bm := range gen.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			c := bm.Circuit
			cc, err := c.Freeze()
			if err != nil {
				t.Skipf("Freeze: %v", err)
			}
			ov := cc.Overlay()
			clone := c.Clone()
			nPaths := len(c.Paths())
			for e := 0; e < 3; e++ {
				pidx := rng.Intn(nPaths)
				d := rng.Float64() * 1.5 * (1 + clone.Paths()[pidx].Delay)
				ov = ov.With(pidx, d)
				clone.SetPathDelay(pidx, d)
			}
			opts := core.Options{}
			got, errOv := core.MinTcOverlay(ov, opts)
			want, errMut := core.MinTc(clone, opts)
			if (errOv == nil) != (errMut == nil) {
				t.Fatalf("solve disagreement: overlay err %v, mutate err %v", errOv, errMut)
			}
			if errOv != nil {
				return
			}
			if got.Schedule.Tc != want.Schedule.Tc {
				t.Errorf("overlay Tc %v != mutate Tc %v", got.Schedule.Tc, want.Schedule.Tc)
			}
			for i := range got.D {
				if got.D[i] != want.D[i] {
					t.Fatalf("D[%d]: overlay %v != mutate %v", i, got.D[i], want.D[i])
				}
			}
			anOv, err := core.CheckTcOverlay(ov, want.Schedule, opts)
			if err != nil {
				t.Fatal(err)
			}
			anMut, err := core.CheckTc(clone, want.Schedule, opts)
			if err != nil {
				t.Fatal(err)
			}
			if anOv.Feasible != anMut.Feasible || len(anOv.Violations) != len(anMut.Violations) {
				t.Errorf("analysis disagreement: overlay (%v, %d violations) vs mutate (%v, %d)",
					anOv.Feasible, len(anOv.Violations), anMut.Feasible, len(anMut.Violations))
			}
			for i := range anOv.D {
				if anOv.D[i] != anMut.D[i] {
					t.Fatalf("check D[%d]: overlay %v != mutate %v", i, anOv.D[i], anMut.D[i])
				}
			}
		})
	}
}
