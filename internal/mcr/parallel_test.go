package mcr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// chunkedState is one chunked probe's observable outcome: the verdict,
// bitwise copies of the potentials and predecessor graph (feasible), or
// the witness cycle's edge indices (infeasible).
type chunkedState struct {
	feasible bool
	dist     []float64
	pred     []int32
	wit      []int32
}

// runChunked probes circuit c at tc through the chunked engine with
// the given worker count, forcing every graph — however small — into
// many chunks so the merge logic is genuinely exercised.
func runChunked(t *testing.T, c *core.Circuit, tc float64, workers int) chunkedState {
	t.Helper()
	b := builderFor(c, core.Options{})
	b.chunkCutoff = 1   // always chunked
	b.chunkSizeOver = 3 // several chunks even on tiny graphs
	b.probeWorkers = workers
	dist, wit, err := b.probe(context.Background(), tc, false)
	if err != nil {
		t.Fatalf("chunked probe (workers=%d): %v", workers, err)
	}
	st := chunkedState{feasible: wit == nil}
	if st.feasible {
		st.dist = append(st.dist, dist...)
		st.pred = append(st.pred, b.pred...)
	} else {
		st.wit = append(st.wit, b.witIdx...)
	}
	return st
}

// TestChunkedProbeParity is the parallel-probe determinism gate: for
// every suite circuit, at feasible and infeasible cycle times, the
// chunked probe must produce BIT-IDENTICAL potentials, predecessor
// graphs, and witness cycles for every worker count (one worker is the
// serial oracle — same chunk schedule, no goroutines). It also
// cross-checks the chunked verdict against the legacy per-node
// worklist drain with probePair's tolerance.
func TestChunkedProbeParity(t *testing.T) {
	for _, bm := range gen.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			r, err := Solve(bm.Circuit, core.Options{})
			if err != nil {
				t.Skipf("Solve: %v", err)
			}
			tcs := []float64{r.Tc, r.Tc + 1}
			if r.Tc > 1 {
				tcs = append(tcs, r.Tc/2, r.Tc-1)
			}
			for _, tc := range tcs {
				ref := runChunked(t, bm.Circuit, tc, 1)
				for _, workers := range []int{2, 3, 8} {
					got := runChunked(t, bm.Circuit, tc, workers)
					if got.feasible != ref.feasible {
						t.Fatalf("tc=%g workers=%d: feasible=%v, serial oracle %v",
							tc, workers, got.feasible, ref.feasible)
					}
					for i := range ref.dist {
						if got.dist[i] != ref.dist[i] {
							t.Fatalf("tc=%g workers=%d node %d: dist %v != serial %v (bit-identity violated)",
								tc, workers, i, got.dist[i], ref.dist[i])
						}
						if got.pred[i] != ref.pred[i] {
							t.Fatalf("tc=%g workers=%d node %d: pred %d != serial %d (bit-identity violated)",
								tc, workers, i, got.pred[i], ref.pred[i])
						}
					}
					if len(got.wit) != len(ref.wit) {
						t.Fatalf("tc=%g workers=%d: witness length %d != serial %d",
							tc, workers, len(got.wit), len(ref.wit))
					}
					for i := range ref.wit {
						if got.wit[i] != ref.wit[i] {
							t.Fatalf("tc=%g workers=%d: witness edge %d is %d, serial %d",
								tc, workers, i, got.wit[i], ref.wit[i])
						}
					}
				}
				// Cross-engine: the chunked drain against the legacy
				// serial worklist, tolerance per probePair (relaxation
				// order differs, so eps-guard slop may accumulate).
				bs := builderFor(bm.Circuit, core.Options{})
				bs.chunkCutoff = 1 << 30 // always the serial worklist
				sdist, swit, err := bs.probe(context.Background(), tc, false)
				if err != nil {
					t.Fatalf("serial probe: %v", err)
				}
				if (swit == nil) != ref.feasible {
					t.Fatalf("tc=%g: chunked feasible=%v, serial worklist %v", tc, ref.feasible, swit == nil)
				}
				if ref.feasible {
					tol := eps * float64(bs.n+1) * 10
					for i := range sdist {
						a, b := ref.dist[i], sdist[i]
						if math.IsInf(a, -1) && math.IsInf(b, -1) {
							continue
						}
						if math.Abs(a-b) > tol {
							t.Fatalf("tc=%g node %d: chunked %g vs serial worklist %g", tc, i, a, b)
						}
					}
				}
			}
		})
	}
}

// TestChunkedSolveMatchesSerial runs the full witness-jumping solve
// with the chunked engine forced on and compares the optimum and
// departures against the default (serial, small-graph) path.
func TestChunkedSolveMatchesSerial(t *testing.T) {
	for _, bm := range gen.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			want, err := Solve(bm.Circuit, core.Options{})
			if err != nil {
				t.Skipf("Solve: %v", err)
			}
			b := builderFor(bm.Circuit, core.Options{})
			b.chunkCutoff = 1
			b.chunkSizeOver = 5
			got, err := solveFrom(context.Background(), b, core.Options{}, 0, true, false)
			if err != nil {
				t.Fatalf("chunked solve: %v", err)
			}
			if math.Abs(got.Tc-want.Tc) > 1e-9*(1+math.Abs(want.Tc)) {
				t.Fatalf("chunked Tc %v, serial %v", got.Tc, want.Tc)
			}
		})
	}
}

// TestEpochWrapAdversarial pins the uint32 wrap paths of every
// epoch-stamped structure the probe relies on: the builder's shared
// wgen stamps (bumpEpoch — used by bestWitness and probeDense) and the
// chunked lanes' overlay stamps (nextEpoch). A stale stamp surviving a
// wrap would make a node look visited (walk corruption) or overlaid
// (potential corruption); the test drives probes straight through the
// wrap and demands bit-identical outcomes to a fresh builder. Run
// under -race this also re-checks the lane handoff around the wipe.
func TestEpochWrapAdversarial(t *testing.T) {
	c, err := gen.Ring(2, 24, 1, 2, func(int) float64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := runChunked(t, c, r.Tc/2, 4) // infeasible: exercises bestWitness
	freshF := runChunked(t, c, r.Tc+1, 4)

	b := builderFor(c, core.Options{})
	b.chunkCutoff = 1
	b.chunkSizeOver = 3
	b.probeWorkers = 4
	b.ensureScratch()
	// Park the shared walk epoch two bumps from the wrap and poison the
	// stamps with values a wrapped epoch would collide with.
	b.wepoch = math.MaxUint32 - 2
	for i := range b.wgen {
		b.wgen[i] = math.MaxUint32 - 2
	}
	// Pre-build lanes and park their epochs at the edge too, with
	// poisoned stamps and garbage local state underneath.
	b.ensureLanes(4)
	for _, ln := range b.lanes {
		ln.epoch = math.MaxUint32 - 1
		for i := range ln.gen {
			ln.gen[i] = math.MaxUint32 - 1
			ln.dist[i] = 1e300
			ln.pred[i] = 7
		}
	}
	for probes := 0; probes < 6; probes++ { // enough bumps to cross both wraps
		dist, wit, err := b.probe(context.Background(), r.Tc/2, false)
		if err != nil {
			t.Fatal(err)
		}
		if dist != nil || wit == nil {
			t.Fatalf("probe %d: expected infeasible verdict at tc=%g", probes, r.Tc/2)
		}
		if len(b.witIdx) != len(fresh.wit) {
			t.Fatalf("probe %d: witness length %d, fresh %d", probes, len(b.witIdx), len(fresh.wit))
		}
		for i := range fresh.wit {
			if b.witIdx[i] != fresh.wit[i] {
				t.Fatalf("probe %d: witness edge %d is %d, fresh %d", probes, i, b.witIdx[i], fresh.wit[i])
			}
		}
	}
	dist, wit, err := b.probe(context.Background(), r.Tc+1, false)
	if err != nil {
		t.Fatal(err)
	}
	if wit != nil {
		t.Fatalf("expected feasible at tc=%g", r.Tc+1)
	}
	for i := range dist {
		if dist[i] != freshF.dist[i] {
			t.Fatalf("node %d: post-wrap dist %v, fresh %v (bit-identity violated)", i, dist[i], freshF.dist[i])
		}
	}
}

// TestLaneEpochWrapUnit pins nextEpoch's wrap contract directly: at
// MaxUint32 the stamps are wiped before the epoch restarts, so no node
// can alias as overlaid.
func TestLaneEpochWrapUnit(t *testing.T) {
	ln := &probeLane{
		dist: make([]float64, 4),
		pred: make([]int32, 4),
		gen:  make([]uint32, 4),
	}
	global := []float64{10, 20, 30, 40}
	ln.epoch = math.MaxUint32
	for i := range ln.gen {
		ln.gen[i] = math.MaxUint32 // stamped in the pre-wrap epoch
		ln.dist[i] = -999          // garbage that must not leak
	}
	ln.nextEpoch()
	if ln.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", ln.epoch)
	}
	for i := int32(0); i < 4; i++ {
		if got := ln.localDist(i, global); got != global[i] {
			t.Fatalf("node %d: localDist %v after wrap, want global %v", i, got, global[i])
		}
	}
}

// TestInqClearDiscipline pins the worklist bitset contract: a drained
// (feasible) probe leaves every membership bit clear, and an early
// witness exit — which legitimately abandons a live frontier — must
// not perturb the next probe on the same builder.
func TestInqClearDiscipline(t *testing.T) {
	c, err := gen.Ring(2, 16, 1, 2, func(int) float64 { return 10 })
	if err != nil {
		t.Fatal(err)
	}
	r, err := Solve(c, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cutoff := range []int{1, 1 << 30} { // chunked and serial drains
		b := builderFor(c, core.Options{})
		b.chunkCutoff = cutoff
		b.chunkSizeOver = 3
		if _, wit, err := b.probe(context.Background(), r.Tc+1, false); err != nil || wit != nil {
			t.Fatalf("feasible probe (cutoff=%d): wit=%v err=%v", cutoff, wit, err)
		}
		for w, bits := range b.inq {
			if bits != 0 {
				t.Fatalf("cutoff=%d: inq word %d = %#x after drained probe, want 0", cutoff, w, bits)
			}
		}
		// Infeasible probe abandons its frontier mid-drain...
		if _, wit, err := b.probe(context.Background(), r.Tc/2, false); err != nil || wit == nil {
			t.Fatalf("infeasible probe (cutoff=%d): wit=%v err=%v", cutoff, wit, err)
		}
		// ...and the next cold probe must still match a fresh builder
		// bitwise (the prologue re-arms dist/pred/inq from scratch).
		fb := builderFor(c, core.Options{})
		fb.chunkCutoff = cutoff
		fb.chunkSizeOver = 3
		want, _, err := fb.probe(context.Background(), r.Tc+1, false)
		if err != nil {
			t.Fatal(err)
		}
		got, wit, err := b.probe(context.Background(), r.Tc+1, false)
		if err != nil || wit != nil {
			t.Fatalf("post-witness probe (cutoff=%d): wit=%v err=%v", cutoff, wit, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cutoff=%d node %d: %v after abandoned frontier, fresh %v", cutoff, i, got[i], want[i])
			}
		}
	}
}

// TestSetDelayChunkedMatchesFresh guards the out-order copy of the
// edge constants the chunked kernels read: SetDelay and SetDelayMin
// must patch it along with the edge list once a probe has built it.
// A solver with the chunked engine forced on solves once (building the
// copy), takes a delay raise through SetDelay and a cut through
// SetDelayMin (with the overlay's own composed MinDelay clamp, as the
// coupling pass applies it), and solves again. Tc, departures and the
// witness arcs must be bitwise those of a fresh solver that took the
// same edits before its first probe, so its copy was built from the
// edited constants, and Tc bitwise that of a solver built over the
// edited overlay (SetDelay sums each constant as a build does). The
// hold variants put the cut below MinDelay, so the hold edges'
// constants move too.
func TestSetDelayChunkedMatchesFresh(t *testing.T) {
	type tcase struct {
		name string
		c    *core.Circuit
		opts core.Options
	}
	var cases []tcase
	for _, bm := range gen.Suite() {
		cases = append(cases, tcase{bm.Name, bm.Circuit, core.Options{}})
	}
	rng := rand.New(rand.NewSource(2121))
	for len(cases) < len(gen.Suite())+12 {
		c := randomHoldCircuit(rng)
		if len(c.Paths()) < 2 {
			continue
		}
		cases = append(cases, tcase{fmt.Sprintf("hold-%d", len(cases)), c, core.Options{DesignForHold: true}})
	}
	chunked := func(s *Solver) *Solver {
		s.b.chunkCutoff = 1
		s.b.chunkSizeOver = 3
		return s
	}
	moved := 0
	for _, tc := range cases {
		cc := tc.c.MustFreeze()
		base := cc.Overlay()
		s, err := NewSolverOverlay(base, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		chunked(s)
		before, err := s.Solve()
		if err != nil {
			continue // infeasible at base; nothing to edit against
		}
		paths := tc.c.Paths()
		raise, cut := 0, len(paths)-1
		ov := base.With(raise, 2*paths[raise].Delay+5)
		ov = ov.With(cut, 0.25*paths[cut].MinDelay)
		edit := func(s *Solver) {
			s.SetDelay(raise, ov.Delay(raise))
			s.SetDelayMin(cut, ov.Delay(cut), ov.MinDelay(cut))
		}
		edit(s)
		got, gerr := s.Solve()
		ref, err := NewSolverOverlay(base, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		edit(chunked(ref))
		want, werr := ref.Solve()
		fresh, err := NewSolverOverlay(ov, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		built, berr := chunked(fresh).Solve()
		if (gerr == nil) != (werr == nil) || (gerr == nil) != (berr == nil) {
			t.Fatalf("%s: edited solver err %v, edited before first probe %v, built over the edits %v", tc.name, gerr, werr, berr)
		}
		if gerr != nil {
			continue
		}
		if math.Float64bits(got.Tc) != math.Float64bits(built.Tc) {
			t.Fatalf("%s: edited solver Tc %v, solver built over the edited overlay %v", tc.name, got.Tc, built.Tc)
		}
		if math.Float64bits(got.Tc) != math.Float64bits(want.Tc) {
			t.Fatalf("%s: edited solver Tc %v, fresh build %v", tc.name, got.Tc, want.Tc)
		}
		for i := range want.D {
			if math.Float64bits(got.D[i]) != math.Float64bits(want.D[i]) {
				t.Fatalf("%s: D[%d] %v, fresh build %v", tc.name, i, got.D[i], want.D[i])
			}
		}
		if !reflect.DeepEqual(got.CriticalArcs, want.CriticalArcs) {
			t.Fatalf("%s: witness arcs %v, fresh build %v", tc.name, got.CriticalArcs, want.CriticalArcs)
		}
		if got.Tc != before.Tc {
			moved++
		}
	}
	if moved < 5 {
		t.Fatalf("only %d of %d edits moved Tc; the check needs edits that matter", moved, len(cases))
	}
}
