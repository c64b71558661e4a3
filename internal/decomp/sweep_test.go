package decomp

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
	"mintc/internal/obs"
)

// oracleSweep answers a sweep the slow, exact way: one monolithic
// MinTcOverlay solve per value. A value With would reject becomes that
// value's error.
func oracleSweep(cc *core.Compiled, opts core.Options, pidx int, values []float64) ([]float64, []error) {
	tcs := make([]float64, len(values))
	errs := make([]error, len(values))
	for i, v := range values {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			errs[i] = fmt.Errorf("invalid delay %g", v)
			continue
		}
		r, err := core.MinTcOverlay(cc.Overlay().With(pidx, v), opts)
		if err != nil {
			errs[i] = err
			continue
		}
		tcs[i] = r.Schedule.Tc
	}
	return tcs, errs
}

// sweepOptionSets is optionVariants plus a cycle time pinned at 1.2×
// the unedited optimum, under which large enough values are
// infeasible.
func sweepOptionSets(t *testing.T, cc *core.Compiled) []core.Options {
	t.Helper()
	r, err := core.MinTcOverlay(cc.Overlay(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return append(optionVariants(), core.Options{FixedTc: 1.2 * r.Schedule.Tc})
}

// checkSweep asserts a sweep matches the oracle: errors at exactly the
// oracle's values, every answer within 1e-9 relative. It returns how
// many values the oracle rejected.
func checkSweep(t *testing.T, tag string, cc *core.Compiled, opts core.Options, pidx int, values []float64) int {
	t.Helper()
	got, gotErrs := Sweep(context.Background(), cc, opts, pidx, values, Config{}, nil)
	want, wantErrs := oracleSweep(cc, opts, pidx, values)
	failed := 0
	for i, v := range values {
		if (wantErrs[i] == nil) != (gotErrs[i] == nil) {
			t.Errorf("%s value %g: error mismatch: oracle %v vs sweep %v", tag, v, wantErrs[i], gotErrs[i])
			continue
		}
		if wantErrs[i] != nil {
			failed++
			continue
		}
		if d := relDiff(got[i], want[i]); d > 1e-9 {
			t.Errorf("%s value %g: sweep %.12g vs oracle %.12g (rel %.3g)", tag, v, got[i], want[i], d)
		}
	}
	return failed
}

// longestPath returns the index and delay of the circuit's slowest
// path, the one a designer would sweep first.
func longestPath(c *core.Circuit) (int, float64) {
	best, bestD := 0, -1.0
	for i, p := range c.Paths() {
		if p.Delay > bestD {
			best, bestD = i, p.Delay
		}
	}
	return best, bestD
}

// TestSweepParity: the sweep must reproduce one exact solve per value,
// including the invalid-value and cross-arc cases, under every option
// set.
func TestSweepParity(t *testing.T) {
	cc, cross := banksWithCross(t)
	values := []float64{0, 5, 20, 30, 31, 60, 120, -1, math.NaN(), 240}
	for _, pidx := range []int{4, cross} {
		for vi, opts := range sweepOptionSets(t, cc) {
			checkSweep(t, fmt.Sprintf("path %d/v%d", pidx, vi), cc, opts, pidx, values)
		}
	}
}

// TestSweepParitySuite sweeps the longest path of every suite circuit
// under every option set against the per-value oracle. The pinned-Tc
// set must drive at least one value infeasible somewhere, or it checks
// nothing the plain set does not. A schedule objective at that pinned
// Tc must be rejected, never answered as plain min-Tc.
func TestSweepParitySuite(t *testing.T) {
	infeasible := 0
	for _, b := range gen.Suite() {
		cc, err := b.Circuit.Freeze()
		if err != nil {
			t.Fatalf("%s: Freeze: %v", b.Name, err)
		}
		pidx, d := longestPath(cc.Circuit())
		values := []float64{0, d / 2, d, 3 * d}
		sets := sweepOptionSets(t, cc)
		for vi, opts := range sets {
			n := checkSweep(t, fmt.Sprintf("%s/v%d", b.Name, vi), cc, opts, pidx, values)
			if vi == len(sets)-1 {
				infeasible += n
			}
		}
		margin := core.Options{Objective: core.MaxMarginAt(sets[len(sets)-1].FixedTc)}
		_, errs := Sweep(context.Background(), cc, margin, pidx, values, Config{}, nil)
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "requires the min-Tc objective") {
				t.Errorf("%s value %g: max-margin err = %v, want a min-Tc-only rejection", b.Name, values[i], err)
			}
		}
	}
	if infeasible == 0 {
		t.Error("no pinned-Tc sweep value was infeasible")
	}
}

// TestSweepWorkerInvariance: the worker count only partitions the
// value list, so every answer — and every error — must be bitwise the
// same for any count.
func TestSweepWorkerInvariance(t *testing.T) {
	benches := append(gen.Suite(), gen.Benchmark{Name: "banks-16x125", Circuit: gen.Banks(16, 124, 1, 2, 30)})
	for _, b := range benches {
		cc, err := b.Circuit.Freeze()
		if err != nil {
			t.Fatalf("%s: Freeze: %v", b.Name, err)
		}
		pidx, d := longestPath(cc.Circuit())
		values := make([]float64, 12)
		for i := range values {
			values[i] = 3 * d * float64(i) / float64(len(values)-1)
		}
		for vi, opts := range optionVariants()[:3] {
			ref, refErrs := Sweep(context.Background(), cc, opts, pidx, values, Config{Workers: 1}, nil)
			for _, w := range []int{2, 3, 8} {
				got, gotErrs := Sweep(context.Background(), cc, opts, pidx, values, Config{Workers: w}, nil)
				for i := range values {
					if fmt.Sprint(gotErrs[i]) != fmt.Sprint(refErrs[i]) {
						t.Errorf("%s/v%d workers=%d value %g: err %v, want %v", b.Name, vi, w, values[i], gotErrs[i], refErrs[i])
					}
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Errorf("%s/v%d workers=%d value %g: Tc %v, want %v (workers=1)", b.Name, vi, w, values[i], got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestSweepResolvesOnlyDirty: an intra-component sweep re-solves the
// dirty bank once per value (plus the priming pass); a cross-arc sweep
// re-solves nothing per value.
func TestSweepResolvesOnlyDirty(t *testing.T) {
	cc, cross := banksWithCross(t)
	values := []float64{10, 20, 30, 40, 50}
	run := func(pidx int) int64 {
		rec := obs.New()
		ctx := obs.With(context.Background(), rec)
		_, errs := Sweep(ctx, cc, core.Options{}, pidx, values, Config{Workers: 1}, nil)
		for i, err := range errs {
			if err != nil {
				t.Fatalf("value %d: %v", i, err)
			}
		}
		return rec.Snapshot().Counters["components_resolved"]
	}
	const primed = 3
	if got := run(4); got != primed+int64(len(values)) {
		t.Errorf("intra sweep resolved %d, want %d", got, primed+len(values))
	}
	if got := run(cross); got != primed {
		t.Errorf("cross sweep resolved %d, want %d", got, primed)
	}
}

// TestSweepHoldClamp: sweeping a delay below the path's best-case
// delay under DesignForHold exercises the solver-side MinDelay clamp;
// the sweep must track the per-value LP solve through it.
func TestSweepHoldClamp(t *testing.T) {
	c := core.NewCircuit(2)
	for i := 0; i < 4; i++ {
		c.AddSync(core.Synchronizer{Kind: core.Latch, Phase: i % 2, Setup: 1, DQ: 2, Hold: 0.8})
	}
	for i := 0; i < 4; i++ {
		c.AddPath(i, (i+1)%4, 25)
	}
	cc, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{40, 25, 10, 3, 1, 0.5, 30}
	checkSweep(t, "hold", cc, core.Options{DesignForHold: true}, 2, values)
}
