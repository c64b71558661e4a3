package core_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mintc/internal/core"
	"mintc/internal/gen"
)

// rangingSummary flattens everything a result's on-demand ranging
// serves — every row's RHS interval, a two-row step range, the
// critical segments and a dual-shortcut answer — into comparable bits.
func rangingSummary(r *core.Result) ([]uint64, error) {
	rows := make([]int, r.LP.NumConstraints())
	for i := range rows {
		rows[i] = i
	}
	rng, err := r.LPSol.RHSRange(rows...)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, iv := range rng {
		out = append(out, math.Float64bits(iv[0]), math.Float64bits(iv[1]))
	}
	lo, hi, err := r.LPSol.RHSStepRange([]int{0, len(rows) - 1}, []float64{1, -0.5})
	if err != nil {
		return nil, err
	}
	out = append(out, math.Float64bits(lo), math.Float64bits(hi))
	for _, s := range r.CriticalSegments(true) {
		out = append(out, math.Float64bits(s.Dual), math.Float64bits(s.RHSLow), math.Float64bits(s.RHSHigh))
	}
	tc, ok, err := r.TryReoptimizeDual(0, r.Circuit.Paths()[0].Delay*1.01)
	if err != nil {
		return nil, err
	}
	if ok {
		out = append(out, math.Float64bits(tc))
	}
	return out, nil
}

// TestConcurrentTemplateBuildsAndRanging: overlay solves fired at one
// fresh snapshot all at once — so every options shape's LP template is
// built under contention by its first users — and concurrent range
// queries on one shared result must equal a serial run bit for bit.
// Run under -race this also proves the template cache and the
// on-demand ranging (pooled scratch arenas reading a shared Solution)
// are data-race free.
func TestConcurrentTemplateBuildsAndRanging(t *testing.T) {
	c := gen.Suite()[7].Circuit // ring-2x128
	shapes := []core.Options{{}, {Skew: 0.25}, {MinPhaseWidth: 1}, {FixedTc: 100}, {FixedTc: 120}}
	type job struct {
		opts  core.Options
		path  int
		delay float64
	}
	var jobs []job
	for i := 0; i < 24; i++ {
		jobs = append(jobs, job{shapes[i%len(shapes)], (i * 37) % len(c.Paths()), 20 + float64(i)})
	}
	solve := func(cc *core.Compiled, j job) (string, error) {
		r, err := core.MinTcOverlay(cc.Overlay().With(j.path, j.delay), j.opts)
		if err != nil {
			return "", err
		}
		sum, err := rangingSummary(r)
		return fmt.Sprint(math.Float64bits(r.Schedule.Tc), r.D, r.LPSol.X, r.LPSol.Dual, sum), err
	}

	serialCC := c.MustFreeze()
	want := make([]string, len(jobs))
	for i, j := range jobs {
		var err error
		if want[i], err = solve(serialCC, j); err != nil {
			t.Fatal(err)
		}
	}

	sharedCC := c.MustFreeze()
	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = solve(sharedCC, j)
		}()
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("job %d (%+v): concurrent answer differs from the serial one", i, jobs[i])
		}
	}

	// Many readers ranging one shared result at once.
	shared, err := core.MinTcOverlay(sharedCC.Overlay().With(3, 45), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := rangingSummary(shared)
	if err != nil {
		t.Fatal(err)
	}
	sums := make([][]uint64, 8)
	for i := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[i], errs[i] = rangingSummary(shared)
		}()
	}
	wg.Wait()
	for i, s := range sums {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if fmt.Sprint(s) != fmt.Sprint(ref) {
			t.Errorf("reader %d: concurrent ranging differs from the serial one", i)
		}
	}
}
