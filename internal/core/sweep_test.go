package core_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/decomp"
)

// The library delay sweep lives in internal/decomp (core cannot import
// it); these tests pin its contract on core's own reference circuit,
// the paper's Example 1.

func sweep(cc *core.Compiled, opts core.Options, pathIndex int, values []float64) ([]float64, []error) {
	return decomp.SweepAll(context.Background(), cc.Overlay(), opts, pathIndex, values, decomp.Config{}, nil)
}

func TestSweepDelaysMatchesSerial(t *testing.T) {
	c := circuits.Example1(0)
	cc, err := c.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var values []float64
	for d := 0.0; d <= 150; d += 3 {
		values = append(values, d)
	}
	tcs, errs := sweep(cc, core.Options{}, 3, values)
	for i, d := range values {
		if errs[i] != nil {
			t.Fatalf("Δ41=%g: %v", d, errs[i])
		}
		if want := circuits.Example1OptimalTc(d); math.Abs(tcs[i]-want) > 1e-6 {
			t.Errorf("Δ41=%g: swept %g vs Fig. 7 formula %g", d, tcs[i], want)
		}
	}
	// The source circuit is untouched.
	if c.Paths()[3].Delay != 0 || cc.Circuit().Paths()[3].Delay != 0 {
		t.Errorf("sweep mutated the input circuit")
	}
}

func TestSweepDelaysBadPath(t *testing.T) {
	cc, err := circuits.Example1(0).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	_, errs := sweep(cc, core.Options{}, 99, []float64{1, 2})
	for _, err := range errs {
		if err == nil {
			t.Fatal("bad path accepted")
		}
	}
}

func TestSweepDelaysEmpty(t *testing.T) {
	cc, err := circuits.Example1(0).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	tcs, errs := sweep(cc, core.Options{}, 0, nil)
	if len(tcs) != 0 || len(errs) != 0 {
		t.Fatal("nonempty result for empty sweep")
	}
}

// TestSweepRejectsScheduleObjectives: like MinTcLex and
// ParametricDelay, the sweep is tied to cycle-time minimization and
// must reject a schedule objective instead of answering min-Tc.
func TestSweepRejectsScheduleObjectives(t *testing.T) {
	cc, err := circuits.Example1(80).Freeze()
	if err != nil {
		t.Fatal(err)
	}
	_, errs := sweep(cc, core.Options{Objective: core.MaxMarginAt(130)}, 0, []float64{1})
	if len(errs) == 0 || errs[0] == nil || !strings.Contains(errs[0].Error(), "min-Tc objective") {
		t.Errorf("Sweep: errs = %v, want a min-Tc-only rejection", errs)
	}
}
