package core

import (
	"context"
	"math"
	"testing"
)

// reoptimize is the library's what-if pattern over a solved result:
// the dual shortcut when the basis stays optimal, else a warm re-solve
// of the edited overlay (what Session.Reoptimize does).
func reoptimize(r *Result, pidx int, d float64) (tc float64, resolved bool, err error) {
	tc, ok, err := r.TryReoptimizeDual(pidx, d)
	if err != nil || ok {
		return tc, false, err
	}
	full, err := MinTcOverlayWarmCtx(context.Background(), r.Overlay.With(pidx, d), r.Options, r.LPBasis())
	if err != nil {
		return 0, true, err
	}
	return full.Schedule.Tc, true, nil
}

func TestReoptimizeMatchesFullSolve(t *testing.T) {
	// Sweep Δ41 against one solved base; every answer must equal the
	// closed form, and small moves inside a segment must avoid the
	// full resolve.
	r, err := MinTc(example1(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cheap, expensive := 0, 0
	for _, d := range []float64{52, 55, 60, 90, 101, 130, 10, 50} {
		tc, resolved, err := reoptimize(r, 3, d)
		if err != nil {
			t.Fatalf("Δ41=%g: %v", d, err)
		}
		want := example1OptTc(d)
		if math.Abs(tc-want) > 1e-6 {
			t.Errorf("Δ41=%g: reoptimized Tc %g, want %g (resolved=%v)", d, tc, want, resolved)
		}
		if resolved {
			expensive++
		} else {
			cheap++
		}
	}
	if cheap == 0 {
		t.Error("no incremental (dual-based) answers; ranging is vacuous")
	}
	if expensive == 0 {
		t.Error("no full resolves; test range too narrow")
	}
	if got := r.Circuit.Paths()[3].Delay; got != 50 {
		t.Errorf("what-if queries moved the snapshot's delay to %g", got)
	}
}

func TestReoptimizeValidation(t *testing.T) {
	r, err := MinTc(example1(50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.TryReoptimizeDual(99, 1); err == nil {
		t.Error("bad path accepted")
	}
	if _, _, err := r.TryReoptimizeDual(0, -1); err == nil {
		t.Error("negative delay accepted")
	}
}
