package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 90); !math.IsInf(got, 1) {
		t.Errorf("a percentile reaching a failed op must read +Inf, got %g", got)
	}
}

// TestTailNeedsTenBeyond pins the rule the workloads' tail percentiles
// follow: a percentile is reported only with at least ten samples
// above it.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false},
		{200, 95, true}, {199, 95, false},
		{40, 75, true}, {32, 75, false},
		{6800, 99, true},
	} {
		if got := beyond(c.n, c.p) >= minBeyond; got != c.want {
			t.Errorf("n=%d p%g: %d beyond, supported=%v, want %v", c.n, c.p, beyond(c.n, c.p), got, c.want)
		}
	}
	if note := tailNote(75, 32); note != "p75 of 32 samples (8 beyond, fewer than 10)" {
		t.Errorf("tailNote = %q", note)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %g, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8, 4) = %g, want 4", got)
	}
	if got := geomean([]float64{1, math.Inf(1)}); !math.IsInf(got, 1) {
		t.Errorf("geomean with a failed group = %g, want +Inf", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %g, want 0", got)
	}
}

func TestTailRatioPoolsNormalizedGroups(t *testing.T) {
	// Two groups of different scale but the same shape pool to that
	// shape: the tail ratio does not depend on which group is larger.
	groups := [][]float64{{1, 2, 3}, {10, 20, 30}}
	ratio, n := tailRatio(groups, 100)
	if ratio != 1.5 || n != 6 {
		t.Errorf("tailRatio = %g over %d, want 1.5 over 6", ratio, n)
	}
	if ratio, _ := tailRatio(groups, 50); ratio != 1 {
		t.Errorf("median ratio = %g, want 1", ratio)
	}
}

// TestQuartilesMatchPython checks quartiles against
// statistics.quantiles(values, n=4), the spread's reference.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		m        metricSpec
		old, new []float64
		want     string
	}{
		{lower, steady, steady, "unchanged"},
		{lower, steady, scale(steady, 0.9), "better"},
		{lower, steady, scale(steady, 1.2), "worse"},
		{higher, steady, scale(steady, 1.1), "better"},
		{higher, steady, scale(steady, 0.8), "worse"},
		{lower, steady, []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}, "unresolved"},
		{lower, steady, []float64{10, 50, 20, 40, 30, 15, 45, 25, 35, 30}, "better"},
		{metricSpec{Name: "pivots", Better: "lower"}, steady, scale(steady, 2), "-"},
	} {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s %v → %v: verdict %q, want %q", c.m.Name, c.old, c.new, got, c.want)
		}
	}
}
